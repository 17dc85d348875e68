// bench_engine — wall-clock throughput of the simulation engine itself.
//
// Every service in this repository (verbs, SDP, DDSS, N-CoSED, cooperative
// caching) executes on dcs::sim::Engine, so the engine's events/sec is the
// hard ceiling on end-to-end experiment throughput.  This bench drives the
// scheduler's distinct hot paths in isolation:
//
//   timer_churn     future-dated delays through the timer heap, from 1 ns to
//                   10 ms out (64 tasks x 2000 random delays);
//   channel_pingpong the same-time ready path: two coroutines bouncing a
//                   token through two channels (schedule_now per hop);
//   spawn_join_storm coroutine-frame allocation churn: batches of short
//                   tasks spawned, joined, and torn down via when_all;
//   fanout_64       a 64-node fan-out/fan-in: when_all over 64 producers
//                   feeding one sink channel, the integrated-bench shape.
//
// Virtual-time results (event counts, end times) are deterministic and go
// into BENCH_engine.json; wall-clock events/sec and ns/event go into the
// non-deterministic BENCH_engine.wall.json sibling (docs/BENCHMARKS.md).
#include "common/rng.hpp"
#include "obs/harness.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace {

using namespace dcs;
using sim::Engine;
using sim::Task;

// --- workloads ------------------------------------------------------------

void timer_churn(Engine& eng, int tasks, int steps) {
  for (int id = 0; id < tasks; ++id) {
    eng.spawn([](Engine& e, int self, int n) -> Task<void> {
      Rng rng(0x7157c000ULL + static_cast<std::uint64_t>(self));
      for (int i = 0; i < n; ++i) {
        // 1 ns .. 10 ms: 64 pending timers spread far apart in time.
        co_await e.delay(rng.uniform(1, 10'000'000));
      }
    }(eng, id, steps));
  }
  eng.run();
}

void channel_pingpong(Engine& eng, int rounds) {
  sim::Channel<int> ping(eng);
  sim::Channel<int> pong(eng);
  eng.spawn([](sim::Channel<int>& rx, sim::Channel<int>& tx,
               int n) -> Task<void> {
    for (int i = 0; i < n; ++i) {
      const int v = co_await rx.recv();
      tx.push(v + 1);
    }
  }(ping, pong, rounds));
  eng.spawn([](sim::Channel<int>& tx, sim::Channel<int>& rx,
               int n) -> Task<void> {
    tx.push(0);
    for (int i = 0; i < n; ++i) {
      const int v = co_await rx.recv();
      if (i + 1 < n) tx.push(v + 1);
    }
  }(ping, pong, rounds));
  eng.run();
}

void spawn_join_storm(Engine& eng, int batches, int width) {
  eng.spawn([](Engine& e, int nb, int w) -> Task<void> {
    for (int b = 0; b < nb; ++b) {
      std::vector<Task<void>> tasks;
      tasks.reserve(static_cast<std::size_t>(w));
      for (int i = 0; i < w; ++i) {
        tasks.push_back([](Engine& e2) -> Task<void> {
          co_await e2.yield();
        }(e));
      }
      co_await e.when_all(std::move(tasks));
    }
  }(eng, batches, width));
  eng.run();
}

void fanout_64(Engine& eng, int msgs_per_node) {
  constexpr int kNodes = 64;
  sim::Channel<int> sink(eng);
  eng.spawn([](Engine& e, sim::Channel<int>& out, int msgs) -> Task<void> {
    std::vector<Task<void>> nodes;
    nodes.reserve(kNodes);
    for (int id = 0; id < kNodes; ++id) {
      nodes.push_back([](Engine& e2, sim::Channel<int>& o, int self,
                         int m) -> Task<void> {
        Rng rng(0xfa0000ULL + static_cast<std::uint64_t>(self));
        for (int i = 0; i < m; ++i) {
          co_await e2.delay(rng.uniform(100, 5000));
          o.push(self);
        }
      }(e, out, id, msgs));
    }
    co_await e.when_all(std::move(nodes));
  }(eng, sink, msgs_per_node));
  eng.spawn([](sim::Channel<int>& in, int total) -> Task<void> {
    for (int i = 0; i < total; ++i) (void)co_await in.recv();
  }(sink, kNodes * msgs_per_node));
  eng.run();
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = obs::harness_flags(Args(argc, argv));
  // No paper table here: the wall report is the result, so it always goes
  // to stderr, and to /dev/null when no --bench-wall-json file was asked for.
  if (opts.wall_json.empty()) opts.wall_json = "/dev/null";
  obs::Harness h("engine", opts);
  h.run("timer_churn/64x2000", [](obs::Scenario& s) {
    timer_churn(s.engine(), 64, 2000);
    s.metric("events", static_cast<double>(s.engine().events_dispatched()));
  });
  h.run("channel_pingpong/200k", [](obs::Scenario& s) {
    channel_pingpong(s.engine(), 200'000);
    s.metric("events", static_cast<double>(s.engine().events_dispatched()));
  });
  h.run("spawn_join_storm/4000x16", [](obs::Scenario& s) {
    spawn_join_storm(s.engine(), 4000, 16);
    s.metric("events", static_cast<double>(s.engine().events_dispatched()));
  });
  h.run("fanout_64/1000", [](obs::Scenario& s) {
    fanout_64(s.engine(), 1000);
    s.metric("events", static_cast<double>(s.engine().events_dispatched()));
  });
  return h.finish();
}
