// Determinism oracle for the sharded runner (sim/shard.hpp): the merged
// dispatch fingerprint of a fixed partition grid must be byte-identical for
// EVERY worker count — the 1-worker run is the sequential oracle for the
// N-worker run — and must not depend on where a chopped run is cut.  Also
// pins the cross-shard merge rule itself: (t, src, seq) delivery order and
// lookahead-stamped delivery times.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "fabric/fabric.hpp"
#include "sim/shard.hpp"
#include "trace/shard_metrics.hpp"
#include "trace/trace.hpp"

namespace dcs {
namespace {

using sim::Shard;
using sim::ShardedEngine;
using sim::ShardMsg;

constexpr sim::Time kLookahead = 1300;  // the fabric wire latency

struct RunResult {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  std::uint64_t cross = 0;
  sim::Time end = 0;
  bool operator==(const RunResult&) const = default;
};

/// A deliberately chatty workload: every partition runs `senders` strands
/// that scatter tagged messages across the grid on irregular (seeded)
/// schedules; every delivery below `hops` forwards once more, so traffic
/// crosses partitions in chains, not just pairs.
ShardedEngine::Spec spec_for(std::uint32_t partitions, std::uint32_t workers) {
  return {.partitions = partitions, .workers = workers, .lookahead = kLookahead};
}

/// Ten sends to partition 0 at identical virtual times on every source.
sim::Task<void> bombard(Shard& shard) {
  for (int i = 0; i < 10; ++i) {
    shard.send(0, /*tag=*/0, /*a=*/i);
    co_await shard.engine().delay(500);
  }
}

sim::Task<void> one_ping(Shard& shard) {
  shard.send(1 - shard.index(), /*tag=*/0);
  co_return;
}

sim::Task<void> boom_after_delay(Shard& shard) {
  co_await shard.engine().delay(10);
  throw std::runtime_error("shard boom");
}

sim::Task<void> boom_named(Shard& shard) {
  co_await shard.engine().delay(10);
  throw std::runtime_error("boom " + std::to_string(shard.index()));
}

/// Records the thread that destroys it: parked with Shard::keep_alive, it
/// dies in partition teardown.
struct RecordTidOnDestroy {
  std::thread::id* out;
  ~RecordTidOnDestroy() { *out = std::this_thread::get_id(); }
};

/// OS threads alive in this process right now.
std::size_t live_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Eight spaced sends that fan around the ring with a 4-hop forwarding tag.
sim::Task<void> ring_traffic(Shard& shard) {
  for (int i = 0; i < 8; ++i) {
    co_await shard.engine().delay(microseconds(10));
    shard.send((shard.index() + 1) % shard.partitions(), /*tag=*/4, i,
               shard.index());
  }
}

sim::Task<void> count_once(Shard& shard) {
  trace::Registry::global().counter("shard.test.events").add(1 + shard.index());
  co_return;
}

sim::Task<void> scatter(Shard& shard, std::uint32_t strand, std::uint64_t seed) {
  auto& eng = shard.engine();
  Rng rng(seed ^ (std::uint64_t{shard.index()} << 32) ^ strand);
  for (int i = 0; i < 20; ++i) {
    co_await eng.delay(rng.uniform(100, 5000));
    const auto dst = static_cast<std::uint32_t>(
        rng.uniform(0, shard.partitions() - 1));
    shard.send(dst, /*tag=*/3, /*a=*/strand, /*b=*/i);
  }
}

void install_forwarding(Shard& shard, std::uint64_t seed) {
  shard.set_handler([seed](Shard& s, const ShardMsg& msg) {
    if (msg.tag >= 1) {
      // Forward the hop chain: deterministic next destination derived from
      // the message coordinates, not from any ambient state.
      const auto next = static_cast<std::uint32_t>(
          (msg.a + msg.src + msg.seq + seed) % s.partitions());
      s.send(next, msg.tag - 1, msg.a, msg.b);
    }
  });
  for (std::uint32_t strand = 0; strand < 3; ++strand) {
    shard.engine().spawn(scatter(shard, strand, seed));
  }
}

RunResult run_grid(std::uint32_t partitions, std::uint32_t workers,
                   std::uint64_t seed, int chunks = 1) {
  ShardedEngine sharded(spec_for(partitions, workers));
  sharded.setup([&](Shard& shard) { install_forwarding(shard, seed); });
  if (chunks == 1) {
    sharded.run();
  } else {
    // Chop the run at arbitrary virtual times, then drain.  The cut points
    // must not shift the dispatch stream.
    for (int c = 1; c <= chunks; ++c) {
      sharded.run_until(static_cast<sim::Time>(c) * 7777);
    }
    sharded.run();
  }
  return {.fingerprint = sharded.merged_fingerprint(),
          .events = sharded.events_dispatched(),
          .cross = sharded.cross_messages(),
          .end = sharded.now()};
}

TEST(ShardMergeTest, WorkerCountNeverChangesTheFingerprint) {
  const RunResult oracle = run_grid(8, 1, /*seed=*/42);
  EXPECT_GT(oracle.cross, 0u);
  for (std::uint32_t workers : {2u, 3u, 4u, 8u}) {
    EXPECT_EQ(run_grid(8, workers, 42), oracle) << "workers=" << workers;
  }
}

TEST(ShardMergeTest, EveryWorkerCountAndCutMatchTheOneWorkerOracle) {
  // Worker 0 is the caller at every count; 16 workers spawn 15 threads.
  const RunResult oracle = run_grid(16, 1, /*seed=*/5);
  EXPECT_GT(oracle.cross, 0u);
  for (std::uint32_t workers : {1u, 2u, 3u, 4u, 8u, 16u}) {
    EXPECT_EQ(run_grid(16, workers, 5), oracle) << "workers=" << workers;
    const RunResult chopped = run_grid(16, workers, 5, /*chunks=*/5);
    EXPECT_EQ(chopped.fingerprint, oracle.fingerprint) << "workers=" << workers;
    EXPECT_EQ(chopped.events, oracle.events) << "workers=" << workers;
    EXPECT_EQ(chopped.cross, oracle.cross) << "workers=" << workers;
    EXPECT_EQ(chopped.end, std::max<sim::Time>(oracle.end, 5 * 7777));
  }
}

TEST(ShardMergeTest, ChoppedRunsResumeExactly) {
  const RunResult oracle = run_grid(4, 2, /*seed=*/7);
  EXPECT_EQ(run_grid(4, 2, 7, /*chunks=*/5), oracle);
  // More chunks than the workload outlives: the dispatch stream still
  // matches; only the clock differs (run_until clamps virtual time to the
  // last cut, exactly like Engine::run_until does).
  const RunResult nine = run_grid(4, 1, 7, /*chunks=*/9);
  EXPECT_EQ(nine.fingerprint, oracle.fingerprint);
  EXPECT_EQ(nine.events, oracle.events);
  EXPECT_EQ(nine.cross, oracle.cross);
  EXPECT_EQ(nine.end, std::max<sim::Time>(oracle.end, 9 * 7777));
}

/// Sends to the partition two away every `gap` ns, `sends` times.
sim::Task<void> paced_sender(Shard& shard, sim::Time gap, int sends) {
  for (int i = 0; i < sends; ++i) {
    co_await shard.engine().delay(gap);
    shard.send((shard.index() + 2) % shard.partitions(), /*tag=*/0, i);
  }
}

TEST(ShardMergeTest, IdlePartitionsKeepTheFingerprintAndTheClock) {
  // Partitions 0 and 2 exchange a message every 300 ns; 1 and 3 only every
  // 40 us, so most windows find nothing due on them, and at 2 and 4
  // workers worker 1 owns only those.  Idle partitions are clamped, not
  // run: every clock must still land on each cut.
  auto run = [](std::uint32_t workers, bool chopped) {
    ShardedEngine sharded(spec_for(4, workers));
    std::vector<Shard*> shards(4);
    sharded.setup([&shards](Shard& shard) {
      shards[shard.index()] = &shard;
      const bool busy = shard.index() % 2 == 0;
      shard.engine().spawn(paced_sender(
          shard, busy ? sim::Time{300} : microseconds(40), busy ? 400 : 3));
    });
    if (chopped) {
      for (const sim::Time cut : {5'000, 17'777, 40'001, 90'000, 150'000}) {
        sharded.run_until(cut);
        EXPECT_EQ(sharded.now(), cut) << "workers=" << workers;
        for (Shard* shard : shards) {
          EXPECT_EQ(shard->engine().now(), cut)
              << "workers=" << workers << " partition=" << shard->index();
        }
      }
    }
    sharded.run();
    return RunResult{.fingerprint = sharded.merged_fingerprint(),
                     .events = sharded.events_dispatched(),
                     .cross = sharded.cross_messages(),
                     .end = 0};
  };
  const RunResult oracle = run(1, false);
  EXPECT_EQ(oracle.cross, 2u * 400u + 2u * 3u);
  for (std::uint32_t workers : {1u, 2u, 4u}) {
    EXPECT_EQ(run(workers, false), oracle) << "workers=" << workers;
    EXPECT_EQ(run(workers, true), oracle) << "workers=" << workers;
  }
}

TEST(ShardMergeTest, DifferentSeedsDiffer) {
  EXPECT_NE(run_grid(4, 2, 1).fingerprint, run_grid(4, 2, 2).fingerprint);
}

TEST(ShardMergeTest, DeliveryFollowsMergeOrder) {
  // All other partitions bombard partition 0; partition 0 records the
  // delivery sequence.  It must be sorted by (t, src, seq) — the total
  // merge order — and every delivery must be lookahead-late.
  std::vector<std::tuple<sim::Time, std::uint32_t, std::uint64_t>> seen;
  {
    ShardedEngine sharded(spec_for(4, 4));
    sharded.setup([&](Shard& shard) {
      if (shard.index() == 0) {
        shard.set_handler([&seen](Shard& s, const ShardMsg& msg) {
          EXPECT_EQ(s.engine().now(), msg.t);
          seen.emplace_back(msg.t, msg.src, msg.seq);
        });
        return;
      }
      // Same virtual send times on every source partition, so partition 0
      // sees same-time deliveries from distinct sources.
      shard.engine().spawn(bombard(shard));
    });
    sharded.run();
  }
  ASSERT_EQ(seen.size(), 30u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  for (const auto& [t, src, seq] : seen) {
    EXPECT_GE(t, kLookahead);  // nothing arrives earlier than the lookahead
  }
}

// A coroutine may not be a capturing lambda (the closure dies before the
// frame resumes), so the one-shot sender is a free function.
sim::Task<void> delayed_send(Shard& shard, sim::Time* sent_at) {
  co_await shard.engine().delay(250);
  *sent_at = shard.engine().now();
  shard.send(1, /*tag=*/0);
}

TEST(ShardMergeTest, SendStampsLookahead) {
  sim::Time delivered_at = 0;
  sim::Time sent_at = 0;
  {
    ShardedEngine sharded(spec_for(2, 1));
    sharded.setup([&](Shard& shard) {
      if (shard.index() == 1) {
        shard.set_handler([&](Shard& s, const ShardMsg&) {
          delivered_at = s.engine().now();
        });
        return;
      }
      shard.engine().spawn(delayed_send(shard, &sent_at));
    });
    sharded.run();
  }
  EXPECT_EQ(sent_at, 250);
  EXPECT_EQ(delivered_at, sent_at + kLookahead);
}

TEST(ShardMergeTest, PartitionsRunOnTheirOwnWorkerThreads) {
  // The affinity contract: setup, delivery and strand execution for one
  // partition all happen on one OS thread.  Worker 0 is the calling thread,
  // so partition 0 runs here; with workers == partitions partition 1 runs
  // on the one spawned worker.
  std::vector<std::thread::id> setup_tid(2), handler_tid(2);
  {
    ShardedEngine sharded(spec_for(2, 2));
    sharded.setup([&](Shard& shard) {
      setup_tid[shard.index()] = std::this_thread::get_id();
      shard.set_handler([&handler_tid](Shard& s, const ShardMsg&) {
        handler_tid[s.index()] = std::this_thread::get_id();
      });
      shard.engine().spawn(one_ping(shard));
    });
    sharded.run();
  }
  EXPECT_EQ(setup_tid[0], handler_tid[0]);
  EXPECT_EQ(setup_tid[1], handler_tid[1]);
  EXPECT_EQ(setup_tid[0], std::this_thread::get_id());
  EXPECT_NE(setup_tid[1], std::this_thread::get_id());
}

TEST(ShardMergeTest, OneWorkerRunsEverythingOnTheCallerAndSpawnsNoThread) {
  const auto caller = std::this_thread::get_id();
  const std::size_t threads_before = live_threads();
  std::vector<std::thread::id> setup_tid(2), handler_tid(2), teardown_tid(2);
  std::thread::id for_each_tid;
  std::size_t threads_in_run = 0;
  {
    ShardedEngine sharded(spec_for(2, 1));
    sharded.setup([&](Shard& shard) {
      setup_tid[shard.index()] = std::this_thread::get_id();
      shard.set_handler([&](Shard& s, const ShardMsg&) {
        handler_tid[s.index()] = std::this_thread::get_id();
        threads_in_run = live_threads();
      });
      shard.keep_alive(
          std::make_shared<RecordTidOnDestroy>(&teardown_tid[shard.index()]));
      shard.engine().spawn(one_ping(shard));
    });
    sharded.run();
    sharded.for_each_worker(
        [&](std::uint32_t) { for_each_tid = std::this_thread::get_id(); });
  }
  for (std::uint32_t p = 0; p < 2; ++p) {
    EXPECT_EQ(setup_tid[p], caller) << "partition " << p;
    EXPECT_EQ(handler_tid[p], caller) << "partition " << p;
    EXPECT_EQ(teardown_tid[p], caller) << "partition " << p;
  }
  EXPECT_EQ(for_each_tid, caller);
  EXPECT_EQ(threads_in_run, threads_before);
}

TEST(ShardMergeTest, FabricWorkloadsShardDeterministically) {
  // Each partition hosts a real two-node Fabric cluster; cross-partition
  // messages trigger remote CPU work.  Exercises the full stack (fabric
  // nodes, multi-core run queues, trace spans) under every worker count.
  auto run = [](std::uint32_t workers) {
    ShardedEngine sharded(spec_for(4, workers));
    sharded.setup([](Shard& shard) {
      auto fab = std::make_shared<fabric::Fabric>(
          shard.engine(), fabric::FabricParams{},
          fabric::ClusterSpec{.num_nodes = 2, .cores_per_node = 2});
      shard.set_handler([fab](Shard& s, const ShardMsg& msg) {
        s.engine().spawn(
            fab->node(msg.a % 2).execute(microseconds(3 + msg.b % 5)));
        if (msg.tag > 0) {
          s.send((msg.src + 1) % s.partitions(), msg.tag - 1, msg.a + 1,
                 msg.b + 1);
        }
      });
      shard.engine().spawn(ring_traffic(shard));
      shard.keep_alive(fab);
    });
    sharded.run();
    return std::pair{sharded.merged_fingerprint(),
                     sharded.events_dispatched()};
  };
  const auto oracle = run(1);
  EXPECT_EQ(run(2), oracle);
  EXPECT_EQ(run(4), oracle);
}

TEST(ShardMergeTest, RegistryCollectionGathersAllWorkers) {
  trace::Registry::global().reset();
  ShardedEngine sharded(spec_for(4, 2));
  sharded.setup([](Shard& shard) {
    shard.engine().spawn(count_once(shard));
  });
  sharded.run();
  // Worker 0 is this thread: partitions 0 and 2 already counted here.  The
  // spawned worker's partitions 1 and 3 are invisible until collected.
  const auto* before = trace::Registry::global().find_counter("shard.test.events");
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->value, 1u + 3u);
  trace::collect_shard_registries(sharded);
  const auto* after = trace::Registry::global().find_counter("shard.test.events");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->value, 1u + 2u + 3u + 4u);
  // Collecting again moves nothing twice.
  trace::collect_shard_registries(sharded);
  const auto* again = trace::Registry::global().find_counter("shard.test.events");
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->value, 1u + 2u + 3u + 4u);
  trace::Registry::global().reset();
}

TEST(ShardMergeTest, WorkerExceptionsPropagate) {
  ShardedEngine sharded(spec_for(2, 2));
  sharded.setup([](Shard& shard) {
    if (shard.index() == 1) {
      shard.engine().spawn(boom_after_delay(shard));
    }
  });
  EXPECT_THROW(sharded.run(), std::runtime_error);
}

TEST(ShardMergeTest, LowestPartitionExceptionWinsTheWindow) {
  // Partitions 0 and 1 throw at the same virtual time, inside one window;
  // with 2+ workers they throw on different threads.  run() rethrows the
  // lowest worker index's error, i.e. partition 0's.
  for (std::uint32_t workers : {1u, 2u, 4u}) {
    ShardedEngine sharded(spec_for(4, workers));
    sharded.setup([](Shard& shard) {
      if (shard.index() < 2) shard.engine().spawn(boom_named(shard));
    });
    try {
      sharded.run();
      ADD_FAILURE() << "no exception at workers=" << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 0") << "workers=" << workers;
    }
  }
}

TEST(ShardMergeDeathTest, RunOffTheConstructingThreadAborts) {
  // Worker 0's frames live in the constructing thread's slab, so driving
  // the engine from any other thread is a contract violation.
  EXPECT_DEATH(
      {
        ShardedEngine sharded(spec_for(2, 2));
        sharded.setup([](Shard&) {});
        std::thread other([&sharded] { sharded.run(); });
        other.join();
      },
      "off the thread that constructed it");
}

TEST(ShardMergeTest, TelemetryCoversEveryPartitionAndWorker) {
  ShardedEngine sharded(spec_for(6, 3));
  sharded.setup([](Shard& shard) { install_forwarding(shard, 11); });
  sharded.run();
  const auto events = sharded.partition_events();
  ASSERT_EQ(events.size(), 6u);
  for (const auto e : events) EXPECT_GT(e, 0u);
  EXPECT_EQ(sharded.worker_wall_ns().size(), 3u);
  EXPECT_GT(sharded.windows(), 0u);
}

}  // namespace
}  // namespace dcs
