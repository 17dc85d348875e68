#include "sim/shard.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <thread>
#include <tuple>

#include "common/check.hpp"
#include "sim/slab.hpp"
#include "sim/task.hpp"

namespace dcs::sim {
namespace detail {

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
std::uint64_t fold(std::uint64_t fp, std::uint64_t v) {
  return (fp ^ v) * kFnvPrime;
}
// Saturating horizon: M + L - 1 without wrapping near kForever.
Time safe_horizon(Time m, Time lookahead) {
  const Time span = lookahead - 1;
  return m > Engine::kForever - span ? Engine::kForever : m + span;
}
}  // namespace

/// One logical partition.  Everything here except `outbox` (drained by the
/// coordinator between windows) and `due` (filled by the coordinator between
/// windows) is touched only by the owning worker; the epoch publish and the
/// done count order the coordinator's accesses against the worker's.
struct Partition {
  std::unique_ptr<Engine> eng;
  std::unique_ptr<Shard> shard;
  std::function<void(Shard&, const ShardMsg&)> handler;

  // Inbound: this window's deliveries, sorted by (t, src, seq); the pump
  // strand drains it inside virtual time and re-parks when empty.
  std::deque<ShardMsg> due;
  std::coroutine_handle<> parked{};

  // Outbound: messages sent during the current window, in send order.
  std::vector<ShardMsg> outbox;

  std::vector<std::shared_ptr<void>> keep;
  std::uint64_t next_send_seq = 0;
  std::uint64_t cross_fp = kFnvOffset;
  std::uint64_t cross_delivered = 0;

  // Set by the coordinator before each window: the partition has a due
  // delivery or an event at or before the horizon.  Idle partitions are
  // not run; the coordinator clamps their clocks instead.
  bool active = false;
};

/// A spawned worker's wake word, on its own cache line: the coordinator
/// bumps it to hand that worker a command.
struct alignas(64) WakeSlot {
  std::atomic<std::uint64_t> epoch{0};
};

struct ShardedImpl {
  enum class Cmd : std::uint8_t { kSetup, kWindow, kTeardown, kCustom, kExit };

  explicit ShardedImpl(ShardedEngine::Spec s)
      : spec(s), owner(std::this_thread::get_id()) {
    DCS_CHECK_MSG(spec.partitions >= 1, "need at least one partition");
    DCS_CHECK_MSG(spec.lookahead >= 1, "lookahead must be >= 1 ns");
    spec.workers = std::clamp(spec.workers, 1u, spec.partitions);
    parts.reserve(spec.partitions);
    for (std::uint32_t p = 0; p < spec.partitions; ++p) {
      parts.push_back(std::make_unique<Partition>());
    }
    pending.resize(spec.partitions);
    errors.resize(spec.workers);
    wall_ns.assign(spec.workers, 0);
    busy.assign(spec.workers, 0);
    wake = std::make_unique<WakeSlot[]>(spec.workers);
    // Worker 0 is the constructing thread itself: only 1..W-1 are spawned.
    pool.reserve(spec.workers - 1);
    for (std::uint32_t w = 1; w < spec.workers; ++w) {
      pool.emplace_back([this, w] { worker_main(w); });
    }
  }

  ~ShardedImpl() {
    check_owner();
    command(Cmd::kTeardown);
    command(Cmd::kExit);
    for (auto& t : pool) t.join();
  }

  // --- coordinator side (the constructing thread, which is worker 0) ---

  /// Worker 0's partitions live in the constructing thread's thread_locals
  /// (frame slab, strand context, hooks, registry), so every call that
  /// runs them must come from that thread.
  void check_owner() const {
    DCS_CHECK_MSG(std::this_thread::get_id() == owner,
                  "ShardedEngine used off the thread that constructed it "
                  "(that thread is worker 0)");
  }

  /// Publishes `c` to workers 1..W-1 (for a window, only those that own an
  /// active partition), runs worker 0's share inline, then blocks until the
  /// woken workers report done.  A wake-word increment (release) publishes
  /// `cmd`, `awake` and every coordinator write before it; each worker's
  /// done increment (release) publishes its partitions' writes back.
  void command(Cmd c) {
    cmd = c;
    if (c != Cmd::kWindow) std::fill(busy.begin(), busy.end(), 1);
    awake = static_cast<std::uint32_t>(
        std::count(busy.begin() + 1, busy.end(), 1));
    done.store(0, std::memory_order_relaxed);
    for (std::uint32_t w = 1; w < spec.workers; ++w) {
      if (!busy[w]) continue;
      wake[w].epoch.fetch_add(1, std::memory_order_release);
      wake[w].epoch.notify_one();
    }
    run_command(0, c);
    for (std::uint32_t d = done.load(std::memory_order_acquire); d != awake;
         d = done.load(std::memory_order_acquire)) {
      done.wait(d, std::memory_order_acquire);
    }
  }

  /// Earliest pending dispatch anywhere: partition events and undelivered
  /// cross messages.  kForever means fully drained.
  Time min_time() const {
    Time m = Engine::kForever;
    for (const auto& p : parts) m = std::min(m, p->eng->next_event_time());
    for (const auto& vec : pending) {
      for (const auto& msg : vec) m = std::min(m, msg.t);
    }
    return m;
  }

  /// One conservative-PDES round through horizon `h`.
  void window(Time h) {
    // Route every message due inside this window to its destination, in
    // (t, src, seq) order.  `due` is empty here: the previous window's
    // horizon covered everything then due, so the pump drained it.  A
    // partition left with nothing to do through `h` only needs the clock
    // clamp its run_until(h) would apply; nothing another partition does
    // inside the window can reach it before the next one.
    std::fill(busy.begin(), busy.end(), 0);
    for (std::uint32_t dst = 0; dst < spec.partitions; ++dst) {
      auto& vec = pending[dst];
      auto& due = parts[dst]->due;
      DCS_CHECK(due.empty());
      auto ready = std::stable_partition(
          vec.begin(), vec.end(), [&](const ShardMsg& m) { return m.t > h; });
      std::move(ready, vec.end(), std::back_inserter(due));
      vec.erase(ready, vec.end());
      std::sort(due.begin(), due.end(),
                [](const ShardMsg& x, const ShardMsg& y) {
                  return std::tie(x.t, x.src, x.seq) <
                         std::tie(y.t, y.src, y.seq);
                });
      Partition& part = *parts[dst];
      part.active = !due.empty() || part.eng->next_event_time() <= h;
      if (part.active) {
        busy[dst % spec.workers] = 1;
      } else {
        part.eng->advance_idle(h);
      }
    }
    horizon = h;
    command(Cmd::kWindow);
    rethrow_worker_error();
    // Collect this window's sends in partition order: the pending lists are
    // rebuilt identically no matter how many workers ran the window.
    for (auto& p : parts) {
      for (auto& msg : p->outbox) {
        DCS_CHECK_MSG(msg.dst < spec.partitions, "cross-shard dst out of range");
        pending[msg.dst].push_back(std::move(msg));
      }
      p->outbox.clear();
    }
    now = std::max(now, h);
    ++windows;
  }

  void rethrow_worker_error() {
    for (auto& e : errors) {
      if (e) {
        failed = true;
        std::exception_ptr err = e;
        e = nullptr;
        std::rethrow_exception(err);
      }
    }
  }

  // --- worker side ---

  /// Workers 1..W-1: park until the wake word moves, run the published
  /// command, report done.  The coordinator never bumps a wake word again
  /// before every woken worker reported, so no command is ever skipped.
  void worker_main(std::uint32_t w) {
    std::atomic<std::uint64_t>& word = wake[w].epoch;
    for (std::uint64_t seen = 0;;) {
      word.wait(seen, std::memory_order_acquire);
      seen = word.load(std::memory_order_acquire);
      // Read before reporting done: the coordinator rewrites both for the
      // next command as soon as the last woken worker has reported.
      const Cmd c = cmd;
      const std::uint32_t woken = awake;
      run_command(w, c);
      if (done.fetch_add(1, std::memory_order_release) + 1 == woken) {
        done.notify_one();
      }
      if (c == Cmd::kExit) return;
    }
  }

  /// Worker `w`'s share of `c`; an exception lands in errors[w].
  void run_command(std::uint32_t w, Cmd c) {
    try {
      switch (c) {
        case Cmd::kSetup:
          for (std::uint32_t p = w; p < spec.partitions; p += spec.workers) {
            setup_partition(p);
          }
          break;
        case Cmd::kWindow: {
          // dcs-lint: allow(R1, per-worker wall telemetry only feeds the
          // dcs-bench-wall-v1 report, which is outside the byte-stability
          // contract; no sim-visible state reads this clock)
          const auto start = std::chrono::steady_clock::now();
          for (std::uint32_t p = w; p < spec.partitions; p += spec.workers) {
            if (parts[p]->active) run_partition(p, horizon);
          }
          // dcs-lint: allow(R1, same wall-telemetry measurement as above)
          const auto end = std::chrono::steady_clock::now();
          wall_ns[w] += static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                   start)
                  .count());
          break;
        }
        case Cmd::kTeardown:
          for (std::uint32_t p = w; p < spec.partitions; p += spec.workers) {
            teardown_partition(p);
          }
          break;
        case Cmd::kCustom:
          (*custom)(w);
          break;
        case Cmd::kExit:
          break;
      }
    } catch (...) {
      errors[w] = std::current_exception();
    }
  }

  /// Runs on the owning worker: the engine, the pump strand's frame and the
  /// factory's spawns are all born on this thread.
  void setup_partition(std::uint32_t p) {
    auto& part = *parts[p];
    part.eng = std::make_unique<Engine>();
    part.shard.reset(new Shard(*this, p));
    part.eng->spawn(pump(*part.eng, part));
    if (factory) (*factory)(*part.shard);
  }

  void run_partition(std::uint32_t p, Time h) {
    auto& part = *parts[p];
    if (!part.due.empty()) {
      // Schedule one wake per distinct delivery time, all up front.  The
      // pump handles every message at one time then re-parks before the
      // next wake fires, so all wakes may target the same (parked) frame.
      // schedule_cross keeps the engine's seq counter untouched: where the
      // window boundaries fall must not leak into the fingerprint.
      DCS_CHECK(part.parked);
      Time prev = 0;
      for (const auto& msg : part.due) {
        if (msg.t != prev) part.eng->schedule_cross(part.parked, msg.t);
        prev = msg.t;
      }
    }
    part.eng->run_until(h);
  }

  /// Runs on the owning worker: destroys the workload, then the engine
  /// (which destroys the parked pump frame) — every frame dies on the
  /// thread whose slab allocated it.
  void teardown_partition(std::uint32_t p) {
    auto& part = *parts[p];
    part.handler = nullptr;
    part.keep.clear();
    part.eng.reset();
  }

  /// Long-lived delivery strand: parks until a cross wake fires, then
  /// delivers every message due at exactly that virtual time and re-parks.
  /// It never chains to the next delivery time itself (a delay would draw
  /// from the seq counter at a window-dependent point); run_partition
  /// pre-schedules one counter-neutral wake per distinct time instead.
  /// Delivery order is the sorted (t, src, seq) order — total, and
  /// independent of worker count.
  static Task<void> pump(Engine& eng, Partition& part) {
    struct ParkAwaiter {
      Partition& part;
      std::uint64_t audit_token = 0;
      StrandCtx saved{};
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        part.parked = h;
        saved = strand_ctx();
        if (auto* hook = audit_hook()) audit_token = hook->suspend_strand();
      }
      void await_resume() {
        part.parked = {};
        strand_ctx() = saved;
        if (auto* hook = audit_hook()) hook->resume_strand(audit_token);
      }
    };
    for (;;) {
      if (part.due.empty() || part.due.front().t > eng.now()) {
        co_await ParkAwaiter{part};
        continue;
      }
      ShardMsg msg = std::move(part.due.front());
      part.due.pop_front();
      part.cross_fp = fold(part.cross_fp, msg.t);
      part.cross_fp = fold(part.cross_fp, (std::uint64_t{msg.src} << 32) |
                                              std::uint64_t{msg.dst});
      part.cross_fp = fold(part.cross_fp, msg.seq);
      part.cross_fp = fold(part.cross_fp, msg.tag);
      ++part.cross_delivered;
      if (auto* hook = audit_hook()) hook->on_cross_shard(msg.src, msg.seq);
      if (part.handler) part.handler(*part.shard, msg);
    }
  }

  ShardedEngine::Spec spec;
  std::vector<std::unique_ptr<Partition>> parts;
  std::vector<std::vector<ShardMsg>> pending;  // per destination

  const std::thread::id owner;  // the constructing thread == worker 0
  Cmd cmd = Cmd::kExit;
  std::vector<char> busy;                // per worker: owns an active partition
  std::unique_ptr<WakeSlot[]> wake;      // per worker; slot 0 (caller) unused
  std::uint32_t awake = 0;               // workers woken for `cmd`
  std::atomic<std::uint32_t> done{0};    // woken workers finished with it
  Time horizon = 0;
  const std::function<void(Shard&)>* factory = nullptr;
  const std::function<void(std::uint32_t)>* custom = nullptr;
  std::vector<std::exception_ptr> errors;   // per worker
  std::vector<std::uint64_t> wall_ns;       // per worker

  Time now = 0;
  std::uint64_t windows = 0;
  bool setup_done = false;
  bool failed = false;

  // Last: the spawned workers use every member above.
  std::vector<std::thread> pool;
};

}  // namespace detail

// --- Shard ---

Engine& Shard::engine() { return *impl_.parts[index_]->eng; }

std::uint32_t Shard::partitions() const { return impl_.spec.partitions; }

Time Shard::lookahead() const { return impl_.spec.lookahead; }

void Shard::set_handler(std::function<void(Shard&, const ShardMsg&)> handler) {
  impl_.parts[index_]->handler = std::move(handler);
}

void Shard::send(std::uint32_t dst, std::uint64_t tag, std::uint64_t a,
                 std::uint64_t b, std::vector<std::byte> payload, Time extra) {
  auto& part = *impl_.parts[index_];
  ShardMsg msg;
  msg.t = part.eng->now() + impl_.spec.lookahead + extra;
  msg.src = index_;
  msg.dst = dst;
  msg.seq = part.next_send_seq++;
  msg.tag = tag;
  msg.a = a;
  msg.b = b;
  msg.payload = std::move(payload);
  part.outbox.push_back(std::move(msg));
}

void Shard::keep_alive(std::shared_ptr<void> obj) {
  impl_.parts[index_]->keep.push_back(std::move(obj));
}

std::uint64_t Shard::events_dispatched() const {
  return impl_.parts[index_]->eng->events_dispatched();
}

std::uint64_t Shard::cross_delivered() const {
  return impl_.parts[index_]->cross_delivered;
}

// --- ShardedEngine ---

ShardedEngine::ShardedEngine(Spec spec)
    : impl_(std::make_unique<detail::ShardedImpl>(spec)) {}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::setup(const std::function<void(Shard&)>& factory) {
  impl_->check_owner();
  DCS_CHECK_MSG(!impl_->setup_done, "setup() may only be called once");
  impl_->setup_done = true;
  impl_->factory = &factory;
  impl_->command(detail::ShardedImpl::Cmd::kSetup);
  impl_->factory = nullptr;
  impl_->rethrow_worker_error();
}

void ShardedEngine::run() { run_until(Engine::kForever); }

void ShardedEngine::run_until(Time t) {
  impl_->check_owner();
  DCS_CHECK_MSG(impl_->setup_done, "call setup() before running");
  DCS_CHECK_MSG(!impl_->failed, "a worker already failed");
  for (;;) {
    const Time m = impl_->min_time();
    if (m == Engine::kForever || m > t) {
      // Nothing left at or before `t`: clamp every clock to `t` so a later
      // chopped run resumes from exactly here (no-op for unbounded runs).
      if (t != Engine::kForever && impl_->now < t) impl_->window(t);
      break;
    }
    impl_->window(std::min(detail::safe_horizon(m, impl_->spec.lookahead), t));
  }
}

Time ShardedEngine::now() const { return impl_->now; }

std::uint64_t ShardedEngine::merged_fingerprint() const {
  std::uint64_t fp = detail::kFnvOffset;
  for (const auto& p : impl_->parts) {
    fp = detail::fold(fp, p->eng->dispatch_fingerprint());
    fp = detail::fold(fp, p->cross_fp);
  }
  return fp;
}

std::uint64_t ShardedEngine::events_dispatched() const {
  std::uint64_t total = 0;
  for (const auto& p : impl_->parts) total += p->eng->events_dispatched();
  return total;
}

std::uint64_t ShardedEngine::cross_messages() const {
  std::uint64_t total = 0;
  for (const auto& p : impl_->parts) total += p->cross_delivered;
  return total;
}

std::uint32_t ShardedEngine::partitions() const {
  return impl_->spec.partitions;
}

std::uint32_t ShardedEngine::workers() const { return impl_->spec.workers; }

void ShardedEngine::for_each_worker(
    const std::function<void(std::uint32_t)>& fn) {
  impl_->check_owner();
  impl_->custom = &fn;
  impl_->command(detail::ShardedImpl::Cmd::kCustom);
  impl_->custom = nullptr;
  impl_->rethrow_worker_error();
}

std::vector<std::uint64_t> ShardedEngine::partition_events() const {
  std::vector<std::uint64_t> out;
  out.reserve(impl_->parts.size());
  for (const auto& p : impl_->parts) out.push_back(p->eng->events_dispatched());
  return out;
}

std::vector<std::uint64_t> ShardedEngine::worker_wall_ns() const {
  return impl_->wall_ns;
}

std::uint64_t ShardedEngine::windows() const { return impl_->windows; }

}  // namespace dcs::sim
