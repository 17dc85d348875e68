#include "sim/shard.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <tuple>
#include <utility>

#include "common/check.hpp"
#include "sim/context.hpp"
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
/// windows) is touched only by the thread that claimed the partition for
/// the current command; the claim word and the done count order those
/// accesses against the coordinator's and against the next claimer's.
struct Partition {
  /// Where setup, every window run, every delivery and teardown of this
  /// partition run: its frame slab, hooks, record stream, hot sink and
  /// registry.
  Context ctx;
  std::unique_ptr<Engine> eng;
  std::unique_ptr<Shard> shard;
  std::function<void(Shard&, const ShardMsg&)> handler;

  // Inbound: this window's deliveries, sorted by (t, src, seq); the pump
  // strand drains it (advancing `next_due`) inside virtual time and
  // re-parks when none is due.  Both vectors keep their capacity from one
  // window to the next, so routing allocates nothing in steady state.
  std::vector<ShardMsg> due;
  std::size_t next_due = 0;
  std::coroutine_handle<> parked{};

  // Outbound: messages sent during the current window, in send order.
  std::vector<ShardMsg> outbox;

  std::vector<std::shared_ptr<void>> keep;
  std::uint64_t next_send_seq = 0;
  std::uint64_t cross_fp = kFnvOffset;
  std::uint64_t cross_delivered = 0;

  std::exception_ptr error;  // thrown by this partition during a command
};

/// The claim word: a command's epoch in the high half, the number of its
/// list entries nobody has claimed yet in the low half.  Claiming moves
/// (epoch, left) to (epoch, left - 1) by compare-and-swap and runs entry
/// size - left, so a claimer that lags a command behind fails its swap
/// instead of taking an entry of the next one.
constexpr std::uint64_t ticket(std::uint32_t epoch, std::uint32_t left) {
  return (std::uint64_t{epoch} << 32) | left;
}
constexpr std::uint32_t epoch_of(std::uint64_t t) {
  return static_cast<std::uint32_t>(t >> 32);
}
constexpr std::uint32_t left_of(std::uint64_t t) {
  return static_cast<std::uint32_t>(t);
}

/// A spawned thread's sleep flag, on its own cache line.  The thread sets
/// it before it sleeps and the caller clears it when it wakes the thread,
/// so a thread the host has woken but not yet run is not woken again (a
/// system call) by every later command.
struct alignas(64) SleepFlag {
  std::atomic<std::uint32_t> asleep{0};
};

struct ShardedImpl {
  enum class Cmd : std::uint8_t { kSetup, kWindow, kTeardown, kCustom };

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
    claims.reserve(spec.partitions);
    wall_ns.assign(spec.workers, 0);
    // The constructing thread is one of the workers: only 1..W-1 are spawned.
    sleepers = std::make_unique<SleepFlag[]>(spec.workers - 1);
    pool.reserve(spec.workers - 1);
    for (std::uint32_t t = 1; t < spec.workers; ++t) {
      pool.emplace_back([this, t] { worker_main(t); });
    }
  }

  ~ShardedImpl() {
    check_owner();
    command(Cmd::kTeardown);
    // A new epoch with nothing to claim: every spawned thread wakes, sees
    // `stop` and exits.
    stop.store(true);
    ticket_word.store(ticket(++epoch, 0));
    for (std::uint32_t t = 0; t + 1 < spec.workers; ++t) {
      sleepers[t].asleep.store(0);
      sleepers[t].asleep.notify_one();
    }
    for (auto& t : pool) t.join();
  }

  // --- coordinator side (the constructing thread) ---

  /// The coordinator's state (the command, its list, the pending routes)
  /// is unsynchronized and its commands run in the caller's program order,
  /// so every call must come from the constructing thread.
  void check_owner() const {
    DCS_CHECK_MSG(std::this_thread::get_id() == owner,
                  "ShardedEngine used off the thread that constructed it");
  }

  /// Runs `c` for every partition on `claims` (for a window, the active
  /// ones; for every other command, all of them).  Publishes the list as
  /// a new claim word, wakes up to one sleeping spawned thread per entry
  /// beyond the caller's own first, claims and runs entries until none is
  /// left, then waits only for the entries spawned threads claimed.  The
  /// word's store publishes `cmd`, `claims` and every coordinator write
  /// before it to each claimer; a spawned thread's done increment
  /// (release) publishes its partitions' writes back.  seq_cst on the
  /// word and the sleep flags: either a thread about to sleep sees the new
  /// word, or the caller sees its flag set.
  void command(Cmd c) {
    cmd = c;
    if (c != Cmd::kWindow) {
      claims.clear();
      for (std::uint32_t p = 0; p < spec.partitions; ++p) claims.push_back(p);
    }
    const auto n = static_cast<std::uint32_t>(claims.size());
    done.store(0, std::memory_order_relaxed);
    ticket_word.store(ticket(++epoch, n));
    std::uint32_t wake = std::min(n, spec.workers) - 1;
    for (std::uint32_t t = 0; wake > 0 && t + 1 < spec.workers; ++t) {
      if (sleepers[t].asleep.exchange(0) != 0) {
        sleepers[t].asleep.notify_one();
        --wake;
      }
    }
    const std::uint32_t elsewhere = n - run_claims(0, epoch);
    for (std::uint32_t d = done.load(std::memory_order_acquire); d != elsewhere;
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
    claims.clear();
    for (std::uint32_t dst = 0; dst < spec.partitions; ++dst) {
      auto& vec = pending[dst];
      Partition& part = *parts[dst];
      auto& due = part.due;
      DCS_CHECK(part.next_due == due.size());
      due.clear();
      part.next_due = 0;
      // The split need not be stable: the due list is sorted by a unique
      // key below, and the rest is only ever scanned or split again.
      auto ready = std::partition(
          vec.begin(), vec.end(), [&](const ShardMsg& m) { return m.t > h; });
      std::move(ready, vec.end(), std::back_inserter(due));
      vec.erase(ready, vec.end());
      std::sort(due.begin(), due.end(),
                [](const ShardMsg& x, const ShardMsg& y) {
                  return std::tie(x.t, x.src, x.seq) <
                         std::tie(y.t, y.src, y.seq);
                });
      if (!due.empty() || part.eng->next_event_time() <= h) {
        claims.push_back(dst);
      } else {
        part.eng->advance_idle(h);
      }
    }
    horizon = h;
    command(Cmd::kWindow);
    rethrow_error();
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

  void rethrow_error() {
    for (auto& p : parts) {
      if (p->error) {
        failed = true;
        std::rethrow_exception(std::exchange(p->error, nullptr));
      }
    }
  }

  // --- claimer side (the coordinator and the spawned threads) ---

  /// Spawned thread `t`: sleep until woken for a command it has not seen,
  /// claim and run entries of it until none is left, report how many it
  /// ran.
  void worker_main(std::uint32_t t) {
    std::atomic<std::uint32_t>& asleep = sleepers[t - 1].asleep;
    for (std::uint32_t seen = 0;;) {
      asleep.store(1);
      if (epoch_of(ticket_word.load()) == seen) asleep.wait(1);
      asleep.store(0);  // awake: the caller spends no wake on this thread
      seen = epoch_of(ticket_word.load());
      if (stop.load()) return;
      if (const std::uint32_t ran = run_claims(t, seen); ran > 0) {
        done.fetch_add(ran, std::memory_order_release);
        done.notify_one();
      }
    }
  }

  /// Claims and runs entries of command `e` on the calling thread, thread
  /// `t`, until the list is exhausted or the word has moved past `e`;
  /// returns how many it ran.  The host time from the first claim to the
  /// last entry's end is thread `t`'s window telemetry.
  std::uint32_t run_claims(std::uint32_t t, std::uint32_t e) {
    // dcs-lint: allow(R1, per-thread wall telemetry only feeds the
    // dcs-bench-wall-v1 report, which is outside the byte-stability
    // contract; no sim-visible state reads this clock)
    using Clock = std::chrono::steady_clock;
    std::uint32_t ran = 0;
    Clock::time_point start;
    std::uint64_t w = ticket_word.load(std::memory_order_acquire);
    while (epoch_of(w) == e && left_of(w) > 0) {
      if (!ticket_word.compare_exchange_weak(w, w - 1,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        continue;
      }
      if (ran++ == 0) start = Clock::now();
      run_partition(claims[claims.size() - left_of(w)]);
      w = ticket_word.load(std::memory_order_acquire);
    }
    if (ran > 0 && cmd == Cmd::kWindow) {
      wall_ns[t] += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count());
    }
    return ran;
  }

  /// Runs partition `p`'s part of `cmd` in p's context on the calling
  /// thread, starting from an empty strand context (sim/strand.hpp); an
  /// exception lands in the partition's `error`.
  void run_partition(std::uint32_t p) {
    Partition& part = *parts[p];
    ContextScope scope(part.ctx);
    const StrandCtx outer = std::exchange(strand_ctx(), StrandCtx{});
    try {
      switch (cmd) {
        case Cmd::kSetup:
          setup_partition(part, p);
          break;
        case Cmd::kWindow:
          run_window(part);
          break;
        case Cmd::kTeardown:
          // Destroys the workload, then the engine (which destroys the
          // parked pump frame): every frame dies in the slab that
          // allocated it.
          part.handler = nullptr;
          part.keep.clear();
          part.eng.reset();
          break;
        case Cmd::kCustom:
          (*custom)(p);
          break;
      }
    } catch (...) {
      part.error = std::current_exception();
    }
    strand_ctx() = outer;
  }

  /// The engine, the pump strand's frame and the factory's spawns are all
  /// born in the partition's slab.
  void setup_partition(Partition& part, std::uint32_t p) {
    part.eng = std::make_unique<Engine>();
    part.shard.reset(new Shard(*this, p));
    part.eng->spawn(pump(*part.eng, part));
    if (factory) (*factory)(*part.shard);
  }

  void run_window(Partition& part) {
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
    part.eng->run_until(horizon);
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
      if (part.next_due == part.due.size() ||
          part.due[part.next_due].t > eng.now()) {
        co_await ParkAwaiter{part};
        continue;
      }
      ShardMsg msg = std::move(part.due[part.next_due++]);
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

  const std::thread::id owner;  // the constructing thread
  Cmd cmd = Cmd::kSetup;
  std::vector<std::uint32_t> claims;  // the current command's partitions
  std::uint32_t epoch = 0;            // commands posted so far
  std::atomic<std::uint64_t> ticket_word{0};  // ticket(epoch, left)
  std::unique_ptr<SleepFlag[]> sleepers;      // spawned thread t's is [t - 1]
  std::atomic<std::uint32_t> done{0};  // entries spawned threads finished
  std::atomic<bool> stop{false};         // set once, before the last post
  Time horizon = 0;
  const std::function<void(Shard&)>* factory = nullptr;
  const std::function<void(std::uint32_t)>* custom = nullptr;
  std::vector<std::uint64_t> wall_ns;  // per thread: window partitions run

  Time now = 0;
  std::uint64_t windows = 0;
  bool setup_done = false;
  bool failed = false;

  // Last: the spawned threads use every member above.
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
  impl_->rethrow_error();
}

void ShardedEngine::run() { run_until(Engine::kForever); }

void ShardedEngine::run_until(Time t) {
  impl_->check_owner();
  DCS_CHECK_MSG(impl_->setup_done, "call setup() before running");
  DCS_CHECK_MSG(!impl_->failed, "a partition already failed");
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

void ShardedEngine::for_each_partition(
    const std::function<void(std::uint32_t)>& fn) {
  impl_->check_owner();
  impl_->custom = &fn;
  impl_->command(detail::ShardedImpl::Cmd::kCustom);
  impl_->custom = nullptr;
  impl_->rethrow_error();
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
