// Sharded parallel simulation: conservative PDES over independent engines.
//
// The single-threaded sim::Engine is the determinism anchor of this repo —
// every layer above it replays byte-identically for a given seed.  This
// runner scales that model across cores WITHOUT giving the anchor up:
//
//   partition    a fixed slice of the simulated world (its own Engine,
//                strands and timer heap).  The
//                partition count is part of the workload topology and never
//                changes with the machine: partition p always holds the same
//                nodes and always produces the same per-partition dispatch
//                stream.
//   worker       owns partitions p where p % workers == w, with one
//                execution context (sim/context.hpp: frame slab, hooks,
//                trace sinks, registry) in which all of them run.  A
//                worker's share of a command runs its partitions in
//                ascending index order, in its context, on whichever
//                thread claims the share.  Worker 0's context is the
//                caller's (the thread that constructed the ShardedEngine);
//                workers 1..W-1 each get a spawned thread, so a 1-worker
//                run creates no thread at all.  The worker count
//                (`--shards=N` in the benches) is pure execution policy:
//                any value produces the same merged fingerprint, so a
//                1-worker run is the oracle for an N-worker run.
//   window       one conservative-PDES round.  With lookahead L (the
//                minimum cross-partition message latency, i.e. the fabric
//                wire latency), the coordinator computes
//                    M = min over partitions of next_event_time()
//                        and over undelivered cross messages of their t
//                    H = M + L - 1          (the safe horizon)
//                No event in [M, H] can generate a cross message delivered
//                at or before H (its delivery is stamped >= M + L > H), so
//                every partition may run run_until(H) in parallel with no
//                further synchronization.  A partition with no due message
//                and no event at or before H is idle: the coordinator only
//                clamps its clock to H (what run_until(H) would do), and a
//                worker that owns no active partition has no share.  The
//                caller posts each busy worker's share on its claim word
//                (waking that worker's thread if it sleeps), runs worker
//                0's share, then claims and runs every share no spawned
//                worker has started, and waits on an atomic done count
//                only for the shares they claimed.  Collect outboxes;
//                repeat.
//
// Cross-partition messages travel through per-partition mailboxes.  A
// message sent at time tau is stamped t = tau + L (+ any extra delay) and
// carries (src, per-src seq).  Before a window, every message with t <= H
// is moved to its destination's due list, sorted by (t, src, seq) — a total
// order independent of worker count and of the real-time interleaving of
// the previous window.  A long-lived pump strand per partition delivers the
// due list inside virtual time: it delays to each message's t and invokes
// the partition's handler synchronously, folding (t, src, dst, seq, tag)
// into the partition's cross-delivery fingerprint.
//
// Determinism contract (docs/SCALING.md):
//   - same seed + same partition count => byte-identical merged fingerprint
//     for ANY worker count;
//   - changing the partition count legitimately changes the fingerprint
//     (per-partition seq streams differ) — it is a different topology.
//
// Per-worker-context contract (docs/SCALING.md): partition setup (the
// factory), every event dispatch, cross-message delivery AND teardown
// (workload + engine destruction) run in the owning worker's context, so
// every coroutine frame is allocated and freed in one slab, and the hooks,
// sinks and registry a partition sees never change.  Only the OS thread
// may change between commands; the claim word and the done count order one
// thread's use of a context before the next.  Worker 0's context is the
// CALLER's: its registry (worker 0's metrics land there immediately),
// audit/stall hooks, trace sinks and slab.  setup(), run()/run_until(),
// for_each_worker() and the destructor must all run on the constructing
// thread (checked).
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "sim/engine.hpp"

namespace dcs::sim {

/// One cross-partition message.  `t` is the absolute virtual delivery time
/// (stamped by Shard::send); (src, seq) make delivery order total.
struct ShardMsg {
  Time t = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t seq = 0;  // per-source send counter
  std::uint64_t tag = 0;  // application-defined discriminator
  std::uint64_t a = 0;    // two inline payload words (request ids, keys)
  std::uint64_t b = 0;
  std::vector<std::byte> payload;  // optional bulk payload
};

namespace detail {
struct Partition;
struct ShardedImpl;
}  // namespace detail

/// Per-partition handle passed to the setup factory and usable from strands
/// of that partition.  All methods must be called inside the owning
/// worker's share (which is automatic for code running inside the
/// partition's engine).
class Shard {
 public:
  /// This partition's engine: spawn strands, take delays, build workloads.
  Engine& engine();
  std::uint32_t index() const { return index_; }
  std::uint32_t partitions() const;
  /// The conservative lookahead: minimum virtual latency of send().
  Time lookahead() const;

  /// Installs the inbound-message handler.  It runs on the pump strand at
  /// exactly msg.t, in (t, src, seq) order; it must return synchronously
  /// but may spawn follow-up strands on engine().
  void set_handler(std::function<void(Shard&, const ShardMsg&)> handler);

  /// Sends to partition `dst`, delivered at now() + lookahead + extra.
  /// Callable only from inside a window (i.e. from strands).
  void send(std::uint32_t dst, std::uint64_t tag, std::uint64_t a = 0,
            std::uint64_t b = 0, std::vector<std::byte> payload = {},
            Time extra = 0);

  /// Parks `obj` until partition teardown (which runs in the owning
  /// worker's context).  Use for the workload graph built by the setup factory.
  void keep_alive(std::shared_ptr<void> obj);

  /// Events dispatched and cross messages delivered by this partition.
  std::uint64_t events_dispatched() const;
  std::uint64_t cross_delivered() const;

 private:
  friend struct detail::ShardedImpl;
  Shard(detail::ShardedImpl& impl, std::uint32_t index)
      : impl_(impl), index_(index) {}
  detail::ShardedImpl& impl_;
  std::uint32_t index_;
};

/// Coordinator for a sharded run.  Construct, setup(), run() (or repeated
/// run_until() for chopped runs), read the merged fingerprint, destroy —
/// all on one thread, which is also worker 0.
class ShardedEngine {
 public:
  struct Spec {
    /// Fixed logical partition count — part of the workload topology.
    std::uint32_t partitions = 1;
    /// Workers (the `--shards` knob), clamped to [1, partitions].  Worker 0
    /// runs in the constructing thread's context; workers - 1 threads are
    /// spawned, and each other worker gets a context of its own.
    std::uint32_t workers = 1;
    /// Conservative lookahead in virtual ns; must be >= 1.  Use the fabric
    /// wire latency (FabricParams::link_latency) for fabric workloads.
    Time lookahead = 1;
  };

  explicit ShardedEngine(Spec spec);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;
  /// Tears down every partition in its worker's context (workload first,
  /// then engine), joins the pool and destroys the worker contexts.
  /// Collect per-worker state you still need (trace registries:
  /// trace/shard_metrics.hpp) with for_each_worker() BEFORE destruction.
  /// Must run on the constructing thread.
  ~ShardedEngine();

  /// Runs `factory` once per partition IN ITS WORKER'S CONTEXT, ascending
  /// index order within each worker (worker 0's partitions on the calling
  /// thread).  Must be called exactly once, before run()/run_until().
  void setup(const std::function<void(Shard&)>& factory);

  /// Runs until every partition is drained and no cross message is in
  /// flight.  Rethrows the first worker exception (lowest worker index).
  /// run()/run_until() must be called on the constructing thread.
  void run();
  /// Runs through virtual time `t` inclusive; clocks clamp to `t`.
  /// Callable repeatedly (chopped runs resume exactly).
  void run_until(Time t);

  /// Virtual time reached (max horizon driven so far).
  Time now() const;

  /// FNV fold, in partition order, of each partition's engine dispatch
  /// fingerprint and cross-delivery fingerprint.  Identical for identical
  /// (seed, partitions) regardless of worker count — the `--shards=1` run
  /// is the oracle.
  std::uint64_t merged_fingerprint() const;

  /// Totals across partitions.
  std::uint64_t events_dispatched() const;
  std::uint64_t cross_messages() const;

  std::uint32_t partitions() const;
  std::uint32_t workers() const;

  /// Runs `fn(w)` once for every worker w, in w's context (`fn(0)` on the
  /// calling thread; the others on whichever thread claims them),
  /// barrier'd on both sides.  Use between runs (never concurrently with
  /// one) to collect per-worker state — e.g. each worker's
  /// trace::Registry::global().  Writes to distinct per-worker slots need
  /// no locking; the barriers order them against the caller.
  void for_each_worker(const std::function<void(std::uint32_t)>& fn);

  /// Per-partition events dispatched (telemetry; partition order).
  std::vector<std::uint64_t> partition_events() const;
  /// Per-worker wall-clock ns spent running that worker's window shares,
  /// whichever thread ran them (telemetry).
  std::vector<std::uint64_t> worker_wall_ns() const;
  /// PDES windows executed so far.
  std::uint64_t windows() const;

 private:
  std::unique_ptr<detail::ShardedImpl> impl_;
};

}  // namespace dcs::sim
