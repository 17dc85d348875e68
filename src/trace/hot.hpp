// Hot-key attribution hook: the DCS_HOT(domain, key, weight) macro and the
// sink interface it feeds.
//
// The health plane (obs/slo.hpp) can say THAT a latency SLO is burning;
// nothing below this layer can say WHICH object, lock or home node is
// responsible.  DCS_HOT is the per-site answer: existing instrumentation
// points (a DDSS get resolving an object, an N-CoSED lock acquire, a verbs
// op addressing a home node) report `(domain, key, weight)` triples to an
// installed HotSink — in practice an obs::HeavyHitters top-K sketch.
//
// The macro follows the DCS_LOG contract exactly:
//
//   - compiled out entirely under DCS_TRACE_DISABLED (arguments are never
//     evaluated);
//   - with tracing compiled in but no sink installed, one context lookup
//     and one predictable branch per site;
//   - the domain argument must be a string literal (dcs-lint rule R4), so
//     hot-set dumps stay grep-able and byte-stable.
//
// The sink pointer lives in the execution context (sim/context.hpp), like
// the trace record stream's sink set (trace::detail::Sinks): a sink
// installed in the caller's context observes only the engines that run in
// it, and sharded runs (sim/shard.hpp) must NOT
// install an ambient sink — a worker runs several partitions, so partition
// attribution there uses explicit per-partition sketches fed from the serve
// path instead (the same idiom as the per-partition serve registry in
// bench_datacenter_scale).
#pragma once

#include <cstdint>

#include "sim/context.hpp"

namespace dcs::trace {

/// Receiver of DCS_HOT triples.  Implementations must be cheap and must
/// not touch the engine: a record is bookkeeping, never an event.
class HotSink {
 public:
  virtual ~HotSink() = default;
  /// `domain` is a string literal naming the key space ("ddss.object",
  /// "dlm.lock", "verbs.home"); `key` is an id within it; `weight` scales
  /// the observation (1 for an op, bytes for a transfer).
  virtual void record_hot(const char* domain, std::uint64_t key,
                          std::uint64_t weight) = 0;
};

namespace detail {

/// One sink per execution context (see header comment for the sharding
/// rationale).
inline HotSink*& hot_sink() { return sim::context().local<HotSink*>(); }

}  // namespace detail

/// Makes `sink` the current context's DCS_HOT receiver (nullptr disarms).
/// Returns the previous sink so scoped installers can restore it.
inline HotSink* set_hot_sink(HotSink* sink) {
  HotSink* prev = detail::hot_sink();
  detail::hot_sink() = sink;
  return prev;
}

/// The current context's installed sink, or nullptr.
inline HotSink* current_hot_sink() { return detail::hot_sink(); }

/// RAII installer: arms `sink` for the scope, restores the previous sink
/// on exit (harness scenarios nest cleanly).
class ScopedHotSink {
 public:
  explicit ScopedHotSink(HotSink* sink) : prev_(set_hot_sink(sink)) {}
  ~ScopedHotSink() { set_hot_sink(prev_); }
  ScopedHotSink(const ScopedHotSink&) = delete;
  ScopedHotSink& operator=(const ScopedHotSink&) = delete;

 private:
  HotSink* prev_;
};

}  // namespace dcs::trace

/// Reports one hot-key observation to the current context's sink.
/// `domain` must be a string literal (dcs-lint R4); `key`/`weight` are
/// evaluated only when a sink is installed.
#ifndef DCS_TRACE_DISABLED
#define DCS_HOT(domain, key, weight)                                  \
  do {                                                                \
    if (::dcs::trace::detail::hot_sink() != nullptr) {                \
      ::dcs::trace::detail::hot_sink()->record_hot(domain, key,       \
                                                   weight);           \
    }                                                                 \
  } while (0)
#else
#define DCS_HOT(domain, key, weight) ((void)0)
#endif
