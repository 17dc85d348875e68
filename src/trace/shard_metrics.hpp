// Metric collection across shard workers.
//
// trace::Registry::global() is one instance per execution context (see
// trace.hpp), so in a sharded run every worker accumulates its partitions'
// counters in its own context's registry — and that registry dies with the
// ShardedEngine.  This helper drains them into the caller's registry while
// the engine is still alive.  Call it after the last run_until() and before
// the ShardedEngine is destroyed.  Worker 0's context is the caller's own,
// so its share is already in that registry: reset it before run(), never
// between run() and this call.
//
// Merge order is worker 0, 1, ... but the result does not depend on it:
// Registry::merge is value-additive (counters add, distributions merge
// exactly), so the collected content is a pure function of what the
// partitions recorded — identical for every worker count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "sim/shard.hpp"
#include "trace/trace.hpp"

namespace dcs::trace {

/// Folds every worker context's Registry::global() into the caller's
/// Registry::global() and resets the workers' registries (so repeated
/// collection never double-counts).
inline void collect_shard_registries(sim::ShardedEngine& sharded) {
  std::vector<std::unique_ptr<Registry>> slots(sharded.workers());
  sharded.for_each_worker([&](std::uint32_t w) {
    slots[w] = std::make_unique<Registry>();
    slots[w]->merge(Registry::global());
    Registry::global().reset();
  });
  for (const auto& slot : slots) Registry::global().merge(*slot);
  // The collected registry must enumerate in sorted series-name order no
  // matter how many workers contributed or in what order they merged —
  // the byte-identity contract every emitter downstream of a sharded run
  // (write_json, the obs time-series ingest) relies on.
  const auto names = Registry::global().names();
  DCS_CHECK_MSG(std::is_sorted(names.begin(), names.end()),
                "collected shard registries out of (series name) order");
}

}  // namespace dcs::trace
