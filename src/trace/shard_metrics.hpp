// Metric collection across shard partitions.
//
// trace::Registry::global() is one instance per execution context (see
// trace.hpp), and every partition of a sharded run has a context of its own
// (sim/shard.hpp), so each partition accumulates its counters in its own
// registry — and that registry dies with the ShardedEngine.  This helper
// drains them into the caller's registry while the engine is still alive.
// Call it after the last run_until() and before the ShardedEngine is
// destroyed.  No partition records into the caller's registry, so what the
// caller's registry held before is kept and added to.
//
// Registries merge in partition order, so the collected content is a pure
// function of what each partition recorded — identical for every worker
// count by construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "sim/shard.hpp"
#include "trace/trace.hpp"

namespace dcs::trace {

/// Folds every partition context's Registry::global() into the caller's
/// Registry::global() and resets the partitions' registries (so repeated
/// collection never double-counts).
inline void collect_shard_registries(sim::ShardedEngine& sharded) {
  std::vector<std::unique_ptr<Registry>> slots(sharded.partitions());
  sharded.for_each_partition([&](std::uint32_t p) {
    slots[p] = std::make_unique<Registry>();
    slots[p]->merge(Registry::global());
    Registry::global().reset();
  });
  for (const auto& slot : slots) Registry::global().merge(*slot);
  // The collected registry must enumerate in sorted series-name order —
  // the byte-identity contract every emitter downstream of a sharded run
  // (write_json, the obs time-series ingest) relies on.
  const auto names = Registry::global().names();
  DCS_CHECK_MSG(std::is_sorted(names.begin(), names.end()),
                "collected shard registries out of (series name) order");
}

}  // namespace dcs::trace
