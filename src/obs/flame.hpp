// `dcs flame`: exports a recorded span tree as speedscope JSON.
//
// The tracer's Chrome trace JSON (--trace-out) embeds the causal links the
// critical-path profiler uses: every span event carries its request id,
// its span id and its parent span id in `args`.  This exporter rebuilds
// the per-request span trees offline and emits a speedscope-compatible
// "sampled" profile (https://www.speedscope.app — load the file, or diff
// two runs side by side): one stack per span chain, weighted by the span's
// SELF time (duration minus enclosed child spans, clamped at zero for
// overlapping concurrent children).  Stacks aggregate across requests, so
// the flame graph answers "where does simulated time go, by call
// structure" — the differential-profiling twin of `--critical-path`'s
// by-resource answer.
//
// Deterministic: stacks emit in lexicographic order and frames in first
// appearance order, so same-seed traces export byte-identical profiles.
#pragma once

#include <iosfwd>
#include <string>

namespace dcs::obs {

/// Reads a Chrome trace_event JSON file (trace::ChromeTrace) and writes a
/// speedscope profile to `out`.  Returns a process exit code:
/// 0 success, 2 load/parse error (reported on `err`).
int run_flame(const std::string& trace_file, std::ostream& out,
              std::ostream& err);

}  // namespace dcs::obs
