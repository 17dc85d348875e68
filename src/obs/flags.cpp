#include "obs/flags.hpp"

namespace dcs::obs {

HarnessOptions harness_flags(const Args& args) {
  HarnessOptions opts;
  opts.bench_json = args.text("--bench-json");
  opts.wall_json = args.text("--bench-wall-json");
  opts.critical_path = args.text("--critical-path");
  opts.timeseries_out = args.text("--timeseries-out");
  opts.slo_rules = args.text("--slo");
  opts.trace_out = args.text("--trace-out");
  opts.metrics_out = args.text("--metrics-out");
  opts.postmortem_dir = args.text("--postmortem-dir");
  args.reject_unread();
  return opts;
}

}  // namespace dcs::obs
