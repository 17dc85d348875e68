// Declarative SLOs over the time-series store: fleet-level judgment on
// top of the scraped health plane.
//
// The watchdog layer (monitor/watchdog.hpp) judges individual requests
// against deadlines; this engine judges SERVICE behaviour against
// objectives, the way an SRE would state them:
//
//   p99    a latency-quantile ceiling over a histogram series
//          ("serve p99 must stay under 200us, measured over W windows");
//   rate   a bad-fraction ceiling over a counter pair
//          ("slow responses must stay under 5% of total");
//   burn   a multi-window error-budget burn rate over a counter pair,
//          after the SRE fast/slow-burn pattern: with budget B (allowed
//          bad fraction), burn = (bad/total)/B; the rule fires when the
//          FAST window burns at >= fast_burn (sudden breach) or the SLOW
//          window burns at >= slow_burn (sustained low-grade burn).
//
// evaluate() walks rules in declaration order and nodes in ascending
// order, so the emitted alert-event stream is deterministic and — because
// every input is virtual-time scraped data — byte-identical across
// same-seed runs and `--shards` worker counts.  A firing transition is
// recorded into the flight recorder (obs/alert.firing) and can optionally
// trip a post-mortem dump, wiring fleet-level SLOs into the PR 5 black box.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <istream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "obs/timeseries.hpp"

/// Names an SLO rule at a C++ construction site.  Expands to its argument;
/// exists so dcs-lint rule R4 can require in-code rule names to be string
/// literals (rule files are data and exempt).
#define DCS_SLO_NAME(name) name

namespace dcs::trace {
class FlightRecorder;
}  // namespace dcs::trace

namespace dcs::obs {

enum class SloKind : std::uint8_t { kP99Ceiling, kRateCeiling, kBurnRate };

/// Stable dump/report name ("p99", "rate", "burn").
const char* to_string(SloKind kind);

struct SloRule {
  std::string name;
  SloKind kind = SloKind::kBurnRate;
  /// The judged series: a histogram series for p99, the bad-event counter
  /// for rate/burn.
  std::string series;
  /// The total-event counter for rate/burn (unused for p99).
  std::string total;
  /// p99: ceiling in the histogram's unit.  rate: max bad fraction.
  /// burn: error budget B (allowed bad fraction).
  double threshold = 0.0;
  double quantile = 99.0;        // p99 rules: which quantile
  std::uint64_t windows = 4;     // p99/rate: evaluation windows
  std::uint64_t fast_windows = 4;
  std::uint64_t slow_windows = 16;
  double fast_burn = 14.0;
  double slow_burn = 6.0;
  /// Trip a post-mortem dump on the firing transition.
  bool trip_postmortem = false;
  /// Trigger-armed deep capture: when the measured value crosses
  /// `arm_fraction * threshold` (before the breach itself), the engine
  /// flips the flight recorder from sampled to full capture, and flips it
  /// back when the value drops under the arm threshold again.  0 disables
  /// arming for this rule.
  double arm_fraction = 0.5;
};

/// One deterministic alert-stream event: a (rule, node) firing-state
/// transition observed by evaluate().
struct AlertEvent {
  SimNanos time = 0;
  std::string rule;
  std::uint32_t node = 0;
  bool firing = false;  // false = resolved
  double value = 0.0;   // the measured quantity at transition time
  double threshold = 0.0;
};

class SloEngine {
 public:
  explicit SloEngine(const TimeSeriesStore& store) : store_(store) {}
  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  void add_rule(SloRule rule) { rules_.push_back(std::move(rule)); }
  const std::vector<SloRule>& rules() const { return rules_; }

  /// Alert transitions additionally log into `flight` (obs/alert.firing /
  /// obs/alert.resolved ring records); a firing transition on a rule with
  /// trip_postmortem set trips a dump.  The recorder is used by explicit
  /// calls — it does not need to be install()ed.
  void set_flight(trace::FlightRecorder* flight) { flight_ = flight; }

  /// Evaluates every rule against every node carrying the rule's series,
  /// appending firing/resolved transitions (stamped `now`) to alerts().
  void evaluate(SimNanos now);

  /// The transition stream, in evaluation order (ascending time).
  const std::vector<AlertEvent>& alerts() const { return alerts_; }
  /// (rule, node) pairs currently firing, in (rule declaration, node) order.
  std::vector<std::pair<std::string, std::uint32_t>> firing() const;

  /// Capture arm/disarm transitions, same shape as alerts() with
  /// firing == armed and threshold == the arm threshold.  Kept separate
  /// from the alert stream so dcs-timeseries-v1 dumps are unchanged.
  const std::vector<AlertEvent>& capture_events() const {
    return capture_events_;
  }
  /// (rule, node) pairs currently armed for deep capture.
  std::size_t armed_count() const { return armed_count_; }

  /// Adopts transitions evaluated elsewhere (per-partition engines of a
  /// sharded run); keeps the stream sorted by (time, rule, node).
  void absorb(const std::vector<AlertEvent>& alerts);
  /// absorb() for the capture stream.
  void absorb_captures(const std::vector<AlertEvent>& events);

 private:
  /// The rule's measured value on `node`; false when the series is absent.
  bool measure(const SloRule& rule, std::uint32_t node, double* value,
               double* threshold) const;

  const TimeSeriesStore& store_;
  std::vector<SloRule> rules_;
  trace::FlightRecorder* flight_ = nullptr;
  std::vector<AlertEvent> alerts_;
  std::vector<AlertEvent> capture_events_;
  std::map<std::pair<std::size_t, std::uint32_t>, bool> firing_;
  std::map<std::pair<std::size_t, std::uint32_t>, bool> armed_;
  std::size_t armed_count_ = 0;
};

/// Parses the declarative rule-file syntax (docs/OBSERVABILITY.md):
///
///   # comment
///   rule <name> p99  series=<s> threshold=<ns> [quantile=<q>] [windows=<w>]
///   rule <name> rate series=<bad> total=<t> max=<frac> [windows=<w>]
///   rule <name> burn series=<bad> total=<t> budget=<frac> [fast=<w>]
///                    [slow=<w>] [fast_burn=<x>] [slow_burn=<x>] [postmortem]
///
/// Every kind also accepts arm=<fraction> (default 0.5, 0 disables): the
/// deep-capture arming threshold as a fraction of the firing threshold.
///
/// Returns the rules; on malformed input returns an empty vector and sets
/// `error` to a one-line message with the offending line number.
std::vector<SloRule> parse_slo_rules(std::istream& in, std::string* error);

/// Convenience: parse a rule file by path.  Missing/unreadable files set
/// `error` too; every error names the file.
std::vector<SloRule> parse_slo_rules_file(const std::string& path,
                                          std::string* error);

/// One line per alert event, byte-stable ("ALERT <t> <rule> node=<n>
/// firing|resolved value=<v> threshold=<x>"); the text twin of the dump's
/// "alerts" array.
void write_alert_stream(std::ostream& os, const std::vector<AlertEvent>& alerts);

}  // namespace dcs::obs
