#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "common/json.hpp"
#include "trace/flight.hpp"

namespace dcs::obs {

namespace {

/// Burn rate over the newest `windows` windows: (bad/total)/budget.
/// 0 when the total is zero (no traffic burns no budget).
double burn_rate(const TimeSeriesStore& store, const SloRule& rule,
                 std::uint32_t node, std::uint64_t windows) {
  const double bad = store.window_sum(node, rule.series,
                                      static_cast<std::size_t>(windows));
  const double total = store.window_sum(node, rule.total,
                                        static_cast<std::size_t>(windows));
  if (total <= 0.0 || rule.threshold <= 0.0) return 0.0;
  return (bad / total) / rule.threshold;
}

}  // namespace

const char* to_string(SloKind kind) {
  switch (kind) {
    case SloKind::kP99Ceiling: return "p99";
    case SloKind::kRateCeiling: return "rate";
    case SloKind::kBurnRate: return "burn";
  }
  return "burn";
}

bool SloEngine::measure(const SloRule& rule, std::uint32_t node, double* value,
                        double* threshold) const {
  switch (rule.kind) {
    case SloKind::kP99Ceiling: {
      const Series* s = store_.find(node, rule.series);
      if (s == nullptr || s->kind != SeriesKind::kHistogram) return false;
      *value = static_cast<double>(
          store_.quantile(node, rule.series, rule.quantile,
                          static_cast<std::size_t>(rule.windows)));
      *threshold = rule.threshold;
      return true;
    }
    case SloKind::kRateCeiling: {
      if (store_.find(node, rule.series) == nullptr) return false;
      const double bad = store_.window_sum(
          node, rule.series, static_cast<std::size_t>(rule.windows));
      const double total = store_.window_sum(
          node, rule.total, static_cast<std::size_t>(rule.windows));
      *value = total > 0.0 ? bad / total : 0.0;
      *threshold = rule.threshold;
      return true;
    }
    case SloKind::kBurnRate: {
      if (store_.find(node, rule.series) == nullptr) return false;
      const double fast = burn_rate(store_, rule, node, rule.fast_windows);
      const double slow = burn_rate(store_, rule, node, rule.slow_windows);
      // Report the dominant burn, scaled to its own limit so a single
      // threshold (1.0) captures "any window over its burn limit".
      const double fast_ratio =
          rule.fast_burn > 0.0 ? fast / rule.fast_burn : 0.0;
      const double slow_ratio =
          rule.slow_burn > 0.0 ? slow / rule.slow_burn : 0.0;
      *value = std::max(fast_ratio, slow_ratio);
      *threshold = 1.0;
      return true;
    }
  }
  return false;
}

void SloEngine::evaluate(SimNanos now) {
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const SloRule& rule = rules_[r];
    for (const std::uint32_t node : store_.nodes()) {
      double value = 0.0, threshold = 0.0;
      if (!measure(rule, node, &value, &threshold)) continue;
      // Arming is handled before the firing transition so that when a
      // breach lands, the flight recorder is already in full capture and
      // the alert.firing record itself is never sampled away.
      const double arm_threshold = rule.arm_fraction * threshold;
      const bool armed = rule.arm_fraction > 0.0 && value > arm_threshold;
      bool& arm_state = armed_[{r, node}];
      if (armed != arm_state) {
        arm_state = armed;
        capture_events_.push_back(
            AlertEvent{now, rule.name, node, armed, value, arm_threshold});
        if (armed) {
          ++armed_count_;
          if (flight_ != nullptr) {
            if (armed_count_ == 1) flight_->set_full_capture(true);
            flight_->log("obs", "capture.armed", node, r,
                         static_cast<std::uint64_t>(value * 1000.0));
          }
        } else {
          --armed_count_;
          if (flight_ != nullptr) {
            // Log while still in full capture, then drop back to sampling.
            flight_->log("obs", "capture.disarmed", node, r,
                         static_cast<std::uint64_t>(value * 1000.0));
            if (armed_count_ == 0) flight_->set_full_capture(false);
          }
        }
      }
      const bool firing = value > threshold;
      bool& state = firing_[{r, node}];
      if (firing == state) continue;
      state = firing;
      alerts_.push_back(
          AlertEvent{now, rule.name, node, firing, value, threshold});
      if (flight_ != nullptr) {
        // Explicit recorder calls — no install() needed, so sharded
        // partitions can each feed their own recorder.  The opcode is a
        // literal (ring records store pointers); the rule is identified
        // by declaration index in a0.
        if (firing) {
          flight_->log("obs", "alert.firing", node, r,
                       static_cast<std::uint64_t>(value * 1000.0));
          if (rule.trip_postmortem) {
            flight_->trip("slo", rule.name + " firing on node " +
                                     std::to_string(node));
          }
        } else {
          flight_->log("obs", "alert.resolved", node, r,
                       static_cast<std::uint64_t>(value * 1000.0));
        }
      }
    }
  }
}

std::vector<std::pair<std::string, std::uint32_t>> SloEngine::firing() const {
  std::vector<std::pair<std::string, std::uint32_t>> out;
  for (const auto& [key, state] : firing_) {
    if (state) out.emplace_back(rules_[key.first].name, key.second);
  }
  return out;
}

namespace {

void absorb_sorted(std::vector<AlertEvent>& into,
                   const std::vector<AlertEvent>& from) {
  into.insert(into.end(), from.begin(), from.end());
  std::stable_sort(into.begin(), into.end(),
                   [](const AlertEvent& a, const AlertEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     if (a.rule != b.rule) return a.rule < b.rule;
                     return a.node < b.node;
                   });
}

}  // namespace

void SloEngine::absorb(const std::vector<AlertEvent>& alerts) {
  absorb_sorted(alerts_, alerts);
}

void SloEngine::absorb_captures(const std::vector<AlertEvent>& events) {
  absorb_sorted(capture_events_, events);
}

std::vector<SloRule> parse_slo_rules(std::istream& in, std::string* error) {
  std::vector<SloRule> rules;
  std::string line;
  int lineno = 0;
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = "slo: line " + std::to_string(lineno) + ": " + msg;
    }
    return std::vector<SloRule>{};
  };
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream tokens(line);
    std::string word;
    if (!(tokens >> word) || word[0] == '#') continue;
    if (word != "rule") return fail("expected `rule`, got `" + word + "`");
    SloRule rule;
    std::string kind;
    if (!(tokens >> rule.name >> kind)) {
      return fail("expected `rule <name> <p99|rate|burn> ...`");
    }
    bool have_threshold = false;
    if (kind == "p99") {
      rule.kind = SloKind::kP99Ceiling;
    } else if (kind == "rate") {
      rule.kind = SloKind::kRateCeiling;
    } else if (kind == "burn") {
      rule.kind = SloKind::kBurnRate;
    } else {
      return fail("unknown rule kind `" + kind + "`");
    }
    while (tokens >> word) {
      if (word == "postmortem") {
        rule.trip_postmortem = true;
        continue;
      }
      const auto eq = word.find('=');
      if (eq == std::string::npos) {
        return fail("expected key=value, got `" + word + "`");
      }
      const std::string key = word.substr(0, eq);
      const std::string val = word.substr(eq + 1);
      try {
        if (key == "series") {
          rule.series = val;
        } else if (key == "total") {
          rule.total = val;
        } else if (key == "threshold" || key == "max" || key == "budget") {
          rule.threshold = std::stod(val);
          have_threshold = true;
        } else if (key == "quantile") {
          rule.quantile = std::stod(val);
        } else if (key == "windows") {
          rule.windows = std::stoull(val);
        } else if (key == "fast") {
          rule.fast_windows = std::stoull(val);
        } else if (key == "slow") {
          rule.slow_windows = std::stoull(val);
        } else if (key == "fast_burn") {
          rule.fast_burn = std::stod(val);
        } else if (key == "slow_burn") {
          rule.slow_burn = std::stod(val);
        } else if (key == "arm") {
          rule.arm_fraction = std::stod(val);
        } else {
          return fail("unknown key `" + key + "`");
        }
      } catch (const std::exception&) {
        return fail("bad number in `" + word + "`");
      }
    }
    if (rule.series.empty()) return fail("rule needs series=<name>");
    if (!have_threshold) {
      return fail("rule needs threshold=/max=/budget=<value>");
    }
    if (rule.kind != SloKind::kP99Ceiling && rule.total.empty()) {
      return fail("rate/burn rules need total=<name>");
    }
    rules.push_back(std::move(rule));
  }
  if (rules.empty()) return fail("no rules in input");
  return rules;
}

std::vector<SloRule> parse_slo_rules_file(const std::string& path,
                                          std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "slo: cannot open " + path;
    return {};
  }
  auto rules = parse_slo_rules(in, error);
  if (error != nullptr && !error->empty()) *error += " (in " + path + ")";
  return rules;
}

void write_alert_stream(std::ostream& os,
                        const std::vector<AlertEvent>& alerts) {
  for (const AlertEvent& a : alerts) {
    os << "ALERT " << a.time << " " << a.rule << " node=" << a.node << " "
       << (a.firing ? "firing" : "resolved")
       << " value=" << fmt_fixed(a.value, 3) << " threshold=" << fmt_fixed(a.threshold, 3) << "\n";
  }
}

}  // namespace dcs::obs
