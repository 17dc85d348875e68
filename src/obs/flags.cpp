#include "obs/flags.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dcs::obs {

namespace {

[[noreturn]] void bad_value(std::string_view flag, std::string_view text,
                            const char* expected) {
  std::fprintf(stderr, "%.*s: expected %s, got '%.*s'\n",
               static_cast<int>(flag.size()), flag.data(), expected,
               static_cast<int>(text.size()), text.data());
  std::exit(2);
}

/// Finds `flag <value>` in argv[1..], removes both, returns the value.
std::optional<std::string> take_flag(int& argc, char** argv,
                                     const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    std::string value = argv[i + 1];
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    argv[argc] = nullptr;
    return value;
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::uint64_t> parse_count(std::string_view text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

std::optional<double> parse_real(std::string_view text) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::uint64_t count_flag(std::string_view flag, std::string_view text,
                         std::uint64_t min, std::uint64_t max) {
  const auto v = parse_count(text);
  if (!v) bad_value(flag, text, "a non-negative integer");
  if (*v < min) {
    const std::string expected = "an integer >= " + std::to_string(min);
    bad_value(flag, text, expected.c_str());
  }
  if (*v > max) {
    const std::string expected = "an integer <= " + std::to_string(max);
    bad_value(flag, text, expected.c_str());
  }
  return *v;
}

double real_flag(std::string_view flag, std::string_view text, double min) {
  const auto v = parse_real(text);
  if (!v) bad_value(flag, text, "a finite number");
  if (*v < min) {
    char expected[64];
    std::snprintf(expected, sizeof expected, "a number >= %g", min);
    bad_value(flag, text, expected);
  }
  return *v;
}

std::string_view choice_flag(std::string_view flag, std::string_view text,
                             std::initializer_list<std::string_view> names) {
  std::string expected;
  for (const std::string_view name : names) {
    if (name == text) return text;
    expected += expected.empty() ? "one of " : "|";
    expected += name;
  }
  bad_value(flag, text, expected.c_str());
}

HarnessOptions extract_harness_flags(int& argc, char** argv) {
  const auto str = [&](const char* flag) {
    return take_flag(argc, argv, flag).value_or("");
  };
  const auto count = [&](const char* flag) -> std::size_t {
    const auto text = take_flag(argc, argv, flag);
    return text ? static_cast<std::size_t>(count_flag(flag, *text)) : 0;
  };
  HarnessOptions opts;
  opts.bench_json = str("--bench-json");
  opts.wall_json = str("--bench-wall-json");
  opts.critical_path = str("--critical-path");
  opts.timeseries_out = str("--timeseries-out");
  opts.slo_rules = str("--slo");
  opts.trace_out = str("--trace-out");
  opts.metrics_out = str("--metrics-out");
  opts.postmortem_dir = str("--postmortem-dir");
  opts.exemplars_out = str("--exemplars-out");
  opts.hotset_out = str("--hotset-out");
  opts.batch = count("--batch");
  opts.hot_keys = count("--hot-keys");
  return opts;
}

void reject_unknown_args(int argc, char** argv) {
  if (argc <= 1) return;
  std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[1]);
  std::exit(2);
}

}  // namespace dcs::obs
