// perfbench-sim: runs one instance of one perfbench workload and prints its
// result as a single JSON line (see ../README.md for every field).
//
//   perfbench-sim --workload web-coopcache|primitives-zipf|sdp-stream
//                 [--seed N] [--length N] [--workers N] [--trace 0|1]
//                 [--spans-out FILE]
//
// Bad arguments exit 2 with a message; a run whose outputs fail their
// checks prints its result and exits 1.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kMinLength = 64;
constexpr std::uint64_t kMaxLength = 100000;
constexpr std::uint64_t kMaxWorkers = 16;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench-sim: %s\n"
               "usage: perfbench-sim --workload "
               "web-coopcache|primitives-zipf|sdp-stream [--seed N] "
               "[--length %" PRIu64 "..%" PRIu64 "] [--workers 1..%" PRIu64
               "] [--trace 0|1] [--spans-out FILE]\n",
               why, kMinLength, kMaxLength, kMaxWorkers);
  return 2;
}

/// Parses a decimal integer in [lo, hi]; rejects signs, spaces, overflow.
bool parse_uint(const char* s, std::uint64_t lo, std::uint64_t hi,
                std::uint64_t* out) {
  if (*s == '\0') return false;
  std::uint64_t v = 0;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const auto d = static_cast<std::uint64_t>(*p - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string layer_json(const std::map<std::string, LayerValue>& layer) {
  std::string out = "{";
  for (const auto& [name, v] : layer) {
    if (out.size() > 1) out += ",";
    out += json_string(name) + ":{\"value\":" + num(v.value) +
           ",\"unit\":" + json_string(v.unit) + "}";
  }
  return out + "}";
}

void print_result(const Options& opts, Result& r) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const double sim_s = static_cast<double>(r.sim_elapsed) / 1e9;
  char fp[32];
  std::snprintf(fp, sizeof fp, "0x%016" PRIx64, r.fingerprint);
  std::string failures = "[";
  for (const auto& f : r.failures) {
    if (failures.size() > 1) failures += ",";
    failures += json_string(f);
  }
  failures += "]";
  std::string line = "{\"workload\":" + json_string(opts.workload) +
                     ",\"seed\":" + std::to_string(opts.seed) +
                     ",\"length\":" + std::to_string(opts.length) +
                     ",\"workers\":" + std::to_string(opts.workers) +
                     ",\"trace\":" + (opts.trace ? "1" : "0") +
                     ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
                     ",\"attempted\":" + std::to_string(r.attempted) +
                     ",\"failed\":" + std::to_string(r.failed) +
                     ",\"failures\":" + failures;
  line += ",\"sim\":{\"fingerprint\":\"" + std::string(fp) + "\"" +
          ",\"samples\":" + std::to_string(r.latency_us.count()) +
          ",\"sim_p50_us\":" + num(r.latency_us.percentile(50)) +
          ",\"sim_p99_us\":" + num(r.latency_us.percentile(99)) +
          ",\"sim_ops_per_sim_s\":" +
          num(sim_s > 0 ? static_cast<double>(r.sim_ops) / sim_s : 0.0) +
          ",\"layer\":" + layer_json(r.layer_sim) + "}";
  line += ",\"host\":{\"setup_s\":" + num(r.setup_s) +
          ",\"run_s\":" + num(r.run_s) + ",\"check_s\":" + num(r.check_s) +
          ",\"ops_per_host_s\":" +
          num(r.run_s > 0 ? static_cast<double>(r.host_ops) / r.run_s : 0.0) +
          ",\"peak_rss_mb\":" + num(rss_mb) +
          ",\"layer\":" + layer_json(r.layer_host) + "}}";
  std::puts(line.c_str());
  std::fflush(stdout);
}

int run(int argc, char** argv, std::uint64_t start_ns) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t v = 0;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      if (!parse_uint(value, 0, std::numeric_limits<std::uint64_t>::max(),
                      &opts.seed)) {
        return usage("--seed must be an integer in [0, 2^64)");
      }
    } else if (flag == "--length") {
      if (!parse_uint(value, kMinLength, kMaxLength, &opts.length)) {
        return usage("--length out of range");
      }
    } else if (flag == "--workers") {
      if (!parse_uint(value, 1, kMaxWorkers, &v)) {
        return usage("--workers out of range");
      }
      opts.workers = static_cast<std::uint32_t>(v);
    } else if (flag == "--trace") {
      if (!parse_uint(value, 0, 1, &v)) return usage("--trace must be 0 or 1");
      opts.trace = v == 1;
    } else if (flag == "--spans-out") {
      opts.spans_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  Result (*workload)(const Options&, std::uint64_t) = nullptr;
  if (opts.workload == "web-coopcache") {
    workload = run_web_coopcache;
  } else if (opts.workload == "primitives-zipf") {
    workload = run_primitives_zipf;
  } else if (opts.workload == "sdp-stream") {
    workload = run_sdp_stream;
  } else {
    return usage(("unknown workload '" + opts.workload + "'").c_str());
  }
  Result r = workload(opts, start_ns);
  print_result(opts, r);
  return r.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::uint64_t start_ns = perfbench::host_ns();
  try {
    return perfbench::run(argc, argv, start_ns);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench-sim: %s\n", e.what());
    return 1;
  }
}
