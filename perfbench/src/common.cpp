#include "common.hpp"

#include <time.h>

#include <chrono>
#include <fstream>
#include <string_view>

namespace perfbench {

std::uint64_t host_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double host_s_since(std::uint64_t start_ns) {
  return static_cast<double>(host_ns() - start_ns) / 1e9;
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double thread_cpu_s_since(std::uint64_t start_ns) {
  return static_cast<double>(thread_cpu_ns() - start_ns) / 1e9;
}

std::size_t SpanLog::open(const char* layer, const char* name,
                          const char* detail, std::uint32_t node,
                          std::uint64_t request, std::uint64_t parent,
                          SimNanos now) {
  SpanRec s;
  s.id = ++next_id_;
  s.parent = parent;
  s.request = request;
  s.layer = layer;
  s.name = name;
  s.detail = detail;
  s.node = node;
  s.sim_start = now;
  s.host_start = host_ns();
  spans_.push_back(s);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index, SimNanos now) {
  SpanRec& s = spans_[index];
  s.sim_end = now;
  s.host_end = host_ns();
}

SetupTimer::~SetupTimer() {
  const std::uint64_t end = host_ns();
  sums_[std::string(layer_) + ".setup_s"] +=
      static_cast<double>(end - start_) / 1e9;
  if (log_ != nullptr) {
    SpanRec s;
    s.layer = layer_;
    s.name = "setup";
    s.host_start = start_;
    s.host_end = end;
    log_->add(s);
  }
}

void SpanLog::add(SpanRec s) {
  s.id = ++next_id_;
  spans_.push_back(s);
}

void Result::fail(std::string what) {
  ++failed;
  if (failures.size() < 16) failures.push_back(std::move(what));
}

void span_percentiles(Result& r, const std::vector<const SpanLog*>& logs,
                      const char* layer, const char* name, const char* detail,
                      const std::string& prefix,
                      std::uint64_t skip_through) {
  dcs::LatencySamples samples;
  for (const SpanLog* log : logs) {
    for (const SpanRec& s : log->spans()) {
      if (std::string_view(s.layer) != layer ||
          std::string_view(s.name) != name) {
        continue;
      }
      if (detail != nullptr && std::string_view(s.detail) != detail) continue;
      if (s.request <= skip_through) continue;
      samples.add(static_cast<double>(s.sim_end - s.sim_start) / 1e3);
    }
  }
  r.layer_sim[prefix + ".p50"] = {samples.percentile(50), "us"};
  r.layer_sim[prefix + ".p99"] = {samples.percentile(99), "us"};
}

void critical_path_metrics(Result& r, const dcs::trace::CriticalPath& cp,
                           std::uint64_t skip_through) {
  dcs::trace::Breakdown sum;
  sum.count = 0;
  for (const auto& b : cp.requests()) {
    if (b.request <= skip_through) continue;
    ++sum.count;
    sum.total += b.total;
    for (std::size_t c = 0; c < dcs::trace::kCostCategories; ++c) {
      sum.by_cost[c] += b.by_cost[c];
    }
  }
  const double n = sum.count > 0 ? static_cast<double>(sum.count) : 1.0;
  for (std::size_t c = 0; c < dcs::trace::kCostCategories; ++c) {
    const auto cost = static_cast<dcs::trace::Cost>(c + 1);
    r.layer_sim[std::string("trace.cp.") + dcs::trace::to_string(cost) +
                "_us"] = {static_cast<double>(sum.by_cost[c]) / 1e3 / n, "us"};
  }
  r.layer_sim["trace.cp.residual_us"] = {
      static_cast<double>(sum.residual()) / 1e3 / n, "us"};
  r.layer_sim["trace.cp.requests"] = {static_cast<double>(sum.count), "count"};
}

double counter(const char* name) {
  const auto* c = dcs::trace::Registry::global().find_counter(name);
  return c != nullptr ? static_cast<double>(c->value) : 0.0;
}

void verbs_op_counts(Result& r) {
  r.layer_sim["verbs.ops.read"] = {
      counter("verbs.read.ops") + counter("verbs.raw_read.ops"), "count"};
  r.layer_sim["verbs.ops.write"] = {
      counter("verbs.write.ops") + counter("verbs.raw_write.ops"), "count"};
  r.layer_sim["verbs.ops.cas"] = {counter("verbs.cas.ops"), "count"};
  r.layer_sim["verbs.ops.faa"] = {counter("verbs.faa.ops"), "count"};
  r.layer_sim["verbs.ops.batch"] = {counter("verbs.batch.posts"), "count"};
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream os(path);
  if (!os) return false;
  os << "id,parent,request,layer,name,detail,node,sim_start_ns,sim_end_ns,"
        "host_start_ns,host_end_ns\n";
  for (const SpanLog* log : logs) {
    for (const SpanRec& s : log->spans()) {
      os << s.id << ',' << s.parent << ',' << s.request << ',' << s.layer
         << ',' << s.name << ',' << s.detail << ',' << s.node << ','
         << s.sim_start << ',' << s.sim_end << ',' << s.host_start << ','
         << s.host_end << '\n';
    }
  }
  return static_cast<bool>(os);
}

}  // namespace perfbench
