#include "monitor/telemetry.hpp"

#include <cstring>

#include "audit/audit.hpp"
#include "trace/trace.hpp"

namespace dcs::monitor {

namespace {

/// Scalar export value for one registry metric (0.0 when absent).
double metric_value(const trace::Registry& reg, const std::string& name) {
  if (const auto* c = reg.find_counter(name)) {
    return static_cast<double>(c->value);
  }
  if (const auto* g = reg.find_gauge(name)) return g->value;
  if (const auto* d = reg.find_distribution(name)) {
    return static_cast<double>(d->stat.count());
  }
  if (const auto* h = reg.find_histogram(name)) {
    return static_cast<double>(h->hist.count());
  }
  return 0.0;
}

}  // namespace

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "counter";
}

TelemetrySchema::TelemetrySchema(std::vector<std::string> names) {
  DCS_CHECK(!names.empty());
  entries_.reserve(names.size());
  for (std::string& name : names) {
    entries_.push_back(Entry{std::move(name), MetricKind::kCounter});
  }
}

TelemetrySchema::TelemetrySchema(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  DCS_CHECK(!entries_.empty());
}

TelemetrySchema TelemetrySchema::standard() {
  return TelemetrySchema(std::vector<std::string>{
      "verbs.read.ops",
      "verbs.write.ops",
      "verbs.send.msgs",
      "verbs.recv.msgs",
      "verbs.raw_read.ops",
      "verbs.raw_write.ops",
      "sockets.tcp.sends",
      "sockets.sdp.sends",
      "cache.coop.local_hits",
      "cache.coop.remote_hits",
      "cache.coop.misses",
      "dlm.srsl.lock_acquires",
  });
}

std::vector<std::string> TelemetrySchema::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  return out;
}

std::size_t TelemetrySchema::page_bytes() const {
  std::size_t total = 8;  // export seq
  for (const Entry& e : entries_) total += entry_bytes(e.kind);
  return total;
}

double TelemetrySnapshot::value(const std::string& name) const {
  for (const auto& [n, v] : values) {
    if (n == name) return v;
  }
  return 0.0;
}

const HistogramSnapshot* TelemetrySnapshot::hist(
    const std::string& name) const {
  for (const auto& [n, h] : hists) {
    if (n == name) return &h;
  }
  return nullptr;
}

TelemetryExporter::TelemetryExporter(verbs::Network& net, NodeId node,
                                     TelemetrySchema schema, SimNanos interval,
                                     const trace::Registry* source)
    : net_(net),
      node_(node),
      schema_(std::move(schema)),
      interval_(interval),
      source_(source) {
  region_ = net_.hca(node_).allocate_region(schema_.page_bytes());
  // Like the kernel stats page: rewritten continuously while monitors
  // RDMA-read it; torn snapshots are tolerated monitoring data.
  if (auto* a = audit::Auditor::current()) {
    a->mark_optimistic_range(node_, region_.addr, schema_.page_bytes());
  }
}

void TelemetryExporter::publish() {
  // Kernel-context mirror like fabric::Node::sync_kernel_page(): zero
  // simulated CPU — the whole point of the scheme.  Unlike the kernel page,
  // written into the arena at once: it is published once per interval, not
  // on every scheduler event.
  auto page = net_.fabric().node(node_).memory().bytes(region_.addr,
                                                       schema_.page_bytes());
  ++seq_;
  std::memcpy(page.data(), &seq_, 8);
  const trace::Registry& reg =
      source_ != nullptr ? *source_ : trace::Registry::global();
  std::size_t off = 8;
  for (const TelemetrySchema::Entry& entry : schema_.entries()) {
    if (entry.kind == MetricKind::kHistogram) {
      const auto* h = reg.find_histogram(entry.name);
      const std::uint64_t count = h != nullptr ? h->hist.count() : 0;
      std::memcpy(page.data() + off, &count, 8);
      off += 8;
      for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
        const std::uint64_t n = h != nullptr ? h->hist.bucket_count(b) : 0;
        std::memcpy(page.data() + off, &n, 8);
        off += 8;
      }
      continue;
    }
    const double v = metric_value(reg, entry.name);
    std::memcpy(page.data() + off, &v, 8);
    off += 8;
  }
}

void TelemetryExporter::start(std::uint64_t passes) {
  DCS_CHECK(!started_);
  started_ = true;
  publish();
  net_.fabric().engine().spawn(
      [](TelemetryExporter& self, std::uint64_t remaining) -> sim::Task<void> {
        auto& eng = self.net_.fabric().engine();
        // remaining == 0: mirror forever (the PR 3 contract for open-ended
        // runs); otherwise the daemon ends after that many passes so a
        // drain-to-empty run terminates.
        for (std::uint64_t pass = 0; remaining == 0 || pass < remaining;
             ++pass) {
          co_await eng.delay(self.interval_);
          self.publish();
        }
      }(*this, passes));
}

TelemetryScraper::TelemetryScraper(verbs::Network& net, NodeId frontend)
    : net_(net), frontend_(frontend) {}

void TelemetryScraper::attach(const TelemetryExporter& exporter) {
  attached_[exporter.node()] =
      Attached{exporter.region(), exporter.schema().entries()};
}

TelemetrySnapshot TelemetryScraper::parse_page(
    const Attached& a, std::span<const std::byte> img) const {
  TelemetrySnapshot snap;
  std::memcpy(&snap.seq, img.data(), 8);
  snap.scraped_at = net_.fabric().engine().now();
  snap.values.reserve(a.entries.size());
  std::size_t off = 8;
  for (const TelemetrySchema::Entry& entry : a.entries) {
    if (entry.kind == MetricKind::kHistogram) {
      HistogramSnapshot h;
      std::memcpy(&h.count, img.data() + off, 8);
      off += 8;
      h.buckets.resize(LogHistogram::kBuckets);
      for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
        std::memcpy(&h.buckets[b], img.data() + off, 8);
        off += 8;
      }
      // Scalar consumers see the count; shape consumers read `hists`.
      snap.values.emplace_back(entry.name,
                               static_cast<double>(h.count));
      snap.hists.emplace_back(entry.name, std::move(h));
      continue;
    }
    double v = 0.0;
    std::memcpy(&v, img.data() + off, 8);
    off += 8;
    snap.values.emplace_back(entry.name, v);
  }
  return snap;
}

sim::Task<TelemetrySnapshot> TelemetryScraper::scrape(NodeId target) {
  const auto it = attached_.find(target);
  DCS_CHECK_MSG(it != attached_.end(), "scrape of unattached target");
  const Attached& a = it->second;
  std::vector<std::byte> img(a.region.len);
  co_await net_.hca(frontend_).read(a.region, 0, img);
  ++scrapes_;
  co_return parse_page(a, img);
}

sim::Task<std::vector<TelemetrySnapshot>> TelemetryScraper::scrape_many(
    std::span<const NodeId> targets) {
  std::vector<TelemetrySnapshot> out;
  if (targets.empty()) co_return out;
  // N page reads, one doorbell.  Each page is a scatter-gather read: the
  // export seq lands in its own 8-byte segment, the metric block in a
  // second — two DMA descriptors the auditor observes independently.
  std::vector<std::vector<std::byte>> imgs(targets.size());
  verbs::OpBatch batch;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto it = attached_.find(targets[i]);
    DCS_CHECK_MSG(it != attached_.end(), "scrape of unattached target");
    const Attached& a = it->second;
    imgs[i].resize(a.region.len);
    std::span<std::byte> img(imgs[i]);
    batch.read(a.region, 0,
               std::vector<std::span<std::byte>>{img.first(8), img.subspan(8)});
  }
  co_await net_.hca(frontend_).post(std::move(batch));
  out.reserve(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ++scrapes_;
    out.push_back(parse_page(attached_.find(targets[i])->second, imgs[i]));
  }
  co_return out;
}

}  // namespace dcs::monitor
