#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace dcs {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(n_ + other.n_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / total;
  mean_ += delta * static_cast<double>(other.n_) / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

void LatencySamples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double LatencySamples::percentile(double p) const {
  DCS_CHECK(p >= 0.0 && p <= 100.0);
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const double idx = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double LatencySamples::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

double LatencySamples::max() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.back();
}

void LogHistogram::add(std::uint64_t v) {
  buckets_[bucket_of(v)]++;
  ++total_;
}

std::uint64_t LogHistogram::bucket_count(std::size_t bucket) const {
  DCS_CHECK(bucket < kBuckets);
  return buckets_[bucket];
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  total_ += other.total_;
}

std::string LogHistogram::to_string() const {
  std::ostringstream out;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const std::uint64_t lo = b == 0 ? 0 : (1ULL << (b - 1));
    const std::uint64_t hi = b == 0 ? 1 : (1ULL << b);
    out << "[" << lo << ", " << hi << "): " << buckets_[b] << "\n";
  }
  return out.str();
}

}  // namespace dcs
