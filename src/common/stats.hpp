// Online statistics and latency histograms for experiment harnesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dcs {

/// Welford online mean/variance plus min/max.
class RunningStat {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return n_ > 0 ? mean_ * static_cast<double>(n_) : 0.0; }

  void merge(const RunningStat& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sample reservoir with exact percentiles (sorts on demand).
///
/// Experiment runs record at most a few million latency samples, so keeping
/// them all is cheap and keeps percentile math exact.
class LatencySamples {
 public:
  void add(double v) { samples_.push_back(v); sorted_ = false; }
  std::size_t count() const { return samples_.size(); }

  double percentile(double p);  // p in [0,100]
  double median() { return percentile(50.0); }
  double mean() const;
  double max();
  void clear() { samples_.clear(); sorted_ = false; }

 private:
  void ensure_sorted();
  std::vector<double> samples_;
  bool sorted_ = true;
};

/// Power-of-two bucketed histogram for value distributions (e.g. queue depths).
class LogHistogram {
 public:
  void add(std::uint64_t v);
  std::uint64_t count() const { return total_; }
  /// One line per nonempty bucket: "[lo, hi): count".
  std::string to_string() const;
  std::uint64_t bucket_count(std::size_t bucket) const;
  /// Adds `other`'s samples bucket-wise.
  void merge(const LogHistogram& other);

  static constexpr std::size_t kBuckets = 64;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t total_ = 0;
};

}  // namespace dcs
