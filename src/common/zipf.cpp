#include "common/zipf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dcs {

ZipfSampler::ZipfSampler(std::size_t n, double alpha) : alpha_(alpha) {
  DCS_CHECK(n > 0);
  DCS_CHECK(alpha >= 0.0);
  cdf_.resize(n);
  double running = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    running += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
    cdf_[k] = running;
  }
  norm_ = running;
  for (auto& v : cdf_) v /= norm_;
  cdf_.back() = 1.0;  // guard against accumulated rounding
  guide_.resize(n);
  std::size_t k = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double lo = static_cast<double>(j) / static_cast<double>(n);
    while (cdf_[k] < lo) ++k;  // stops by cdf_.back() == 1.0 > lo
    guide_[j] = k;
  }
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform_double();  // [0, 1)
  const std::size_t n = cdf_.size();
  const std::size_t j = std::min(
      static_cast<std::size_t>(u * static_cast<double>(n)), n - 1);
  // Rounding in u*n or j/n may start one bucket off; scanning both ways
  // lands on lower_bound(cdf_, u) exactly.
  std::size_t k = guide_[j];
  while (k > 0 && cdf_[k - 1] >= u) --k;
  while (cdf_[k] < u) ++k;  // stops by cdf_.back() == 1.0 > u
  return k;
}

double ZipfSampler::pmf(std::size_t rank) const {
  DCS_CHECK(rank < cdf_.size());
  return 1.0 / std::pow(static_cast<double>(rank + 1), alpha_) / norm_;
}

ZipfTrace::ZipfTrace(std::size_t num_docs, double alpha, std::size_t length,
                     std::uint64_t seed)
    : num_docs_(num_docs) {
  Rng rng(seed);
  ZipfSampler sampler(num_docs, alpha);

  // Deterministic permutation of rank -> document id.
  std::vector<std::uint32_t> perm(num_docs);
  std::iota(perm.begin(), perm.end(), 0U);
  for (std::size_t i = num_docs; i > 1; --i) {
    const std::size_t j = rng.uniform(i);
    std::swap(perm[i - 1], perm[j]);
  }

  requests_.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    requests_.push_back(perm[sampler.sample(rng)]);
  }
}

}  // namespace dcs
