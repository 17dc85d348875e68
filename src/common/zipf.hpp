// Zipf-distributed document sampling.
//
// Web-document popularity in the paper's workloads follows a Zipf law with
// tunable alpha (Fig 8b sweeps alpha in {0.9, 0.75, 0.5, 0.25}).  Higher alpha
// means higher temporal locality of accesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace dcs {

/// Samples ranks 0..n-1 with P(rank k) proportional to 1 / (k+1)^alpha.
///
/// Uses a precomputed CDF and a guide table: guide_[j] is the first CDF
/// index >= j/n, so a draw u starts at guide_[floor(u*n)] and scans to the
/// first index whose CDF is >= u.  O(n) setup, O(1) expected per draw, and
/// every draw equals std::lower_bound(cdf, u): exact distribution (no
/// rejection), one uniform per draw, deterministic given the Rng stream.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);

  /// Draws one rank in [0, size()).
  std::size_t sample(Rng& rng) const;

  std::size_t size() const { return cdf_.size(); }
  double alpha() const { return alpha_; }
  /// cdf()[k] = P(rank <= k); a draw u returns lower_bound(cdf(), u).
  const std::vector<double>& cdf() const { return cdf_; }

  /// Probability mass of a single rank (for analytic checks in tests).
  double pmf(std::size_t rank) const;

 private:
  double alpha_ = 0.0;
  double norm_ = 0.0;             // generalized harmonic number H_{n,alpha}
  std::vector<double> cdf_;       // cdf_[k] = P(rank <= k)
  std::vector<std::size_t> guide_;  // guide_[j] = first k with cdf_[k] >= j/n
};

/// A finite request trace of document ranks drawn from a Zipf law, with
/// a deterministic shuffle of rank->document-id so that "popular" documents
/// are spread across the id space (as in real traces).
class ZipfTrace {
 public:
  ZipfTrace(std::size_t num_docs, double alpha, std::size_t length,
            std::uint64_t seed);

  const std::vector<std::uint32_t>& requests() const { return requests_; }
  std::size_t num_docs() const { return num_docs_; }

 private:
  std::size_t num_docs_;
  std::vector<std::uint32_t> requests_;
};

}  // namespace dcs
