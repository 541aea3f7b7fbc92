// Zipf (power-law) sampling and probability vectors (paper §5.1, §5.3).
//
// The testbed assigns edge probabilities and key frequencies from Zipf laws
// with a random scaling exponent alpha > 1 so distributions of different
// skewness are exercised.
#pragma once

#include <cstddef>
#include <vector>

#include "core/key_distribution.hpp"
#include "gen/rng.hpp"

namespace ss {

/// Normalized Zipf probability vector over `n` ranks: p(k) ~ 1/(k+1)^alpha;
/// the table of KeyDistribution::zipf(n, alpha).
std::vector<double> zipf_probabilities(std::size_t n, double alpha);

/// Draws one rank in [0, n) from a Zipf law (inverse-CDF on the law's
/// cumulative table, built in the constructor; O(log n) per draw).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);

  [[nodiscard]] std::size_t sample(Rng& rng) const;
  [[nodiscard]] const std::vector<double>& probabilities() const { return law_.probabilities(); }

 private:
  KeyDistribution law_;
  const std::vector<double>* cdf_;  ///< law_.cumulative(), shared by copies
};

/// Returns a shuffled Zipf probability vector: ranks are randomly permuted
/// so the heavy item is not always the first (used for edge probabilities,
/// where the heavy out-edge should be a random one).
std::vector<double> shuffled_zipf_probabilities(std::size_t n, double alpha, Rng& rng);

}  // namespace ss
