#include "gen/zipf.hpp"

#include <algorithm>

namespace ss {

std::vector<double> zipf_probabilities(std::size_t n, double alpha) {
  return KeyDistribution::zipf(n, alpha).probabilities();
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha)
    : law_(KeyDistribution::zipf(n, alpha)), cdf_(&law_.cumulative()) {}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.next_double();
  auto it = std::lower_bound(cdf_->begin(), cdf_->end(), u);
  if (it == cdf_->end()) --it;
  return static_cast<std::size_t>(it - cdf_->begin());
}

std::vector<double> shuffled_zipf_probabilities(std::size_t n, double alpha, Rng& rng) {
  std::vector<double> p = zipf_probabilities(n, alpha);
  // Fisher-Yates with the repo PRNG for reproducibility.
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.rand_int(0, static_cast<int>(i - 1)));
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

}  // namespace ss
