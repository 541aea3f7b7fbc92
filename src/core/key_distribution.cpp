#include "core/key_distribution.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace ss {

KeyDistribution::KeyDistribution(std::vector<double> frequencies)
    : KeyDistribution(std::move(frequencies), Shape::kExplicit, 0.0) {}

KeyDistribution::KeyDistribution(std::vector<double> frequencies, Shape shape, double alpha)
    : shape_(shape), alpha_(alpha) {
  require(!frequencies.empty(), "KeyDistribution: empty frequency vector");
  double total = 0.0;
  for (double f : frequencies) {
    require(f >= 0.0, "KeyDistribution: negative frequency");
    total += f;
  }
  require(total > 0.0, "KeyDistribution: frequencies sum to zero");
  for (double& f : frequencies) f /= total;
  probabilities_ = std::make_shared<const std::vector<double>>(std::move(frequencies));
}

KeyDistribution KeyDistribution::uniform(std::size_t num_keys) {
  require(num_keys > 0, "KeyDistribution::uniform: num_keys must be > 0");
  return {std::vector<double>(num_keys, 1.0), Shape::kUniform, 0.0};
}

KeyDistribution KeyDistribution::zipf(std::size_t num_keys, double alpha) {
  require(num_keys > 0, "KeyDistribution::zipf: num_keys must be > 0");
  require(alpha > 0.0, "KeyDistribution::zipf: alpha must be > 0");
  std::vector<double> freq(num_keys);
  for (std::size_t k = 0; k < num_keys; ++k) {
    freq[k] = 1.0 / std::pow(static_cast<double>(k + 1), alpha);
  }
  return {std::move(freq), Shape::kZipf, alpha};
}

double KeyDistribution::max_probability() const {
  const std::vector<double>& p = probabilities();
  if (p.empty()) return 0.0;
  return *std::max_element(p.begin(), p.end());
}

}  // namespace ss
