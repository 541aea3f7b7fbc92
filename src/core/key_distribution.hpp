// Key frequency distributions for partitioned-stateful operators (paper §3.2).
//
// A partitioned-stateful operator routes each item to a replica according to
// a partitioning-key attribute.  How well fission works on such an operator
// depends on the key frequency distribution: the most loaded replica receives
// a fraction p_max of the stream, and the operator remains a bottleneck when
// p_max * lambda > mu.  SpinStreams therefore carries the measured (or
// assumed) key frequencies in the topology description.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace ss {

/// Discrete probability distribution over the key domain of a
/// partitioned-stateful operator.  Frequencies are normalized on
/// construction; keys are identified by their index.
///
/// A distribution remembers the law it came from (its shape): `uniform()`
/// and `zipf()` record theirs, so the XML writer and the code generator can
/// emit the two-parameter law instead of every probability, and reloading it
/// rebuilds the same table bit for bit.  The normalized probabilities live
/// in one immutable table shared by every copy, so copying a distribution
/// (and the OperatorSpec or Topology holding it) is O(1).  No
/// member ever mutates the table after construction.
class KeyDistribution {
 public:
  /// The law a distribution was built from.
  enum class Shape { kExplicit, kUniform, kZipf };

  KeyDistribution() = default;

  /// Builds from raw (not necessarily normalized) non-negative frequencies;
  /// the shape is kExplicit.  Throws ss::Error if `frequencies` is empty,
  /// contains a negative value, or sums to zero.
  explicit KeyDistribution(std::vector<double> frequencies);

  /// Uniform distribution over `num_keys` keys.
  static KeyDistribution uniform(std::size_t num_keys);

  /// Zipf (power-law) distribution with scaling exponent `alpha` > 0 over
  /// `num_keys` keys; frequency of key k is proportional to 1/(k+1)^alpha.
  /// The paper generates key skew this way (§5.3).
  static KeyDistribution zipf(std::size_t num_keys, double alpha);

  [[nodiscard]] Shape shape() const { return shape_; }
  /// Zipf exponent; 0 unless shape() is kZipf.
  [[nodiscard]] double alpha() const { return alpha_; }

  [[nodiscard]] std::size_t num_keys() const { return probabilities().size(); }
  [[nodiscard]] bool empty() const { return probabilities().empty(); }

  /// Normalized frequency of key `k`.
  [[nodiscard]] double probability(std::size_t k) const { return probabilities().at(k); }

  [[nodiscard]] const std::vector<double>& probabilities() const {
    static const std::vector<double> kNone;
    return probabilities_ ? *probabilities_ : kNone;
  }

  /// Largest single-key frequency; a lower bound on p_max for any
  /// partitioning into replicas.
  [[nodiscard]] double max_probability() const;

 private:
  KeyDistribution(std::vector<double> frequencies, Shape shape, double alpha);

  std::shared_ptr<const std::vector<double>> probabilities_;
  Shape shape_ = Shape::kExplicit;
  double alpha_ = 0.0;
};

}  // namespace ss
