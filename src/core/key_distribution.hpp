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
/// partitioned-stateful operator; keys are identified by their index.
///
/// A distribution is its law: the shape, the key count and (for Zipf) the
/// exponent, held in one immutable object shared by every copy, so copying
/// a distribution (and the OperatorSpec or Topology holding it) is O(1).
/// `uniform()` and `zipf()` record only the law; the normalized table is
/// built on first use of probabilities(), probability(), max_probability()
/// or cumulative() (once, thread-safely, shared by every copy).  Key
/// frequencies matter only where Alg. 2's KeyPartitioning() splits an
/// operator over replicas, so a topology whose keyed operators run
/// unreplicated never builds one.  The law alone answers num_keys(),
/// empty(), shape() and alpha(), so the XML writer and the code generator
/// emit the two-parameter law, and reloading it rebuilds the same table bit
/// for bit.  An explicit frequency list is normalized (and validated) on
/// construction.
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

  [[nodiscard]] Shape shape() const;
  /// Zipf exponent; 0 unless shape() is kZipf.
  [[nodiscard]] double alpha() const;

  [[nodiscard]] std::size_t num_keys() const;
  [[nodiscard]] bool empty() const { return num_keys() == 0; }

  /// Normalized frequency of key `k`.
  [[nodiscard]] double probability(std::size_t k) const { return probabilities().at(k); }

  /// The normalized table (built on first use).
  [[nodiscard]] const std::vector<double>& probabilities() const;

  /// Running sums of probabilities() with the last entry pinned to 1.0:
  /// the inverse-CDF table a key draw searches with lower_bound (built on
  /// first use).
  [[nodiscard]] const std::vector<double>& cumulative() const;

  /// Largest single-key frequency; a lower bound on p_max for any
  /// partitioning into replicas.
  [[nodiscard]] double max_probability() const;

  /// Whether the normalized table exists yet (always, for an explicit
  /// list).  Read-only: tests use it to show a set-up path built none.
  [[nodiscard]] bool materialized() const;

 private:
  struct Law;
  explicit KeyDistribution(std::shared_ptr<const Law> law);

  std::shared_ptr<const Law> law_;
};

}  // namespace ss
