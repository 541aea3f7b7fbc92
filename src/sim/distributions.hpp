// Service-time laws for the discrete-event simulator.
//
// The paper's flow-conservation model is distribution-agnostic (§3.1: "this
// condition is always valid regardless of the statistical distributions of
// the service rates, e.g., Poisson, Normal or Deterministic").  The
// simulator therefore supports several laws so that claim can be exercised.
#pragma once

#include <cstdint>

#include "gen/rng.hpp"

namespace ss::sim {

struct ServiceLaw {
  enum class Kind : std::uint8_t {
    kDeterministic,  ///< always exactly the mean
    kExponential,    ///< memoryless (M/M-style stations)
    kNormal,         ///< truncated normal, sigma = cv * mean
    kLogNormal,      ///< heavy-ish tail, sigma parameter from cv
  };

  Kind kind = Kind::kExponential;
  /// Coefficient of variation for kNormal / kLogNormal.
  double cv = 0.25;

  /// Draws one service time with the given mean (> 0; results are clamped
  /// to a tiny positive floor so time always advances).
  [[nodiscard]] double sample(double mean, Rng& rng) const;

  static constexpr ServiceLaw deterministic() { return {Kind::kDeterministic, 0.0}; }
  static constexpr ServiceLaw exponential() { return {Kind::kExponential, 0.0}; }
  static constexpr ServiceLaw normal(double cv = 0.25) { return {Kind::kNormal, cv}; }
  static constexpr ServiceLaw lognormal(double cv = 0.25) { return {Kind::kLogNormal, cv}; }
};

}  // namespace ss::sim
