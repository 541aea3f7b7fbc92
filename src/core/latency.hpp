// Latency estimation on top of the steady-state analysis (extension).
//
// The paper's models target throughput; its introduction names latency as
// the other first-class metric.  This module derives per-operator response
// times from the Alg. 1 rates with queueing approximations calibrated
// against the discrete-event simulator (tests/latency_model_test):
//
//   * open operator (rho < 1): per-replica M/M/1/K occupancy drained at
//       the served rate, with the waiting portion scaled by the
//       Allen-Cunneen arrival-variability factor (ca^2 + cs^2) / 2.
//       Round-robin fission splits a Poisson-ish stream into n-way Erlang
//       interarrivals (ca^2 = 1/n), so replicated stateless operators wait
//       *less* than an independent M/M/1 would.  The standing queue a
//       critically loaded fission replica can sustain shrinks with the
//       replica count -- the occupancy is capped at (K/2) / n^(1/4).
//   * pinned operator: a saturated operator -- and every major supplier of
//       one, transitively up to the source -- holds a standing queue under
//       BAS backpressure.  Its length interpolates from the damped
//       critical occupancy to the full buffer with the overload ratio
//       x = offered/served rate, and an admitted item drains it at the
//       served per-replica throughput.
//   * stalls: a push into a pinned child blocks for a drain interval with
//       the conservation probability 1 - served/offered; a push into a
//       busy open child blocks ~fill^3 of the time for ~one service
//       completion.  Expected stalls inflate the parent's effective
//       service time (BAS rate-matching).
//
// Percentile model: an open response is ~exponential (the exact M/M/1
// sojourn law; variance W^2), a pinned response tightens toward an
// Erlang(len) drain as the overload grows.  Responses compose along
// routing paths by the two-moment recursion
//   m(i)  = W(i) + sum_j p(i,j) m(j)
//   m2(i) = E[W(i)^2] + 2 W(i) sum_j p(i,j) m(j) + sum_j p(i,j) m2(j)
// with each branch weighted by its *exit count* (results emitted per
// routed item), and the end-to-end distribution is kept as a small
// mixture of moment-matched gamma components per operator (adjacent
// components merged moment-preservingly), so multimodal path mixes keep
// their tails.  Quantiles come from bisection on the mixture CDF via the
// Wilson-Hilferty gamma approximation (exact-ish for a single
// exponential hop: p99 within 1%).
//
// Two end-to-end figures are reported:
//   * end_to_end: the analytic source-to-sink expectation including the
//     source generation time and window buffering delay (legacy field), and
//   * sojourn_*: the distribution of the *measured* tuple latency -- source
//     emission to sink departure, excluding the source's own generation
//     time and window buffering (an emitted result inherits the timestamp
//     of the freshest contributing input, in both the runtime and the DES).
// Validation against DES virtual-time latencies (tests/latency_model_test)
// compares sojourn_mean / sojourn.p99.
#pragma once

#include <cstddef>
#include <vector>

#include "core/steady_state.hpp"
#include "core/topology.hpp"

namespace ss {

/// Selected quantiles of a latency distribution, in seconds.
struct LatencyPercentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Quantile `q` (in (0,1)) of a nonnegative distribution with the given
/// mean and variance, via a moment-matched gamma and the Wilson-Hilferty
/// cube approximation.  Returns `mean` for (near-)zero variance.
double latency_quantile(double mean, double variance, double q);

/// p50/p95/p99 of a moment-matched gamma distribution.
LatencyPercentiles latency_percentiles(double mean, double variance);

namespace detail {
/// The bisection behind the mixture percentiles: the point where the
/// monotone `cdf` reaches `q` inside the bracket [lo, hi], halved at most
/// 80 times.  It stops as soon as the midpoint equals an end of the
/// bracket: the bracket can no longer shrink, every later step would
/// recompute the same midpoint, and that midpoint is what the full 80
/// steps return.  In the header so tests can reach it.
template <typename Cdf>
double bisect_quantile(const Cdf& cdf, double q, double lo, double hi) {
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) return mid;
    (cdf(mid) < q ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}
}  // namespace detail

struct LatencyEstimate {
  /// Expected response time (queueing + service) per operator, seconds.
  std::vector<double> response;
  /// Variance of the per-operator response (exponential for open queues,
  /// Erlang(B+1) for congested ones).
  std::vector<double> response_var;
  /// True for operators predicted to run with a backpressure-full input
  /// buffer: saturated operators and everything upstream of one.
  std::vector<bool> congested;
  /// Expected window-buffering delay per operator (0 for non-windowed).
  std::vector<double> window_delay;
  /// Expected remaining latency from each operator to a sink.
  std::vector<double> to_sink;
  /// Expected end-to-end latency of one item, source to sink, seconds
  /// (includes source generation time and window delay; legacy figure).
  double end_to_end = 0.0;

  /// Mean / variance / percentiles of the measured-comparable tuple
  /// latency: source emission to sink departure (see file comment).
  double sojourn_mean = 0.0;
  double sojourn_var = 0.0;
  LatencyPercentiles sojourn;

  /// Percentiles of one operator's response time.
  [[nodiscard]] LatencyPercentiles response_percentiles(OpIndex i) const {
    return latency_percentiles(response.at(i), response_var.at(i));
  }
};

/// Measured variability terms that replace the model's closed-form
/// defaults when an online profiler has fitted them (Beard & Chamberlain
/// style run-time approximation).  Both vectors are indexed by OpIndex and
/// may be empty; a negative (or missing) entry means "no measurement, keep
/// the default".
///
///   * ca2[i]: squared coefficient of variation of operator i's *arrival*
///     process.  The default assumes exponential arrivals (ca² = 1);
///     fitted values feed the Allen-Cunneen waiting term directly, so
///     bursty (ca² > 1) or smoothed (ca² < 1) streams predict their tails
///     honestly.  Round-robin fission still divides the base ca² by the
///     replica count (n-way splitting of any renewal stream).
///   * stall_p[i]: measured probability that a push *into* operator i
///     finds its buffer full (queue-occupancy sampling).  Replaces the
///     fill³ heuristic for open children when present.
struct LatencyModelInputs {
  std::vector<double> ca2;
  std::vector<double> stall_p;

  [[nodiscard]] bool empty() const { return ca2.empty() && stall_p.empty(); }
};

/// Estimates latencies for `t` under the rates of a prior steady_state()
/// run.  Utilizations are re-derived from `rates.arrival` and `plan`, so a
/// different plan than the one `rates` was computed with answers the
/// counterfactual "same arrivals, different replication" (used by the
/// latency-aware optimizer and the monotonicity property tests).
/// `buffer_capacity` is the mailbox bound B of the runtime configuration.
/// `inputs`, when non-null, overrides the closed-form variability terms
/// with profiler-fitted ones (see LatencyModelInputs); passing nullptr
/// reproduces the original model exactly.
LatencyEstimate estimate_latency(const Topology& t, const SteadyStateResult& rates,
                                 const ReplicationPlan& plan = {},
                                 std::size_t buffer_capacity = 64,
                                 const LatencyModelInputs* inputs = nullptr);

}  // namespace ss
