// Tests of the latency-estimation extension: M/M/1 response times,
// saturation capping, window buffering delay, path-weighted end-to-end
// composition, and agreement with queueing-theory ground truths.
#include "core/latency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "core/topology.hpp"

namespace ss {
namespace {

constexpr double kMs = 1e-3;

TEST(Latency, SingleQueueMatchesMm1) {
  // Source at 500/s into a 1 ms server: rho = 0.5, W = 1/(1000-500) = 2 ms.
  Topology::Builder b;
  b.add_operator("src", 2.0 * kMs);
  b.add_operator("q", 1.0 * kMs);
  b.add_edge(0, 1);
  Topology t = b.build();
  SteadyStateResult rates = steady_state(t);
  LatencyEstimate est = estimate_latency(t, rates);
  EXPECT_NEAR(est.response[1], 2.0 * kMs, 1e-9);
  EXPECT_NEAR(est.end_to_end, (2.0 + 2.0) * kMs, 1e-9);
}

TEST(Latency, ResponseGrowsWithUtilization) {
  double previous = 0.0;
  for (double source_ms : {4.0, 2.0, 1.3, 1.05}) {
    Topology::Builder b;
    b.add_operator("src", source_ms * kMs);
    b.add_operator("q", 1.0 * kMs);
    b.add_edge(0, 1);
    Topology t = b.build();
    LatencyEstimate est = estimate_latency(t, steady_state(t));
    EXPECT_GT(est.response[1], previous);
    previous = est.response[1];
  }
}

TEST(Latency, SaturatedOperatorCappedByBuffer) {
  // Bottleneck overdriven 4x: the buffer pins toward full and the response
  // is the standing queue drained at the served rate -- bounded by the
  // half-full critical queue below and the full buffer above, never
  // infinity.
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("slow", 4.0 * kMs);
  b.add_edge(0, 1);
  Topology t = b.build();
  SteadyStateResult rates = steady_state(t);
  LatencyEstimate est = estimate_latency(t, rates, {}, /*buffer_capacity=*/16);
  EXPECT_TRUE(est.congested[1]);
  const double drain = 4.0 * kMs;  // per-item drain interval at mu
  EXPECT_GE(est.response[1], 0.5 * 17.0 * drain);
  EXPECT_LE(est.response[1], 17.0 * drain);
}

TEST(Latency, ReplicasReduceResponse) {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("work", 2.0 * kMs);
  b.add_edge(0, 1);
  Topology t = b.build();

  ReplicationPlan plan;
  plan.replicas = {1, 4};
  SteadyStateResult rates = steady_state(t, plan);
  LatencyEstimate est = estimate_latency(t, rates, plan);
  // Per replica: lambda = 250/s, mu = 500/s.  Round-robin fission
  // regularizes arrivals (ca^2 = 1/4), so the Allen-Cunneen wait is
  // (1/4 + 1)/2 * 2 ms = 1.25 ms on top of the 2 ms service: 3.25 ms
  // (vs saturation without fission, and vs 4 ms for an independent M/M/1).
  EXPECT_NEAR(est.response[1], 3.25 * kMs, 1e-9);
  EXPECT_NEAR(est.response_var[1], 3.25 * kMs * 3.25 * kMs, 1e-12);
}

TEST(Latency, PercentilesExactForSingleExponentialHop) {
  // M/M/1 response is exponential: p99 = ln(100) * W.  The moment-matched
  // gamma (shape 1) + Wilson-Hilferty quantile should land within 1%.
  Topology::Builder b;
  b.add_operator("src", 2.0 * kMs);
  b.add_operator("q", 1.0 * kMs);
  b.add_edge(0, 1);
  Topology t = b.build();
  LatencyEstimate est = estimate_latency(t, steady_state(t));
  const double w = est.response[1];
  EXPECT_NEAR(est.sojourn_mean, w, 1e-12);
  EXPECT_NEAR(est.sojourn.p50, std::log(2.0) * w, 0.02 * w);
  EXPECT_NEAR(est.sojourn.p99, std::log(100.0) * w, 0.02 * std::log(100.0) * w);
}

TEST(Latency, CongestionPropagatesUpstreamOfBottleneck) {
  // src -> mid -> slow: slow saturates, so mid's buffer is also full under
  // BAS even though mid's own utilization is low.
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("mid", 0.5 * kMs);
  b.add_operator("slow", 4.0 * kMs);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  Topology t = b.build();
  SteadyStateResult rates = steady_state(t);
  LatencyEstimate est = estimate_latency(t, rates, {}, /*buffer_capacity=*/16);
  EXPECT_TRUE(est.congested[2]);
  EXPECT_TRUE(est.congested[1]);
  EXPECT_FALSE(est.congested[0]);
  // mid holds a standing queue drained at the throttled throughput
  // (250/s), not at its own mu (2000/s): far above its open-queue
  // response, bounded by the full buffer.
  const double drain = 1.0 / rates.rates[1].arrival;
  EXPECT_GE(est.response[1], 0.5 * 17.0 * drain);
  EXPECT_LE(est.response[1], 17.0 * drain);
  // Standing-queue drain tail: variance well below the exponential mean^2.
  EXPECT_LT(est.response_var[1], est.response[1] * est.response[1] / 2.0);
}

TEST(Latency, PathWeightedEndToEnd) {
  // Fork: fast branch (p=0.8) and slow branch (p=0.2); end-to-end is the
  // probability-weighted mix.
  Topology::Builder b;
  b.add_operator("src", 2.0 * kMs);
  b.add_operator("fast", 0.5 * kMs);
  b.add_operator("slow", 1.0 * kMs);
  b.add_edge(0, 1, 0.8);
  b.add_edge(0, 2, 0.2);
  Topology t = b.build();
  SteadyStateResult rates = steady_state(t);
  LatencyEstimate est = estimate_latency(t, rates);
  const double expected =
      est.response[0] + 0.8 * est.response[1] + 0.2 * est.response[2];
  EXPECT_NEAR(est.end_to_end, expected, 1e-12);
}

TEST(Latency, WindowedOperatorsReportBufferingDelay) {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("window", 0.2 * kMs, StateKind::kStateful, Selectivity{10.0, 1.0});
  b.add_edge(0, 1);
  Topology t = b.build();
  SteadyStateResult rates = steady_state(t);
  LatencyEstimate est = estimate_latency(t, rates);
  // (s-1)/(2*lambda) = 9 / 2000 = 4.5 ms of average slide wait.
  EXPECT_NEAR(est.window_delay[1], 4.5 * kMs, 1e-9);
  EXPECT_DOUBLE_EQ(est.window_delay[0], 0.0);
  EXPECT_GT(est.end_to_end, est.window_delay[1]);
}

TEST(Latency, SourceContributesGenerationTimeOnly) {
  Topology::Builder b;
  b.add_operator("src", 3.0 * kMs);
  b.add_operator("sink", 0.1 * kMs);
  b.add_edge(0, 1);
  Topology t = b.build();
  LatencyEstimate est = estimate_latency(t, steady_state(t));
  EXPECT_NEAR(est.response[0], 3.0 * kMs, 1e-12);
}

// ------------------------------------------------------ quantile bisection

/// The mixture-percentile bisection as it was before it stopped early: a
/// fixed 80 halvings of the bracket.
template <typename Cdf>
double bisect_fixed_80(const Cdf& cdf, double q, double lo, double hi) {
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    (cdf(mid) < q ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

/// Wilson-Hilferty CDF of the gamma with this mean and variance: the law of
/// one component of the latency model's mixtures.
double wilson_hilferty_cdf(double x, double mean, double var) {
  if (x <= 0.0) return 0.0;
  const double shape = mean * mean / var;
  const double u = std::cbrt(x / mean);
  const double z = (u - (1.0 - 1.0 / (9.0 * shape))) * 3.0 * std::sqrt(shape);
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

TEST(QuantileBisection, StopsEarlyAndReturnsTheFixedLoopsDouble) {
  std::mt19937_64 rng(2018);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double qs[] = {0.5, 0.95, 0.99};
  std::uint64_t fixed_evals = 0;
  std::uint64_t early_evals = 0;

  // Gamma mixtures of 1-8 components, bracketed the way the model brackets
  // them: the largest component quantile, doubled until the CDF passes q.
  // (The model returns 0 without a search when that quantile is 0.)
  int searched = 0;
  for (int trial = 0; searched < 1200; ++trial) {
    struct Component {
      double w, mean, var;
    };
    std::vector<Component> mix(1 + trial % 8);
    for (Component& c : mix) {
      c.w = 0.05 + unit(rng);
      c.mean = std::pow(10.0, -6.0 + 5.0 * unit(rng));
      c.var = c.mean * c.mean * std::pow(10.0, -2.0 + 3.0 * unit(rng));
    }
    const auto cdf = [&mix](double x) {
      double f = 0.0;
      double wt = 0.0;
      for (const Component& c : mix) {
        f += c.w * wilson_hilferty_cdf(x, c.mean, c.var);
        wt += c.w;
      }
      return f / wt;
    };
    const double q = trial % 4 == 3 ? unit(rng) : qs[trial % 4];
    double hi = 0.0;
    for (const Component& c : mix) hi = std::max(hi, latency_quantile(c.mean, c.var, q));
    if (hi <= 0.0) continue;
    ++searched;
    for (int guard = 0; cdf(hi) < q && guard < 64; ++guard) hi *= 2.0;
    const auto counted = [&cdf](std::uint64_t& evals) {
      return [&cdf, &evals](double x) {
        ++evals;
        return cdf(x);
      };
    };
    const double want = bisect_fixed_80(counted(fixed_evals), q, 0.0, hi);
    const double got = detail::bisect_quantile(counted(early_evals), q, 0.0, hi);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << "mixture trial " << trial << ": " << got << " vs " << want;
  }
  // A double has 53 bits of mantissa, so a bracket starting at 0 converges
  // well inside 80 halvings: the early stop must skip a real share of them.
  EXPECT_LT(early_evals * 10, fixed_evals * 9) << early_evals << " of " << fixed_evals;

  // Step CDFs in brackets only a few ulps (or subnormal steps) wide: the
  // bracket converges within 10 halvings, so both loops run mostly on a
  // bracket that can no longer shrink.
  for (int trial = 0; trial < 1200; ++trial) {
    const int ulps = 1 + static_cast<int>(unit(rng) * 255);  // <= 2^8
    const double lo = trial % 3 == 0 ? 0.0 : std::pow(10.0, -9.0 + 12.0 * unit(rng));
    double hi = lo;
    for (int i = 0; i < ulps; ++i) hi = std::nextafter(hi, 1e300);
    double step = lo;
    const int at = static_cast<int>(unit(rng) * (ulps + 1));
    for (int i = 0; i < at; ++i) step = std::nextafter(step, 1e300);
    const auto cdf = [step](double x) { return x >= step ? 1.0 : 0.0; };
    const double q = trial % 2 == 0 ? 0.5 : 1.0;
    std::uint64_t evals = 0;
    const double want = bisect_fixed_80(cdf, q, lo, hi);
    const double got = detail::bisect_quantile(
        [&](double x) {
          ++evals;
          return cdf(x);
        },
        q, lo, hi);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << "step trial " << trial << ": bracket [" << lo << ", " << hi << "] step " << step;
    EXPECT_LE(evals, 10u) << "step trial " << trial;
  }
}

}  // namespace
}  // namespace ss
