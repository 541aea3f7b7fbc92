#include "core/latency.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ss {

namespace {
// Treat rho above this as saturated: the M/M/1 formula diverges while the
// real system is bounded by the finite buffer.
constexpr double kSaturationThreshold = 0.99;

// Inverse of the standard normal CDF (Acklam's rational approximation,
// |relative error| < 1.15e-9 on (0,1)).
double normal_quantile(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  if (p <= 0.0) return -1e9;
  if (p >= 1.0) return 1e9;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - plow) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

// CDF of the moment-matched gamma at x (Wilson-Hilferty, the inverse of
// latency_quantile's approximation).
double gamma_cdf(double x, double mean, double var) {
  if (mean <= 0.0) return 1.0;
  if (var <= mean * mean * 1e-12) return x >= mean ? 1.0 : 0.0;  // deterministic
  if (x <= 0.0) return 0.0;
  const double shape = (mean * mean) / var;
  const double scale = var / mean;
  const double u = std::cbrt(x / (shape * scale));
  const double z = (u - (1.0 - 1.0 / (9.0 * shape))) * 3.0 * std::sqrt(shape);
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

// One mode of a multimodal path-latency distribution: the probability mass
// of tuples exiting through a family of routing paths, with the first two
// moments of their latency.  A single moment-matched gamma cannot express
// "95% of tuples take the fast branch, 5% take a 10x slower one" -- its
// p99 lands between the modes -- so percentiles are computed on a small
// mixture of per-path clusters instead.
struct Cluster {
  double w = 0.0;
  double mean = 0.0;
  double m2 = 0.0;
};
constexpr std::size_t kMaxClusters = 8;

// Moment-preserving reduction to kMaxClusters: repeatedly merge the
// adjacent (by mean) pair with the smallest Ward cost.
void merge_clusters(std::vector<Cluster>& cs) {
  std::sort(cs.begin(), cs.end(),
            [](const Cluster& a, const Cluster& b) { return a.mean < b.mean; });
  while (cs.size() > kMaxClusters) {
    std::size_t best = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i + 1 < cs.size(); ++i) {
      const double d = cs[i + 1].mean - cs[i].mean;
      const double cost = cs[i].w * cs[i + 1].w / (cs[i].w + cs[i + 1].w + 1e-300) * d * d;
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    Cluster& a = cs[best];
    const Cluster& b = cs[best + 1];
    const double w = a.w + b.w;
    a.mean = (a.w * a.mean + b.w * b.mean) / std::max(w, 1e-300);
    a.m2 = (a.w * a.m2 + b.w * b.m2) / std::max(w, 1e-300);
    a.w = w;
    cs.erase(cs.begin() + static_cast<std::ptrdiff_t>(best) + 1);
  }
}

double mixture_cdf(const std::vector<Cluster>& cs, double x) {
  double f = 0.0;
  double wt = 0.0;
  for (const Cluster& c : cs) {
    f += c.w * gamma_cdf(x, c.mean, std::max(c.m2 - c.mean * c.mean, 0.0));
    wt += c.w;
  }
  return wt > 0.0 ? f / wt : 1.0;
}

double mixture_quantile(const std::vector<Cluster>& cs, double q) {
  double hi = 0.0;
  for (const Cluster& c : cs) {
    hi = std::max(hi,
                  latency_quantile(c.mean, std::max(c.m2 - c.mean * c.mean, 0.0), q));
  }
  if (hi <= 0.0) return 0.0;
  for (int guard = 0; mixture_cdf(cs, hi) < q && guard < 64; ++guard) hi *= 2.0;
  return detail::bisect_quantile([&cs](double x) { return mixture_cdf(cs, x); }, q, 0.0, hi);
}
}  // namespace

double latency_quantile(double mean, double variance, double q) {
  if (mean <= 0.0) return 0.0;
  if (variance <= mean * mean * 1e-12) return mean;  // (near-)deterministic
  const double shape = (mean * mean) / variance;
  const double scale = variance / mean;
  const double z = normal_quantile(q);
  // Wilson-Hilferty: the cube root of a gamma variate is approximately
  // normal with mean 1 - 1/(9k) and variance 1/(9k) (in units of k*theta).
  const double cube = 1.0 - 1.0 / (9.0 * shape) + z / (3.0 * std::sqrt(shape));
  if (cube <= 0.0) return 0.0;
  return shape * scale * cube * cube * cube;
}

LatencyPercentiles latency_percentiles(double mean, double variance) {
  LatencyPercentiles p;
  p.p50 = latency_quantile(mean, variance, 0.50);
  p.p95 = latency_quantile(mean, variance, 0.95);
  p.p99 = latency_quantile(mean, variance, 0.99);
  return p;
}

LatencyEstimate estimate_latency(const Topology& t, const SteadyStateResult& rates,
                                 const ReplicationPlan& plan, std::size_t buffer_capacity,
                                 const LatencyModelInputs* inputs) {
  const std::size_t n = t.num_operators();
  assert(rates.rates.size() == n);

  // Profiler-fitted variability terms (negative / absent = use the
  // closed-form default, so a null `inputs` reproduces the original model
  // bit-for-bit).
  const auto fitted_ca2 = [&](OpIndex i) {
    if (inputs == nullptr || i >= inputs->ca2.size()) return -1.0;
    return inputs->ca2[i];
  };
  const auto fitted_stall = [&](OpIndex i) {
    if (inputs == nullptr || i >= inputs->stall_p.size()) return -1.0;
    return std::min(inputs->stall_p[i], 1.0);
  };

  LatencyEstimate estimate;
  estimate.response.assign(n, 0.0);
  estimate.response_var.assign(n, 0.0);
  estimate.congested.assign(n, false);
  estimate.window_delay.assign(n, 0.0);
  estimate.to_sink.assign(n, 0.0);

  const double kSlots = static_cast<double>(buffer_capacity) + 1.0;  // queue + in service

  // Mean number of items in an M/M/1/K system (K slots) at offered load
  // rho; finite everywhere, ~K for rho >> 1 and K/2 at rho == 1.
  const auto finite_queue_len = [kSlots](double rho) {
    rho = std::max(rho, 1e-12);
    if (rho > 1.5) return kSlots;  // deep overload: pinned full
    if (std::abs(rho - 1.0) < 1e-6) return 0.5 * kSlots;
    const double rk = std::pow(rho, kSlots + 1.0);
    const double len = rho / (1.0 - rho) - (kSlots + 1.0) * rk / (1.0 - rk);
    return std::min(std::max(len, 0.0), kSlots);
  };

  const auto& order = t.topological_order();
  std::vector<double> lambda_hot(n, 0.0);   // served arrival, most loaded replica
  std::vector<double> fill(n, 0.0);         // modelled hot-queue fill, 0..1
  std::vector<char> pinned(n, 0);           // buffer pinned full

  // Pass A (forward topological): *offered* arrival rates -- what each
  // operator would receive if only raw upstream capacities throttled the
  // flow, with the source at its natural (uncorrected) rate.  Operators
  // between the source and the binding bottleneck see offered > served
  // (the testbed paces sources faster than the network can drain); behind
  // the bottleneck the offered flow is capacity-capped down to the served
  // rate.  The comparison tells the congestion model on which side of the
  // binding constraint an operator sits.
  std::vector<double> offered(n, 0.0);
  for (const OpIndex i : order) {
    const OperatorSpec& op = t.op(i);
    const double gain = op.selectivity.output / std::max(op.selectivity.input, 1.0);
    double out_rate = 0.0;
    if (i == t.source()) {
      offered[i] = op.service_rate();
      out_rate = op.service_rate() * gain;
    } else {
      const double cap = op.service_rate() / plan.max_share_of(i);  // aggregate
      out_rate = std::min(offered[i], cap) * gain;
    }
    for (const Edge& e : t.out_edges(i)) offered[e.to] += e.probability * out_rate;
  }

  // Pass B (reverse topological): congestion and responses, children
  // before parents.
  //
  // Queue length of one replica:
  //   * open: the M/M/1/K occupancy at its served load, capped at the
  //     *damped critical length* (K/2) / n^(1/4) for fission groups -- the
  //     split per-replica streams are smoother than Poisson and the
  //     backpressure loop couples the n queues, so the standing queue a
  //     critically loaded replica can sustain shrinks with the replica
  //     count (DES: ~K/2 for n = 1 down to ~K/7 for n > 100, well fit by
  //     (K/2) n^(-1/4)).  Away from criticality the cap is inactive and
  //     the plain M/M/1/K length applies.
  //   * pinned: interpolates from the damped critical length up to the
  //     full buffer with the overload ratio x = offered/served,
  //       len = len_crit + (K - len_crit) (1 - 1/x)
  //     (x ~ 1: critically loaded, continuous with the open model; x >> 1:
  //     a deeply overloaded chain pins the buffer full).
  // The response is len drained at the served throughput: an ~exponential
  // sojourn for open queues (the exact M/M/1 law), with the waiting
  // portion scaled by the Allen-Cunneen arrival-variability factor
  // (round-robin fission regularizes arrivals: ca^2 = 1/n), and an
  // Erlang(len)-like tail for a pinned standing queue.
  //
  // An operator is pinned full when its own load times its *effective*
  // service (own service plus expected stalls pushing into congested
  // children) saturates it, or when most of its results push into pinned
  // queues while upstream offers more than it can forward: BAS rate-
  // matches its service to the drain and the whole chain up to the source
  // runs pinned.  A *minor* supplier of a pinned child stalls only
  // occasionally and keeps catching up -- its queue stays short, which is
  // exactly what the DES shows for starved side branches next to a pinned
  // main chain.
  //
  // Stall probabilities per push attempt:
  //   * into a pinned child: flow conservation fixes the long-run blocked
  //     fraction exactly -- the child admits served/offered of what
  //     arrives, so 1 - arrival/offered of the pushes wait a full drain
  //     interval (the DES blocked fractions match this within a few
  //     percent: a 1.33x-overdriven chain blocks ~25% of pushes, a 1.06x
  //     residual bottleneck ~6%).
  //   * into an open but near-critical child: transient full-buffer
  //     episodes block ~fill^2 of pushes for about one service completion
  //     (fitted to DES blocked fractions upstream of rho ~ 0.98 fission
  //     groups).
  struct Response {
    double mean = 0.0;
    double var = 0.0;
  };
  std::vector<double> s_eff_v(n, 0.0);  // service + expected downstream stalls
  const auto replica_response = [&](double lambda, double service, double ca2,
                                    double damp, double overload) {
    Response resp;
    lambda = std::max(lambda, 1e-9);
    const double crit = finite_queue_len(0.995) / damp;
    if (overload > 0.0) {  // pinned: standing queue drained at lambda
      const double shortfall = 1.0 - 1.0 / overload;
      const double len = crit + (kSlots - crit) * shortfall;
      resp.mean = len / lambda;
      // Deeply overloaded: the wait is an Erlang(len) drain of a full
      // buffer (variance mean^2/len).  At the x ~ 1 criticality edge the
      // queue still fluctuates and the tail fattens toward exponential;
      // interpolate with the shortfall (floored: even a critical standing
      // queue drains with less-than-exponential variability).
      const double blend = std::max(shortfall, 0.15);
      resp.var = resp.mean * resp.mean / (1.0 + (len - 1.0) * blend);
      return resp;
    }
    const double rho = std::min(lambda * service, 0.995);
    const double len = std::min(finite_queue_len(rho), crit);
    const double wait = std::max(len / lambda - service, 0.0);
    resp.mean = service + 0.5 * (ca2 + 1.0) * wait;
    resp.var = resp.mean * resp.mean;  // exponential sojourn
    return resp;
  };

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const OpIndex i = *it;
    const OperatorSpec& op = t.op(i);
    const OperatorRates& r = rates.rates[i];
    const int replicas = plan.replicas_of(i);
    const double pmax = plan.max_share_of(i);
    lambda_hot[i] = r.arrival * pmax;

    if (i == t.source()) {
      // Generation time only; exponential inter-generation times.
      estimate.response[i] = op.service_time;
      estimate.response_var[i] = op.service_time * op.service_time;
      continue;
    }

    const double results_per_input =
        op.selectivity.output / std::max(op.selectivity.input, 1.0);
    double stall = 0.0;
    double stall2 = 0.0;
    double chain_feed = 0.0;  // fraction of a pinned child's inflow we supply
    for (const Edge& e : t.out_edges(i)) {
      const OpIndex j = e.to;
      const double arr_j = std::max(rates.rates[j].arrival, 1e-9);
      if (pinned[j]) {
        // Conservation: the blocked fraction equals the child's overload
        // shortfall.  A stalled push waits ~one drain interval of the hit
        // replica; for a partitioned child only the hot replica is pinned
        // and only key-share pmax of the pushes hit it.
        const double p_full =
            std::clamp(1.0 - arr_j / std::max(offered[j], arr_j), 0.0, 1.0);
        double hit = 1.0;
        double wait = 0.0;
        if (t.op(j).state == StateKind::kPartitionedStateful &&
            plan.replicas_of(j) > 1) {
          hit = plan.max_share_of(j);
          wait = 1.0 / std::max(lambda_hot[j], 1e-9);
        } else {
          wait = static_cast<double>(plan.replicas_of(j)) / arr_j;
        }
        stall += e.probability * hit * p_full * wait;
        stall2 += e.probability * hit * p_full * 2.0 * wait * wait;  // ~exp stalls
        const double supply = r.arrival * results_per_input * e.probability / arr_j;
        chain_feed += e.probability * hit * std::min(supply, 1.0);
      } else {
        // Transient blocking on a busy open child: the target replica's
        // buffer is full ~fill^3 of the time, freeing a slot takes ~one
        // service completion.  A profiler-measured full-buffer fraction
        // (queue-occupancy sampling) replaces the fill^3 heuristic.
        const double measured = fitted_stall(j);
        const double p_full =
            measured >= 0.0 ? measured : fill[j] * fill[j] * fill[j];
        if (p_full > 0.0) {
          const double wait = s_eff_v[j];
          stall += e.probability * p_full * wait;
          stall2 += e.probability * p_full * 2.0 * wait * wait;
        }
      }
    }
    const double s_eff = op.service_time + results_per_input * stall;
    double stall_var = results_per_input * stall2;
    s_eff_v[i] = s_eff;

    pinned[i] = lambda_hot[i] * s_eff >= kSaturationThreshold ||
                (chain_feed >= 0.5 && offered[i] > 1.05 * r.arrival);
    if (pinned[i]) stall_var = 0.0;  // the drain model owns the variance
    estimate.congested[i] = pinned[i] != 0;

    const double damp =
        replicas > 1 ? std::pow(static_cast<double>(replicas), 0.25) : 1.0;
    // Arrival variability: the fitted base ca^2 when the profiler measured
    // one, exponential (1.0) otherwise; round-robin fission divides either
    // by the replica count (n-way splitting of any renewal stream).
    const double measured_ca2 = fitted_ca2(i);
    const double base_ca2 = measured_ca2 >= 0.0 ? measured_ca2 : 1.0;
    const double ca2 = (op.state == StateKind::kStateless && replicas > 1)
                           ? base_ca2 / static_cast<double>(replicas)
                           : base_ca2;
    const double overload =
        pinned[i] ? std::max(offered[i] / std::max(r.arrival, 1e-9), 1.0) : 0.0;
    const Response hot = replica_response(lambda_hot[i], s_eff, ca2, damp, overload);
    // Little's law: standing length of the hot replica's queue.
    fill[i] =
        std::min(std::max(lambda_hot[i], 1e-9) * hot.mean / kSlots, 1.0);

    if (op.state == StateKind::kPartitionedStateful && replicas > 1 && pmax < 1.0) {
      // Flow-weighted mixture over replicas: share pmax of the stream hits
      // the hot replica, the rest spreads over the n-1 cooler ones.
      const double lambda_cold =
          r.arrival * (1.0 - pmax) / static_cast<double>(replicas - 1);
      const Response cold = replica_response(lambda_cold, s_eff, 1.0, damp, 0.0);
      const double mean = pmax * hot.mean + (1.0 - pmax) * cold.mean;
      const double second = pmax * (hot.var + hot.mean * hot.mean) +
                            (1.0 - pmax) * (cold.var + cold.mean * cold.mean);
      estimate.response[i] = mean;
      estimate.response_var[i] = std::max(second - mean * mean, 0.0) + stall_var;
    } else {
      estimate.response[i] = hot.mean;
      estimate.response_var[i] = hot.var + stall_var;
    }

    // Windowed buffering: a result carries items that waited up to a full
    // slide; on average half a slide's worth of inter-arrival times.
    if (op.selectivity.input > 1.0 && r.arrival > 0.0) {
      estimate.window_delay[i] = (op.selectivity.input - 1.0) / (2.0 * r.arrival);
    }
  }

  // Backward pass for the legacy analytic remaining latency (includes
  // window delay and the source's generation time).
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const OpIndex i = *it;
    double downstream = 0.0;
    for (const Edge& e : t.out_edges(i)) {
      downstream += e.probability * estimate.to_sink[e.to];
    }
    estimate.to_sink[i] = estimate.response[i] + estimate.window_delay[i] + downstream;
  }
  estimate.end_to_end = estimate.to_sink[t.source()];

  // Two-moment backward pass for the measured-comparable tuple latency
  // (excludes source generation and window delay: an emitted result
  // inherits the freshest contributing input's timestamp).  The measured
  // distribution averages over *sink-emitted results*, so each branch is
  // weighted by its exit count, not its routing probability: a branch
  // through a size-s window emits s times fewer results per routed item.
  //   exits(i) = g_i                          for a sink (every result leaves)
  //   exits(i) = g_i * sum_j p(i,j) exits(j)  otherwise
  std::vector<double> exits(n, 0.0);
  std::vector<double> m(n, 0.0);   // mean latency from arrival at i to exit
  std::vector<double> m2(n, 0.0);  // second moment of the same
  // Per-path clusters for percentiles (see Cluster): the remaining-latency
  // distribution from arrival at i, normalized to total weight 1.
  std::vector<std::vector<Cluster>> clusters(n);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const OpIndex i = *it;
    const OperatorSpec& op = t.op(i);
    const double gain = op.selectivity.output / std::max(op.selectivity.input, 1.0);
    double down_exits = 0.0;
    double down_mean = 0.0;
    double down_m2 = 0.0;
    std::vector<Cluster> cs;
    for (const Edge& e : t.out_edges(i)) {
      const double wgt = e.probability * exits[e.to];
      down_exits += wgt;
      down_mean += wgt * m[e.to];
      down_m2 += wgt * m2[e.to];
      for (const Cluster& c : clusters[e.to]) {
        if (wgt * c.w > 0.0) cs.push_back(Cluster{wgt * c.w, c.mean, c.m2});
      }
    }
    if (t.out_edges(i).empty()) {
      exits[i] = gain;
    } else {
      exits[i] = gain * down_exits;
      if (down_exits > 0.0) {
        down_mean /= down_exits;
        down_m2 /= down_exits;
      }
    }
    if (cs.empty()) cs.push_back(Cluster{1.0, 0.0, 0.0});
    const double w = estimate.response[i];
    const double w2 = estimate.response_var[i] + w * w;
    m[i] = w + down_mean;
    m2[i] = w2 + 2.0 * w * down_mean + down_m2;
    double wt = 0.0;
    for (const Cluster& c : cs) wt += c.w;
    for (Cluster& c : cs) {
      c.w /= std::max(wt, 1e-300);
      c.m2 = w2 + 2.0 * w * c.mean + c.m2;
      c.mean = w + c.mean;
    }
    merge_clusters(cs);
    clusters[i] = std::move(cs);
  }
  double exit_total = 0.0;
  double mean = 0.0;
  double second = 0.0;
  std::vector<Cluster> mix;
  for (const Edge& e : t.out_edges(t.source())) {
    const double wgt = e.probability * exits[e.to];
    exit_total += wgt;
    mean += wgt * m[e.to];
    second += wgt * m2[e.to];
    for (const Cluster& c : clusters[e.to]) {
      if (wgt * c.w > 0.0) mix.push_back(Cluster{wgt * c.w, c.mean, c.m2});
    }
  }
  if (exit_total > 0.0) {
    mean /= exit_total;
    second /= exit_total;
  }
  estimate.sojourn_mean = mean;
  estimate.sojourn_var = std::max(second - mean * mean, 0.0);
  if (mix.empty()) {
    estimate.sojourn = latency_percentiles(estimate.sojourn_mean, estimate.sojourn_var);
  } else {
    merge_clusters(mix);
    estimate.sojourn.p50 = mixture_quantile(mix, 0.50);
    estimate.sojourn.p95 = mixture_quantile(mix, 0.95);
    estimate.sojourn.p99 = mixture_quantile(mix, 0.99);
  }
  return estimate;
}

}  // namespace ss
