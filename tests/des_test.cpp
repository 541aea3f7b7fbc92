// Tests of the discrete-event BAS simulator: agreement with Algorithm 1
// across hand-built topologies, service-time laws (the distribution-
// agnosticism claim of §3.1), selectivity, fission plans, and determinism.
#include "sim/des.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/steady_state.hpp"
#include "core/topology.hpp"

namespace ss::sim {
namespace {

constexpr double kMs = 1e-3;

Topology bottleneck_pipeline() {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("slow", 4.0 * kMs);
  b.add_operator("sink", 0.1 * kMs);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  return b.build();
}

SimOptions quick(double duration = 80.0) {
  SimOptions o;
  o.duration = duration;
  o.seed = 7;
  return o;
}

TEST(Des, MatchesModelOnBottleneckPipeline) {
  Topology t = bottleneck_pipeline();
  SimResult sim = simulate(t, quick());
  const double predicted = steady_state(t).throughput();  // 250/s
  EXPECT_NEAR(sim.throughput, predicted, 0.04 * predicted);
  EXPECT_NEAR(sim.sink_rate, predicted, 0.04 * predicted);
}

TEST(Des, SaturatedServerHasFullUtilization) {
  Topology t = bottleneck_pipeline();
  SimResult sim = simulate(t, quick());
  EXPECT_GT(sim.ops[1].busy_fraction, 0.95);
  EXPECT_LT(sim.ops[2].busy_fraction, 0.2);
}

TEST(Des, VirtualTimeLatencyPercentilesAreFilledAndOrdered) {
  Topology t = bottleneck_pipeline();
  SimResult sim = simulate(t, quick());
  // End-to-end: birth at the source to leaving the system at a sink.
  ASSERT_GT(sim.end_to_end.count, 0u);
  EXPECT_GT(sim.end_to_end.p50, 0.0);
  EXPECT_LE(sim.end_to_end.p50, sim.end_to_end.p95);
  EXPECT_LE(sim.end_to_end.p95, sim.end_to_end.p99);
  // Per-op latency is source stamp -> service start (the runtime's metering
  // convention), so it accumulates along the pipeline: the sink's delay
  // includes the saturated stage's queueing plus its service time.
  for (OpIndex i = 1; i < t.num_operators(); ++i) {
    EXPECT_GT(sim.ops[i].latency.count, 0u) << "op " << i;
  }
  EXPECT_GT(sim.ops[2].latency.p50, sim.ops[1].latency.p50);
  // End-to-end cannot be shorter than the delay to the bottleneck.
  EXPECT_GE(sim.end_to_end.p50, sim.ops[1].latency.p50);
}

TEST(Des, NoBottleneckRunsAtSourceRate) {
  Topology::Builder b;
  b.add_operator("src", 2.0 * kMs);
  b.add_operator("fast", 0.5 * kMs);
  b.add_operator("sink", 0.1 * kMs);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  Topology t = b.build();
  SimResult sim = simulate(t, quick());
  EXPECT_NEAR(sim.throughput, 500.0, 0.03 * 500.0);
}

struct LawCase {
  ServiceLaw law;
  const char* name;
};

class DesLawTest : public ::testing::TestWithParam<LawCase> {};

// Flow conservation holds regardless of the service distribution (§3.1).
TEST_P(DesLawTest, ThroughputMatchesModelUnderEveryLaw) {
  Topology t = bottleneck_pipeline();
  SimOptions o = quick(120.0);
  o.law = GetParam().law;
  SimResult sim = simulate(t, o);
  const double predicted = steady_state(t).throughput();
  // Deterministic service converges tightest; stochastic laws still land
  // within a few percent at this horizon.
  EXPECT_NEAR(sim.throughput, predicted, 0.05 * predicted) << GetParam().name;
}

// Constant-initialized in static storage, so the padding inside ServiceLaw
// is zero: gtest prints a parameter's raw bytes into the listed test name,
// and stack temporaries would leak garbage bytes that vary between builds.
constexpr LawCase kLawCases[] = {{ServiceLaw::deterministic(), "deterministic"},
                                 {ServiceLaw::exponential(), "exponential"},
                                 {ServiceLaw::normal(0.25), "normal"},
                                 {ServiceLaw::lognormal(0.5), "lognormal"}};

INSTANTIATE_TEST_SUITE_P(Laws, DesLawTest, ::testing::ValuesIn(kLawCases),
                         [](const auto& info) { return info.param.name; });

TEST(Des, ProbabilisticFanOutSplitsFlow) {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("a", 0.5 * kMs);
  b.add_operator("b", 0.5 * kMs);
  b.add_edge(0, 1, 0.3);
  b.add_edge(0, 2, 0.7);
  Topology t = b.build();
  SimResult sim = simulate(t, quick());
  EXPECT_NEAR(sim.ops[1].arrival_rate, 300.0, 15.0);
  EXPECT_NEAR(sim.ops[2].arrival_rate, 700.0, 25.0);
}

TEST(Des, InputSelectivityDividesDepartures) {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("window", 0.2 * kMs, StateKind::kStateful, Selectivity{10.0, 1.0});
  b.add_operator("sink", 0.1 * kMs);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  Topology t = b.build();
  SimResult sim = simulate(t, quick());
  EXPECT_NEAR(sim.ops[1].departure_rate, 100.0, 6.0);
  EXPECT_NEAR(sim.throughput, 1000.0, 30.0);
}

TEST(Des, OutputSelectivityCreatesDownstreamBottleneck) {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("flatmap", 0.2 * kMs, StateKind::kStateless, Selectivity{1.0, 3.0});
  b.add_operator("sink", 0.5 * kMs);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  Topology t = b.build();
  SimResult sim = simulate(t, quick());
  const double predicted = steady_state(t).throughput();  // 2000/3
  EXPECT_NEAR(sim.throughput, predicted, 0.05 * predicted);
}

TEST(Des, FissionPlanRemovesBottleneck) {
  Topology t = bottleneck_pipeline();
  SimOptions o = quick();
  o.replication.replicas = {1, 4, 1};
  SimResult sim = simulate(t, o);
  EXPECT_NEAR(sim.throughput, 1000.0, 0.05 * 1000.0);
}

TEST(Des, PartitionedFissionLimitedByKeySkew) {
  // One key holds half the stream: two replicas cap the operator at
  // mu / 0.5 rather than 2 mu.
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  OperatorSpec agg;
  agg.name = "agg";
  agg.service_time = 4.0 * kMs;
  agg.state = StateKind::kPartitionedStateful;
  agg.keys = KeyDistribution({0.5, 0.2, 0.2, 0.1});
  b.add_operator(std::move(agg));
  b.add_edge(0, 1);
  Topology t = b.build();

  SimOptions o = quick(120.0);
  o.replication.replicas = {1, 2};
  SimResult sim = simulate(t, o);
  // Model: capacity = mu / p_max = 250 / 0.5 = 500/s.
  ReplicationPlan plan;
  plan.replicas = {1, 2};
  plan.max_share = {0.0, 0.5};
  const double predicted = steady_state(t, plan).throughput();
  EXPECT_NEAR(sim.throughput, predicted, 0.06 * predicted);
}

TEST(Des, DeterministicForFixedSeed) {
  Topology t = bottleneck_pipeline();
  SimResult a = simulate(t, quick(20.0));
  SimResult b = simulate(t, quick(20.0));
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].consumed, b.ops[i].consumed);
    EXPECT_EQ(a.ops[i].emitted, b.ops[i].emitted);
  }
}

TEST(Des, SeedChangesStochasticOutcome) {
  Topology t = bottleneck_pipeline();
  SimOptions o1 = quick(20.0);
  SimOptions o2 = quick(20.0);
  o2.seed = 12345;
  SimResult a = simulate(t, o1);
  SimResult b = simulate(t, o2);
  EXPECT_NE(a.events, b.events);  // exponential draws differ
}

TEST(Des, TinyBuffersStillConserveFlow) {
  Topology t = bottleneck_pipeline();
  SimOptions o = quick(120.0);
  o.buffer_capacity = 1;
  SimResult sim = simulate(t, o);
  const double predicted = steady_state(t).throughput();
  // Capacity-1 buffers add blocking stalls; deterministic law removes the
  // variance so the rate still approaches the model closely.
  o.law = ServiceLaw::deterministic();
  SimResult det = simulate(t, o);
  EXPECT_NEAR(det.throughput, predicted, 0.05 * predicted);
  EXPECT_GT(sim.throughput, 0.5 * predicted);
}

TEST(Des, MeanSojournMatchesMm1) {
  // lambda = 500/s into mu = 1000/s: M/M/1 sojourn W = 1/(mu-lambda) = 2 ms.
  Topology::Builder b;
  b.add_operator("src", 2.0 * kMs);
  b.add_operator("queue", 1.0 * kMs);
  b.add_edge(0, 1);
  SimResult sim = simulate(b.build(), quick(150.0));
  EXPECT_NEAR(sim.ops[1].mean_sojourn, 2.0 * kMs, 0.15 * kMs);
  // Little's law consistency: L = lambda * W.
  EXPECT_NEAR(sim.ops[1].mean_queue + sim.ops[1].busy_fraction,
              sim.ops[1].arrival_rate * sim.ops[1].mean_sojourn, 0.05);
}

TEST(Des, SaturatedSojournBoundedByBuffer) {
  Topology t = bottleneck_pipeline();  // slow op saturates, B = 64
  SimResult sim = simulate(t, quick(120.0));
  // Under BAS a saturated queue holds ~B items: W ~ (B+1)/mu = 260 ms.
  EXPECT_GT(sim.ops[1].mean_queue, 50.0);
  EXPECT_LE(sim.ops[1].mean_queue, 64.0);
  EXPECT_NEAR(sim.ops[1].mean_sojourn, 65.0 * 4.0 * kMs, 0.15 * 65.0 * 4.0 * kMs);
}

TEST(Des, IdleOperatorHasNearZeroQueue) {
  Topology::Builder b;
  b.add_operator("src", 10.0 * kMs);
  b.add_operator("fast", 0.1 * kMs);
  b.add_edge(0, 1);
  SimResult sim = simulate(b.build(), quick(60.0));
  EXPECT_LT(sim.ops[1].mean_queue, 0.05);
  EXPECT_LT(sim.ops[1].mean_sojourn, 0.5 * kMs);
}

TEST(Des, RejectsBadOptions) {
  Topology t = bottleneck_pipeline();
  SimOptions o;
  o.duration = 0.0;
  EXPECT_THROW((void)simulate(t, o), Error);
  o.duration = 1.0;
  o.warmup_fraction = 1.5;
  EXPECT_THROW((void)simulate(t, o), Error);
}

}  // namespace
}  // namespace ss::sim
