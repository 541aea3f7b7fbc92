// Elastic re-deployment end-to-end: an under-provisioned run (rho > 1 at a
// heavy stage) re-deploys itself mid-stream via the ReconfigController
// without losing a tuple, the post-reconfig throughput matches the Alg. 1
// prediction of the chosen deployment, and the per-key state of a
// partitioned-stateful operator survives a replica widening.  Plus units of
// the measured-rate re-optimization (core/optimizer reoptimize) and the
// deployment diff the switch-over consumes.
#include "runtime/controller.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/optimizer.hpp"
#include "ops/keyed.hpp"
#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/synthetic.hpp"

namespace ss::runtime {
namespace {

using std::chrono::duration;

/// src generates 1000/s but the heavy stage serves only ~278/s: the
/// sequential deployment runs at rho = 3.6 and Algorithms 1-3 want four
/// replicas of "heavy".
Topology under_provisioned() {
  Topology::Builder b;
  b.add_operator("src", 1.0e-3);
  b.add_operator("heavy", 3.6e-3);
  b.add_operator("sink", 0.05e-3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  return b.build();
}

TEST(Reoptimize, MeasuredRatesRecommendReplicasForTheBottleneck) {
  const Topology t = under_provisioned();
  // The measured window of a backpressured run: every stage throttled to
  // the bottleneck's service rate, unit selectivity observed everywhere.
  std::vector<MeasuredOperator> measured(t.num_operators());
  for (auto& m : measured) {
    m.samples = 1000;
    m.processed_rate = 278.0;
    m.emitted_rate = 278.0;
  }
  const ReoptimizeResult r = reoptimize(t, Deployment{}, measured);
  EXPECT_TRUE(r.enough_samples);
  ASSERT_TRUE(r.diff.any());
  EXPECT_TRUE(r.diff.changed(1));
  EXPECT_FALSE(r.diff.changed(0));
  EXPECT_GE(r.next.replication.replicas_of(1), 4);
  EXPECT_NEAR(r.predicted_current, 278.0, 5.0);
  EXPECT_NEAR(r.predicted_next, 1000.0, 50.0);
  EXPECT_GT(r.gain, 1.0);
  EXPECT_TRUE(r.beneficial);
}

TEST(Reoptimize, InsufficientSamplesKeepTheDeployment) {
  const Topology t = under_provisioned();
  std::vector<MeasuredOperator> measured(t.num_operators());
  for (auto& m : measured) m.samples = 10;  // below min_samples
  const ReoptimizeResult r = reoptimize(t, Deployment{}, measured);
  EXPECT_FALSE(r.enough_samples);
  EXPECT_FALSE(r.beneficial);
}

TEST(DeploymentDiff, OnlyTouchedOperatorsChange) {
  Deployment base;
  Deployment widened;
  widened.replication.replicas = {1, 3, 1};
  const DeploymentDiff d = diff_deployments(3, base, widened);
  EXPECT_TRUE(d.any());
  EXPECT_EQ(d.ops_changed, 1);
  EXPECT_FALSE(d.changed(0));
  EXPECT_TRUE(d.changed(1));
  EXPECT_FALSE(d.changed(2));
  EXPECT_FALSE(diff_deployments(3, base, Deployment{}).any());
}

TEST(Elastic, UnderProvisionedFiniteRunRedeploysAndKeepsEveryTuple) {
  const Topology t = under_provisioned();
  EngineConfig cfg;
  cfg.elastic = true;
  cfg.reconfig_period = 0.25;
  cfg.reconfig_threshold = 0.10;
  constexpr std::int64_t kItems = 2500;
  Engine engine(t, Deployment{}, synthetic_factory(1.0, kItems), cfg);
  const RunStats stats = engine.run_until_complete(duration<double>(60.0));

  ASSERT_NE(engine.controller(), nullptr);
  bool redeployed = false;
  for (const ReconfigDecision& d : engine.controller()->decisions()) {
    redeployed = redeployed || d.redeployed;
  }
  EXPECT_TRUE(redeployed);
  EXPECT_GE(stats.reconfigurations, 1);
  EXPECT_EQ(stats.epochs, stats.reconfigurations + 1);

  // Exact accounting across the switch-over(s): nothing dropped, the source
  // produced every item, flow conserved at every unit-selectivity stage.
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.ops[0].processed, static_cast<std::uint64_t>(kItems));
  for (OpIndex i = 0; i < t.num_operators(); ++i) {
    EXPECT_EQ(stats.ops[i].emitted, stats.ops[i].processed) << "op " << i;
  }
}

TEST(Elastic, PostReconfigThroughputMatchesPrediction) {
  const Topology t = under_provisioned();
  EngineConfig cfg;
  cfg.elastic = true;
  cfg.reconfig_period = 0.25;
  cfg.reconfig_threshold = 0.10;
  Engine engine(t, Deployment{}, synthetic_factory(), cfg);  // unbounded source
  const RunStats stats = engine.run_for(duration<double>(3.5));

  ASSERT_NE(engine.controller(), nullptr);
  const std::vector<ReconfigDecision> decisions = engine.controller()->decisions();
  const ReconfigDecision* redeploy = nullptr;
  for (const ReconfigDecision& d : decisions) {
    if (d.redeployed) {
      redeploy = &d;
      break;
    }
  }
  ASSERT_NE(redeploy, nullptr) << "controller never re-deployed";
  ASSERT_GT(redeploy->predicted_next, 0.0);
  // The switch-over landed before the steady-state window opened, so the
  // measured rate is pure post-reconfig behaviour.
  EXPECT_LT(redeploy->at_seconds, cfg.warmup_fraction * 3.5);
  EXPECT_NEAR(stats.source_rate, redeploy->predicted_next,
              0.10 * redeploy->predicted_next);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(Elastic, SloBreachRedeploysAndLandsUnderTheSlo) {
  // The SLO path of the controller, isolated from the throughput path: the
  // gain threshold is set absurdly high (500%), so the only way this
  // under-provisioned run may legally re-deploy is reoptimize()'s
  // repairs_tail route -- the *measured* windowed p99 (a full mailbox at
  // the worker: ~64 x 1.6 ms of standing queue) breaching config.slo_p99.
  Topology::Builder b;
  b.add_operator("src", 1.0e-3);
  b.add_operator("worker", 1.6e-3);
  b.add_operator("sink", 0.05e-3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Topology t = b.build();

  EngineConfig cfg;
  cfg.elastic = true;
  cfg.reconfig_period = 0.25;
  cfg.reconfig_threshold = 5.0;  // rate path disabled: nothing gains 500%
  cfg.slo_p99 = 0.025;           // 25 ms; the standing queue sits near 100 ms
  cfg.scheduler = SchedulerKind::kPooled;
  cfg.workers = 4;
  Engine engine(t, Deployment{}, synthetic_factory(), cfg);
  const RunStats stats = engine.run_for(duration<double>(4.0));

  ASSERT_NE(engine.controller(), nullptr);
  const ReconfigDecision* slo_redeploy = nullptr;
  const std::vector<ReconfigDecision> decisions = engine.controller()->decisions();
  for (const ReconfigDecision& d : decisions) {
    if (d.redeployed && d.slo_breached) {
      slo_redeploy = &d;
      break;
    }
  }
  ASSERT_NE(slo_redeploy, nullptr) << "controller never re-deployed on the SLO breach";
  EXPECT_GT(slo_redeploy->measured_p99, cfg.slo_p99);
  EXPECT_NE(slo_redeploy->reason.find("slo breach"), std::string::npos)
      << slo_redeploy->reason;
  // The recommended plan must predict a repaired tail (that is what
  // justified the move), and the predictions surface on the decision.
  EXPECT_GT(slo_redeploy->predicted_p99_next, 0.0);
  EXPECT_LT(slo_redeploy->predicted_p99_next, slo_redeploy->measured_p99);

  // The steady-state window opens after the switch-over: the measured tail
  // must land under the SLO, and the switch must not cost a tuple.
  EXPECT_EQ(stats.dropped, 0u);
  ASSERT_GT(stats.end_to_end.count, 0u);
  EXPECT_LE(stats.end_to_end.p99, cfg.slo_p99);
  // Predictions ride along in RunStats for every epoch.
  EXPECT_TRUE(stats.predicted.valid);
  EXPECT_GT(stats.predicted.p99, 0.0);
}

TEST(Elastic, RedeployDecisionsUseProfilerEstimates) {
  // Pooled under-provisioned run with the online profiler on (the
  // default): the saturated heavy stage produces multi-item drain slices
  // immediately, so by the first decision window the controller's
  // measured service times come from the estimator, not the raw busy
  // quotient — visible as ops_estimated on the decision.  The estimate
  // itself must match the synthetic ground truth within the 15% tolerance.
  const Topology t = under_provisioned();
  EngineConfig cfg;
  cfg.elastic = true;
  cfg.reconfig_period = 0.75;  // one profiler-confident window, then decide
  cfg.reconfig_threshold = 0.10;
  cfg.profile_period = 0.1;
  cfg.scheduler = SchedulerKind::kPooled;
  cfg.workers = 4;
  Engine engine(t, Deployment{}, synthetic_factory(), cfg);
  const RunStats stats = engine.run_for(duration<double>(3.5));

  ASSERT_NE(engine.controller(), nullptr);
  const ReconfigDecision* redeploy = nullptr;
  const std::vector<ReconfigDecision> decisions = engine.controller()->decisions();
  for (const ReconfigDecision& d : decisions) {
    if (d.redeployed) {
      redeploy = &d;
      break;
    }
  }
  ASSERT_NE(redeploy, nullptr) << "controller never re-deployed";
  EXPECT_GE(redeploy->ops_estimated, 1)
      << "the re-deployment was not informed by profiler estimates";

  ASSERT_TRUE(stats.has_profile);
  const ProfileEstimate& heavy = stats.profile[1];
  ASSERT_GT(heavy.estimated_rate, 0.0);
  EXPECT_GE(heavy.confidence, 0.5);
  // The 15% accuracy claim is pinned by the convergence testbed in
  // profiler_test; here the stage is *saturated*, where paced-source debt
  // repayment under transient host CPU steal can shave ~20% off burst
  // slices, so this behavioural test only requires the right ballpark.
  const double truth = t.op(1).service_time;  // 3.6 ms synthetic wait
  EXPECT_NEAR(1.0 / heavy.estimated_rate, truth, 0.30 * truth);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(Elastic, BelowSaturationEstimatesReachTheController) {
  // A run with ample headroom everywhere (rho ~0.5 at the only real
  // stage): the throughput path never wants to move, but the controller's
  // windows must still be fed confident sub-saturation estimates — the
  // information a later rate surge would redeploy from.
  Topology::Builder b;
  b.add_operator("src", 0.5e-3);     // 2000/s
  b.add_operator("mid", 0.25e-3);    // capacity 4000/s -> rho 0.5
  b.add_operator("sink", 0.02e-3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Topology t = b.build();

  EngineConfig cfg;
  cfg.elastic = true;
  cfg.reconfig_period = 0.5;
  cfg.profile_period = 0.1;
  cfg.scheduler = SchedulerKind::kPooled;
  cfg.workers = 4;
  Engine engine(t, Deployment{}, synthetic_factory(), cfg);
  const RunStats stats = engine.run_for(duration<double>(3.0));

  ASSERT_NE(engine.controller(), nullptr);
  const std::vector<ReconfigDecision> decisions = engine.controller()->decisions();
  ASSERT_FALSE(decisions.empty());
  int estimated_windows = 0;
  for (const ReconfigDecision& d : decisions) {
    EXPECT_FALSE(d.redeployed) << d.reason;  // nothing to gain at rho 0.5
    if (d.ops_estimated >= 1) ++estimated_windows;
  }
  EXPECT_GE(estimated_windows, 1)
      << "no decision window saw a confident below-saturation estimate";

  // The estimate reconstructed the true 0.25 ms service time even though
  // the operator idled half the time.
  ASSERT_TRUE(stats.has_profile);
  const ProfileEstimate& mid = stats.profile[1];
  ASSERT_GT(mid.estimated_rate, 0.0);
  const double truth = t.op(1).service_time;
  EXPECT_NEAR(1.0 / mid.estimated_rate, truth, 0.15 * truth);
}

// ---------------------------------------------------------------------------
// Key-state migration

/// Paced source cycling keys 0..keys-1 round-robin, f[0] = 1.
class RoundRobinKeySource final : public SourceLogic {
 public:
  RoundRobinKeySource(std::int64_t count, int keys, double interval)
      : count_(count), keys_(keys), interval_(interval) {}

  bool next(Tuple& out) override {
    if (next_id_ >= count_) return false;
    {
      BlockingSection blocking;
      waiter_.wait(interval_);
    }
    out = Tuple{};
    out.id = next_id_;
    out.key = next_id_ % keys_;
    out.f[0] = 1.0;
    ++next_id_;
    return true;
  }

 private:
  std::int64_t count_;
  int keys_;
  double interval_;
  PacedWaiter waiter_;
  std::int64_t next_id_ = 0;
};

/// Terminal operator recording every tuple it sees.
class CaptureSink final : public OperatorLogic {
 public:
  CaptureSink(std::mutex& mu, std::vector<Tuple>& out) : mu_(mu), out_(out) {}

  void process(const Tuple& item, OpIndex, Collector&) override {
    std::lock_guard lock(mu_);
    out_.push_back(item);
  }
  [[nodiscard]] std::unique_ptr<OperatorLogic> clone() const override {
    return std::make_unique<CaptureSink>(mu_, out_);
  }

 private:
  std::mutex& mu_;
  std::vector<Tuple>& out_;
};

TEST(Elastic, KeyStateSurvivesReplicaWidening) {
  constexpr int kKeys = 16;
  constexpr std::int64_t kItems = 4000;
  Topology::Builder b;
  b.add_operator("src", 0.1e-3);
  OperatorSpec count;
  count.name = "count";
  count.service_time = 0.02e-3;
  count.state = StateKind::kPartitionedStateful;
  count.keys = KeyDistribution::uniform(kKeys);
  b.add_operator(std::move(count));
  b.add_operator("sink", 1e-6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Topology t = b.build();

  std::mutex mu;
  std::vector<Tuple> captured;
  AppFactory factory;
  factory.source = [&](OpIndex, const OperatorSpec&) {
    return std::make_unique<RoundRobinKeySource>(kItems, kKeys, 0.1e-3);
  };
  factory.logic = [&](OpIndex op, const OperatorSpec&) -> std::unique_ptr<OperatorLogic> {
    if (op == 1) return std::make_unique<ops::KeyedCounter>();
    return std::make_unique<CaptureSink>(mu, captured);
  };

  EngineConfig cfg;
  cfg.assign_keys_at_emitter = false;  // real tuple keys drive the partition map
  Engine engine(t, Deployment{}, std::move(factory), cfg);

  RunStats stats;
  std::atomic<bool> done{false};
  std::thread runner([&] {
    stats = engine.run_until_complete(duration<double>(60.0));
    done.store(true, std::memory_order_release);
  });
  // Widen the counter to two replicas mid-stream (the run lasts ~0.4s).
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  Deployment widened;
  widened.replication.replicas = {1, 2, 1};
  bool switched = false;
  while (!switched && !done.load(std::memory_order_acquire)) {
    switched = engine.reconfigure(widened);
    if (!switched) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  runner.join();

  EXPECT_TRUE(switched);
  EXPECT_EQ(stats.reconfigurations, 1);
  EXPECT_GE(stats.keys_migrated, 1u);
  EXPECT_EQ(stats.dropped, 0u);

  // Continuity: the running count of every key must reach the key's total
  // tuple count — a reset at the switch-over would cap the maximum below it.
  std::map<std::int64_t, double> max_count;
  std::map<std::int64_t, std::uint64_t> total;
  ASSERT_EQ(captured.size(), static_cast<std::size_t>(kItems));
  for (const Tuple& tp : captured) {
    max_count[tp.key] = std::max(max_count[tp.key], tp.f[1]);
    ++total[tp.key];
  }
  ASSERT_EQ(total.size(), static_cast<std::size_t>(kKeys));
  for (const auto& [key, count_of_key] : total) {
    EXPECT_EQ(max_count[key], static_cast<double>(count_of_key))
        << "key " << key << ": running count reset across the switch-over";
  }
}

}  // namespace
}  // namespace ss::runtime
