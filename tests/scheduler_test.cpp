// Tests of the two schedulers: the same semantic cases (exact accounting,
// fission/fusion, ordering, failure propagation) on the pool and on
// thread-per-actor, which loop the same engine steps; deadlock-free drains
// of Algorithm-5 random topologies on few workers, and throughput parity
// on the Fig. 11 / Table 1 topology.  The Stress.* case doubles as the
// TSAN target.
#include "runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

#include "core/error.hpp"
#include "core/steady_state.hpp"
#include "gen/random_topology.hpp"
#include "gen/rng.hpp"
#include "runtime/engine.hpp"
#include "runtime/synthetic.hpp"

namespace ss::runtime {
namespace {

using std::chrono::duration;

class BurstSource final : public SourceLogic {
 public:
  explicit BurstSource(std::int64_t count) : count_(count) {}
  bool next(Tuple& out) override {
    if (next_id_ >= count_) return false;
    out = Tuple{};
    out.id = next_id_++;
    out.key = out.id;
    return true;
  }

 private:
  std::int64_t count_;
  std::int64_t next_id_ = 0;
};

class PassThrough final : public OperatorLogic {
 public:
  explicit PassThrough(std::atomic<std::int64_t>* seen = nullptr) : seen_(seen) {}
  void process(const Tuple& item, OpIndex, Collector& out) override {
    if (seen_ != nullptr) seen_->fetch_add(1);
    out.emit(item);
  }
  std::unique_ptr<OperatorLogic> clone() const override {
    return std::make_unique<PassThrough>(seen_);
  }

 private:
  std::atomic<std::int64_t>* seen_;
};

/// Records the ids a sink received, in arrival order.
class IdRecorder final : public OperatorLogic {
 public:
  explicit IdRecorder(std::vector<std::int64_t>* ids, std::mutex* mu) : ids_(ids), mu_(mu) {}
  void process(const Tuple& item, OpIndex, Collector& out) override {
    {
      std::lock_guard lock(*mu_);
      ids_->push_back(item.id);
    }
    out.emit(item);
  }
  std::unique_ptr<OperatorLogic> clone() const override {
    return std::make_unique<IdRecorder>(ids_, mu_);
  }

 private:
  std::vector<std::int64_t>* ids_;
  std::mutex* mu_;
};

class Throws final : public OperatorLogic {
 public:
  void process(const Tuple&, OpIndex, Collector&) override {
    throw Error("operator exploded");
  }
  std::unique_ptr<OperatorLogic> clone() const override { return std::make_unique<Throws>(); }
};

Topology pipeline(std::initializer_list<const char*> names) {
  Topology::Builder b;
  OpIndex prev = kInvalidOp;
  for (const char* name : names) {
    OpIndex cur = b.add_operator(name, 1e-6);
    if (prev != kInvalidOp) b.add_edge(prev, cur);
    prev = cur;
  }
  return b.build();
}

/// An Algorithm-5 random DAG shape turned into a near-zero-service
/// topology, so drains exercise graph structure rather than pacing.
Topology fast_random_topology(std::uint64_t seed, int vertices, int edges) {
  Rng rng(seed);
  const TopologyShape shape = random_shape(rng, vertices, edges);
  Topology::Builder b;
  for (int v = 0; v < shape.num_vertices; ++v) {
    b.add_operator("op" + std::to_string(v), 1e-6);
  }
  for (const auto& [from, to] : shape.edges) {
    b.add_edge(static_cast<OpIndex>(from), static_cast<OpIndex>(to));
  }
  b.normalize_probabilities();
  return b.build();
}

AppFactory burst_factory(std::int64_t items, std::atomic<std::int64_t>* seen = nullptr) {
  AppFactory factory;
  factory.source = [items](OpIndex, const OperatorSpec&) {
    return std::make_unique<BurstSource>(items);
  };
  factory.logic = [seen](OpIndex, const OperatorSpec&) {
    return std::make_unique<PassThrough>(seen);
  };
  return factory;
}

EngineConfig pooled_config(int workers) {
  EngineConfig cfg;
  cfg.mailbox_capacity = 64;
  cfg.send_timeout = duration<double>(5.0);
  cfg.scheduler = SchedulerKind::kPooled;
  cfg.workers = workers;
  return cfg;
}

/// The semantic cases below run on either backend: a two-worker pool, or
/// one thread per actor (`workers` is ignored there).
EngineConfig config_for(SchedulerKind kind) {
  EngineConfig cfg = pooled_config(2);
  cfg.scheduler = kind;
  return cfg;
}

TEST(SchedulerKindParsing, RoundTrips) {
  EXPECT_EQ(scheduler_kind_from_string("threads"), SchedulerKind::kThreadPerActor);
  EXPECT_EQ(scheduler_kind_from_string("pool"), SchedulerKind::kPooled);
  EXPECT_STREQ(to_string(SchedulerKind::kThreadPerActor), "threads");
  EXPECT_STREQ(to_string(SchedulerKind::kPooled), "pool");
  EXPECT_THROW(scheduler_kind_from_string("fibers"), ss::Error);
}

void finite_stream_flows_exactly(SchedulerKind kind) {
  Topology t = pipeline({"src", "a", "b", "sink"});
  static constexpr std::int64_t kItems = 2000;
  Engine engine(t, Deployment{}, burst_factory(kItems), config_for(kind));
  RunStats stats = engine.run_until_complete(duration<double>(30.0));
  EXPECT_EQ(stats.dropped, 0u);
  for (OpIndex i = 0; i < t.num_operators(); ++i) {
    EXPECT_EQ(stats.ops[i].processed, static_cast<std::uint64_t>(kItems)) << "op " << i;
    EXPECT_EQ(stats.ops[i].emitted, static_cast<std::uint64_t>(kItems)) << "op " << i;
  }
}

TEST(PooledScheduler, FiniteStreamFlowsExactly) {
  finite_stream_flows_exactly(SchedulerKind::kPooled);
}

TEST(ThreadPerActorScheduler, FiniteStreamFlowsExactly) {
  finite_stream_flows_exactly(SchedulerKind::kThreadPerActor);
}

TEST(PooledScheduler, SingleWorkerDrainsBackpressuredPipeline) {
  // One worker and mailboxes much smaller than the stream: every send hits
  // the BAS slow path eventually.  The cooperative-blocking compensation
  // must keep the pipeline live (a naive one-worker pool deadlocks here).
  Topology t = pipeline({"src", "a", "b", "sink"});
  static constexpr std::int64_t kItems = 3000;
  EngineConfig cfg = pooled_config(1);
  cfg.mailbox_capacity = 4;
  Engine engine(t, Deployment{}, burst_factory(kItems), cfg);
  RunStats stats = engine.run_until_complete(duration<double>(30.0));
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.ops[3].processed, static_cast<std::uint64_t>(kItems));
}

TEST(PooledScheduler, TwentyOperatorRandomTopologyDrainsOnTwoWorkers) {
  // Algorithm 5 at the paper's maximum testbed size (V = 20), squeezed
  // onto two workers: the run must complete (deadlock-free drain) with
  // exact item accounting at the source and no drops.
  static constexpr std::int64_t kItems = 4000;
  Topology t = fast_random_topology(/*seed=*/7, /*vertices=*/20, /*edges=*/26);
  Engine engine(t, Deployment{}, burst_factory(kItems), pooled_config(2));
  RunStats stats = engine.run_until_complete(duration<double>(60.0));
  EXPECT_LT(stats.total_seconds, 60.0) << "drain did not complete (watchdog hit)";
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.ops[0].processed, static_cast<std::uint64_t>(kItems));
  // Conservation: every operator emits what flows in (unit selectivity).
  for (OpIndex i = 0; i < t.num_operators(); ++i) {
    EXPECT_EQ(stats.ops[i].emitted, stats.ops[i].processed) << "op " << i;
  }
}

void fission_processes_everything_once(SchedulerKind kind) {
  Topology t = pipeline({"src", "work", "sink"});
  static constexpr std::int64_t kItems = 5000;
  std::atomic<std::int64_t> seen{0};
  Deployment d;
  d.replication.replicas = {1, 4, 1};
  Engine engine(t, d, burst_factory(kItems, &seen), config_for(kind));
  RunStats stats = engine.run_until_complete(duration<double>(30.0));
  EXPECT_EQ(seen.load(), 2 * kItems);  // once across work's replicas, once at the sink
  EXPECT_EQ(stats.ops[1].processed, static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(stats.ops[2].processed, static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(PooledScheduler, FissionProcessesEverythingOnce) {
  fission_processes_everything_once(SchedulerKind::kPooled);
}

TEST(ThreadPerActorScheduler, FissionProcessesEverythingOnce) {
  fission_processes_everything_once(SchedulerKind::kThreadPerActor);
}

void fusion_composes_members_inside_one_actor(SchedulerKind kind) {
  Topology t = pipeline({"src", "f1", "f2", "sink"});
  static constexpr std::int64_t kItems = 3000;
  Deployment d;
  d.fusions.push_back(FusionSpec{{1, 2}, "fused"});
  Engine engine(t, d, burst_factory(kItems), config_for(kind));
  RunStats stats = engine.run_until_complete(duration<double>(30.0));
  EXPECT_EQ(stats.ops[1].processed, static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(stats.ops[2].processed, static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(stats.ops[3].processed, static_cast<std::uint64_t>(kItems));
}

TEST(PooledScheduler, FusionComposesMembersInsideOneActor) {
  fusion_composes_members_inside_one_actor(SchedulerKind::kPooled);
}

TEST(ThreadPerActorScheduler, FusionComposesMembersInsideOneActor) {
  fusion_composes_members_inside_one_actor(SchedulerKind::kThreadPerActor);
}

void preserves_replica_order_when_configured(SchedulerKind kind) {
  Topology t = pipeline({"src", "work", "sink"});
  static constexpr std::int64_t kItems = 4000;
  std::vector<std::int64_t> ids;
  std::mutex mu;
  AppFactory factory;
  factory.source = [](OpIndex, const OperatorSpec&) {
    return std::make_unique<BurstSource>(kItems);
  };
  factory.logic = [&](OpIndex op, const OperatorSpec&) -> std::unique_ptr<OperatorLogic> {
    if (op == 2) return std::make_unique<IdRecorder>(&ids, &mu);
    return std::make_unique<PassThrough>();
  };
  Deployment d;
  d.replication.replicas = {1, 3, 1};
  EngineConfig cfg = config_for(kind);
  cfg.preserve_replica_order = true;
  Engine engine(t, d, factory, cfg);
  RunStats stats = engine.run_until_complete(duration<double>(30.0));
  EXPECT_EQ(stats.dropped, 0u);
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kItems));
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

TEST(PooledScheduler, PreservesReplicaOrderWhenConfigured) {
  preserves_replica_order_when_configured(SchedulerKind::kPooled);
}

TEST(ThreadPerActorScheduler, PreservesReplicaOrderWhenConfigured) {
  preserves_replica_order_when_configured(SchedulerKind::kThreadPerActor);
}

void operator_failure_aborts_the_run(SchedulerKind kind) {
  Topology t = pipeline({"src", "boom", "sink"});
  AppFactory factory;
  factory.source = [](OpIndex, const OperatorSpec&) {
    return std::make_unique<BurstSource>(100);
  };
  factory.logic = [](OpIndex op, const OperatorSpec&) -> std::unique_ptr<OperatorLogic> {
    if (op == 1) return std::make_unique<Throws>();
    return std::make_unique<PassThrough>();
  };
  Engine engine(t, Deployment{}, factory, config_for(kind));
  EXPECT_THROW((void)engine.run_until_complete(duration<double>(30.0)), ss::Error);
}

TEST(PooledScheduler, OperatorFailureAbortsTheRun) {
  operator_failure_aborts_the_run(SchedulerKind::kPooled);
}

TEST(ThreadPerActorScheduler, OperatorFailureAbortsTheRun) {
  operator_failure_aborts_the_run(SchedulerKind::kThreadPerActor);
}

TEST(PooledScheduler, MatchesThreadPerActorThroughputOnTable1) {
  // The Fig. 11 / Table 1 six-operator topology with its profiled service
  // times: two pooled workers must reproduce the thread-per-actor rate
  // within 5% — the BlockingSection compensation is what makes this hold
  // even though the topology needs ~2.9 concurrent worker-ms per item.
  Topology::Builder b;
  const double service_ms[] = {1.0, 1.2, 0.7, 2.0, 1.5, 0.2};
  for (int i = 0; i < 6; ++i) b.add_operator("op" + std::to_string(i + 1), service_ms[i] * 1e-3);
  b.add_edge(0, 1, 0.7);
  b.add_edge(0, 2, 0.3);
  b.add_edge(1, 5, 1.0);
  b.add_edge(2, 3, 2.0 / 3.0);
  b.add_edge(2, 4, 1.0 / 3.0);
  b.add_edge(3, 4, 0.25);
  b.add_edge(3, 5, 0.75);
  b.add_edge(4, 5, 1.0);
  Topology t = b.build();

  EngineConfig threads_cfg;
  Engine threads_engine(t, Deployment{}, synthetic_factory(), threads_cfg);
  const RunStats threads_stats = threads_engine.run_for(duration<double>(3.0));

  Engine pool_engine(t, Deployment{}, synthetic_factory(), pooled_config(2));
  const RunStats pool_stats = pool_engine.run_for(duration<double>(3.0));

  ASSERT_GT(threads_stats.source_rate, 0.0);
  EXPECT_NEAR(pool_stats.source_rate, threads_stats.source_rate,
              0.05 * threads_stats.source_rate);
  EXPECT_EQ(pool_stats.dropped, 0u);
}

TEST(Stress, PooledRandomTopologiesAcrossSeedsStayRaceFree) {
  // TSAN target: several Algorithm-5 shapes with tiny mailboxes and a
  // 2-worker pool, exercising claim/release, on-ready notification, the
  // try_send fast path and the blocking fallback concurrently.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const int vertices = 8 + static_cast<int>(seed) * 3;  // 11..20
    Topology t = fast_random_topology(seed, vertices, vertices + 5);
    static constexpr std::int64_t kItems = 1500;
    EngineConfig cfg = pooled_config(2);
    cfg.mailbox_capacity = 8;
    Engine engine(t, Deployment{}, burst_factory(kItems), cfg);
    RunStats stats = engine.run_until_complete(duration<double>(60.0));
    EXPECT_EQ(stats.dropped, 0u) << "seed " << seed;
    EXPECT_EQ(stats.ops[0].processed, static_cast<std::uint64_t>(kItems)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ss::runtime
