// Randomized fence/drain-barrier tests: Algorithm-5 random topology shapes
// run to completion while the main thread forces N mid-run epoch
// switch-overs (Engine::reconfigure), alternating between the sequential
// deployment and one replicating a middle operator.  Exact tuple accounting
// must hold across every fence on 2/4/8 pooled workers and on the
// thread-per-actor backend.  The FenceTsan.* subset runs under
// ThreadSanitizer in CI (see .github/workflows/ci.yml).
#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "gen/random_topology.hpp"
#include "gen/rng.hpp"
#include "runtime/synthetic.hpp"

namespace ss::runtime {
namespace {

using std::chrono::duration;

/// An Algorithm-5 random DAG whose source is paced (so the run lasts long
/// enough to land fences mid-stream) and whose other operators are
/// near-zero cost with unit selectivity, keeping accounting exact.
Topology paced_random_topology(std::uint64_t seed, double source_interval) {
  Rng rng(seed);
  const int vertices = 5 + static_cast<int>(seed % 16);  // 5..20
  const int edges = std::min(vertices + 2 + static_cast<int>(seed % 7),
                             vertices * (vertices - 1) / 2);
  const TopologyShape shape = random_shape(rng, vertices, edges);
  Topology::Builder b;
  for (int v = 0; v < shape.num_vertices; ++v) {
    b.add_operator("op" + std::to_string(v), v == 0 ? source_interval : 1e-6);
  }
  for (const auto& [from, to] : shape.edges) {
    b.add_edge(static_cast<OpIndex>(from), static_cast<OpIndex>(to));
  }
  b.normalize_probabilities();
  return b.build();
}

EngineConfig pooled_config(int workers) {
  EngineConfig cfg;
  cfg.scheduler = SchedulerKind::kPooled;
  cfg.workers = workers;
  return cfg;
}

/// Forces up to `forced` switch-overs into the live run, alternating the
/// sequential deployment with one that doubles a middle operator (when the
/// shape has one).  Every attempt retries until the engine accepts it or
/// the run completes; returns the number of accepted switch-overs.
int force_fences(Engine& engine, const Topology& t, int forced,
                 const std::atomic<bool>& done) {
  Deployment base;
  Deployment widened;
  widened.replication.replicas.assign(t.num_operators(), 1);
  OpIndex target = kInvalidOp;
  for (OpIndex v = 0; v < t.num_operators(); ++v) {
    if (v != t.source() && !t.out_edges(v).empty()) {
      target = v;
      break;
    }
  }
  if (target != kInvalidOp) widened.replication.replicas[target] = 2;
  int fences = 0;
  for (int i = 0; i < forced; ++i) {
    const Deployment& next = (i % 2 == 0 && target != kInvalidOp) ? widened : base;
    bool ok = false;
    while (!ok && !done.load(std::memory_order_acquire)) {
      ok = engine.reconfigure(next);
      if (!ok) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!ok) break;  // the source finished; stop forcing
    ++fences;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return fences;
}

/// Runs one random shape to completion under forced fences and checks the
/// accounting: no drops, the source produced every item, flow conservation
/// at every operator, and the epoch counters reflect the fences exactly.
void fence_and_check(std::uint64_t seed, EngineConfig config, std::int64_t items,
                     int forced) {
  const Topology t = paced_random_topology(seed, /*source_interval=*/0.25e-3);
  Engine engine(t, Deployment{}, synthetic_factory(1.0, items), std::move(config));
  RunStats stats;
  std::atomic<bool> done{false};
  std::thread runner([&] {
    stats = engine.run_until_complete(duration<double>(120.0));
    done.store(true, std::memory_order_release);
  });
  const int fences = force_fences(engine, t, forced, done);
  runner.join();

  const std::string ctx = "seed " + std::to_string(seed);
  EXPECT_GE(fences, 1) << ctx << ": run completed before any fence landed";
  EXPECT_EQ(stats.dropped, 0u) << ctx;
  EXPECT_EQ(stats.ops[t.source()].processed, static_cast<std::uint64_t>(items)) << ctx;
  for (OpIndex i = 0; i < t.num_operators(); ++i) {
    EXPECT_EQ(stats.ops[i].emitted, stats.ops[i].processed) << ctx << ", op " << i;
  }
  EXPECT_EQ(stats.reconfigurations, fences) << ctx;
  EXPECT_EQ(stats.epochs, fences + 1) << ctx;
}

TEST(FenceBarrier, RandomTopologiesSurviveForcedFencesOnPooledWorkers) {
  constexpr int kWorkerCycle[] = {2, 4, 8};
  for (std::uint64_t seed = 400; seed < 408; ++seed) {
    fence_and_check(seed, pooled_config(kWorkerCycle[seed % 3]), /*items=*/1500,
                    /*forced=*/4);
  }
}

TEST(FenceBarrier, ThreadPerActorBackendSurvivesForcedFences) {
  for (std::uint64_t seed = 420; seed < 423; ++seed) {
    fence_and_check(seed, EngineConfig{}, /*items=*/1500, /*forced=*/4);
  }
}

TEST(FenceTsan, ForcedFenceSubsetStaysRaceFree) {
  // ThreadSanitizer target: a smaller slice (TSAN's ~10x slowdown rules
  // out the full sweep) still crossing fence arming, source buffering,
  // retirement vs. batched drains, and the epoch swap itself.
  constexpr int kWorkerCycle[] = {2, 4, 8};
  for (std::uint64_t seed = 430; seed < 433; ++seed) {
    fence_and_check(seed, pooled_config(kWorkerCycle[seed % 3]), /*items=*/900,
                    /*forced=*/3);
  }
}

TEST(FenceTsan, ThreadPerActorFenceSubsetStaysRaceFree) {
  // The same slice on dedicated threads: both backends run the same serve
  // and pump steps, so the sanitizer must see both loops race through them.
  for (std::uint64_t seed = 433; seed < 435; ++seed) {
    fence_and_check(seed, EngineConfig{}, /*items=*/900, /*forced=*/3);
  }
}

}  // namespace
}  // namespace ss::runtime
