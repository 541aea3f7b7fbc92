// Unit tests for Algorithm 2 (bottleneck elimination): optimal replication
// degrees, key-partitioning limits, stateful fallbacks, and the hold-off
// replication budget of §3.2; plus the KeyDistribution laws and the shared
// tables the partitioning reads, built on first use.
#include "core/bottleneck.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/key_partitioning.hpp"
#include "core/topology.hpp"

namespace ss {
namespace {

constexpr double kMs = 1e-3;

// --------------------------------------------------------- KeyPartitioning

TEST(KeyPartitioning, UniformKeysSplitEvenly) {
  KeyPartition p = partition_keys(KeyDistribution::uniform(100), 4);
  EXPECT_EQ(p.replicas, 4);
  EXPECT_NEAR(p.max_share, 0.25, 0.01);
  for (int r : p.replica_of_key) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 4);
  }
}

TEST(KeyPartitioning, HeavyKeyBoundsTheSplit) {
  // One key carries 60%: no partitioning can push p_max below 0.6.
  KeyPartition p = partition_keys(KeyDistribution({0.6, 0.2, 0.1, 0.1}), 3);
  EXPECT_NEAR(p.max_share, 0.6, 1e-12);
  // LPT puts the heavy key alone and balances the rest.
  EXPECT_EQ(p.replicas, 3);
}

TEST(KeyPartitioning, FewerKeysThanReplicas) {
  KeyPartition p = partition_keys(KeyDistribution::uniform(2), 5);
  EXPECT_EQ(p.replicas, 2);
  EXPECT_NEAR(p.max_share, 0.5, 1e-12);
  EXPECT_EQ(p.replica_of_key.size(), 2u);
}

TEST(KeyPartitioning, SingleReplicaTakesAll) {
  KeyPartition p = partition_keys(KeyDistribution::uniform(10), 1);
  EXPECT_EQ(p.replicas, 1);
  EXPECT_NEAR(p.max_share, 1.0, 1e-12);
}

TEST(KeyPartitioning, RejectsBadInput) {
  EXPECT_THROW((void)partition_keys(KeyDistribution(), 2), Error);
  EXPECT_THROW((void)partition_keys(KeyDistribution::uniform(4), 0), Error);
}

TEST(KeyPartitioning, LptBeatsNaiveRoundRobinOnSkew) {
  // Zipf(1.5) over 20 keys: greedy LPT must achieve p_max close to the
  // theoretical floor max(heaviest key, 1/n).
  KeyDistribution keys = KeyDistribution::zipf(20, 1.5);
  KeyPartition p = partition_keys(keys, 4);
  const double floor_share = std::max(keys.max_probability(), 0.25);
  EXPECT_LT(p.max_share, floor_share * 1.35);
  EXPECT_GE(p.max_share, floor_share - 1e-12);
}

/// partition_keys with its LPT sort always run: the reference for the
/// path that skips the sort on keys already in order.
KeyPartition forced_sort_partition(const KeyDistribution& keys, int requested_replicas) {
  const std::vector<double>& p = keys.probabilities();
  const int bins = std::min(requested_replicas, static_cast<int>(p.size()));
  std::vector<std::size_t> by_weight(p.size());
  std::iota(by_weight.begin(), by_weight.end(), 0);
  std::sort(by_weight.begin(), by_weight.end(), [&](std::size_t a, std::size_t b) {
    return p[a] != p[b] ? p[a] > p[b] : a < b;
  });
  std::vector<double> load(static_cast<std::size_t>(bins), 0.0);
  KeyPartition result;
  result.replica_of_key.assign(p.size(), 0);
  for (std::size_t k : by_weight) {
    auto lightest = std::min_element(load.begin(), load.end());
    *lightest += p[k];
    result.replica_of_key[k] = static_cast<int>(lightest - load.begin());
  }
  std::vector<int> remap(static_cast<std::size_t>(bins), -1);
  int used = 0;
  for (std::size_t b = 0; b < load.size(); ++b) {
    if (load[b] > 0.0) remap[b] = used++;
  }
  for (int& r : result.replica_of_key) r = remap[static_cast<std::size_t>(r)];
  result.replicas = std::max(1, used);
  result.max_share = *std::max_element(load.begin(), load.end());
  return result;
}

TEST(KeyPartitioning, SortedKeysSkipTheSortWithIdenticalOutput) {
  const std::vector<double> zipf = KeyDistribution::zipf(1000, 0.9).probabilities();
  std::vector<double> reversed(zipf.rbegin(), zipf.rend());
  std::vector<double> shuffled = zipf;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(7));
  const std::vector<std::pair<const char*, KeyDistribution>> cases = {
      {"zipf law", KeyDistribution::zipf(1000, 0.9)},
      {"100k-key zipf law", KeyDistribution::zipf(100000, 0.8)},
      {"steep zipf law", KeyDistribution::zipf(5000, 2.5)},
      {"near-flat zipf law", KeyDistribution::zipf(5000, 1e-9)},
      {"uniform law", KeyDistribution::uniform(97)},
      {"100k-key uniform law", KeyDistribution::uniform(100000)},
      {"sorted list", KeyDistribution(zipf)},
      {"reversed", KeyDistribution(reversed)},
      {"shuffled", KeyDistribution(shuffled)},
      {"sorted ties", KeyDistribution({3, 3, 2, 2, 2, 1, 1, 1, 0, 0})},
      {"unsorted ties", KeyDistribution({1, 3, 2, 3, 0, 1, 2, 2, 0, 1})},
  };
  for (const auto& [name, keys] : cases) {
    for (int replicas : {1, 2, 3, 8}) {
      SCOPED_TRACE(std::string(name) + ", " + std::to_string(replicas) + " replicas");
      const KeyPartition got = partition_keys(keys, replicas);
      const KeyPartition want = forced_sort_partition(keys, replicas);
      EXPECT_EQ(got.replica_of_key, want.replica_of_key);
      EXPECT_EQ(got.replicas, want.replicas);
      EXPECT_EQ(got.max_share, want.max_share);
    }
  }
}

// --------------------------------------------------------- KeyDistribution

TEST(KeyDistribution, GeneratorsRecordTheirLaw) {
  const KeyDistribution zipf = KeyDistribution::zipf(50, 1.2);
  EXPECT_EQ(zipf.shape(), KeyDistribution::Shape::kZipf);
  EXPECT_EQ(zipf.alpha(), 1.2);
  EXPECT_EQ(KeyDistribution::uniform(5).shape(), KeyDistribution::Shape::kUniform);
  EXPECT_EQ(KeyDistribution({1.0, 2.0}).shape(), KeyDistribution::Shape::kExplicit);
  EXPECT_EQ(KeyDistribution({1.0, 2.0}).alpha(), 0.0);
  const KeyDistribution none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.num_keys(), 0u);
  EXPECT_EQ(none.max_probability(), 0.0);
  EXPECT_THROW((void)none.probability(0), std::out_of_range);
}

TEST(KeyDistribution, CopiesShareOneTable) {
  const KeyDistribution keys = KeyDistribution::zipf(1000, 0.8);
  OperatorSpec spec;
  spec.keys = keys;
  const OperatorSpec copy = spec;
  EXPECT_EQ(&copy.keys.probabilities(), &keys.probabilities());
  EXPECT_EQ(copy.keys.shape(), KeyDistribution::Shape::kZipf);
  EXPECT_EQ(copy.keys.alpha(), 0.8);
  // Separately built laws own separate (equal) tables.
  const KeyDistribution again = KeyDistribution::zipf(1000, 0.8);
  EXPECT_NE(&again.probabilities(), &keys.probabilities());
  EXPECT_EQ(again.probabilities(), keys.probabilities());
}

/// Today's eager table: the law's frequencies divided by their sum, in
/// index order.
std::vector<double> eager_table(std::vector<double> freq) {
  double total = 0.0;
  for (double f : freq) total += f;
  for (double& f : freq) f /= total;
  return freq;
}

/// Byte equality: no -0.0 == 0.0 or NaN escape.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(KeyDistribution, LazyTablesMatchTheEagerFormulaBitForBit) {
  for (const double alpha : {0.5, 0.8, 1.5, 3.0}) {
    SCOPED_TRACE("alpha " + std::to_string(alpha));
    constexpr std::size_t kKeys = 50000;
    const KeyDistribution zipf = KeyDistribution::zipf(kKeys, alpha);
    EXPECT_FALSE(zipf.materialized());
    std::vector<double> freq(kKeys);
    for (std::size_t k = 0; k < kKeys; ++k) {
      freq[k] = 1.0 / std::pow(static_cast<double>(k + 1), alpha);
    }
    const std::vector<double> want = eager_table(std::move(freq));
    EXPECT_TRUE(same_bits(zipf.probabilities(), want));
    EXPECT_TRUE(zipf.materialized());
    // The emitter's inverse-CDF: running sums, the last one pinned to 1.
    std::vector<double> cdf;
    double running = 0.0;
    for (double p : want) cdf.push_back(running += p);
    cdf.back() = 1.0;
    EXPECT_TRUE(same_bits(zipf.cumulative(), cdf));
  }
  for (const std::size_t n : {1u, 3u, 1000u, 99991u}) {
    const KeyDistribution uniform = KeyDistribution::uniform(n);
    EXPECT_FALSE(uniform.materialized());
    EXPECT_TRUE(same_bits(uniform.probabilities(), eager_table(std::vector<double>(n, 1.0))))
        << n;
  }
  // An explicit list is normalized (and validated) on construction.
  EXPECT_TRUE(KeyDistribution({1.0, 3.0}).materialized());
  EXPECT_THROW((void)KeyDistribution({1.0, -1.0}), Error);
  EXPECT_THROW((void)KeyDistribution(std::vector<double>{}), Error);
  EXPECT_THROW((void)KeyDistribution({0.0, 0.0}), Error);
}

TEST(KeyDistribution, LawAloneAnswersSizeShapeAndAlpha) {
  const KeyDistribution keys = KeyDistribution::zipf(100000000, 0.8);
  EXPECT_EQ(keys.num_keys(), 100000000u);
  EXPECT_FALSE(keys.empty());
  EXPECT_EQ(keys.shape(), KeyDistribution::Shape::kZipf);
  EXPECT_EQ(keys.alpha(), 0.8);
  EXPECT_FALSE(keys.materialized());
  const KeyDistribution uniform = KeyDistribution::uniform(7);
  EXPECT_EQ(partition_keys(uniform, 1).replica_of_key.size(), 7u);
  EXPECT_TRUE(uniform.materialized());
}

// The KeyDistributionTsan.* subset runs under ThreadSanitizer in CI (see
// .github/workflows/ci.yml).
TEST(KeyDistributionTsan, RacingFirstUsesBuildOneTable) {
  constexpr int kThreads = 8;
  const KeyDistribution keys = KeyDistribution::zipf(200000, 0.9);
  std::vector<const double*> tables(kThreads, nullptr);
  std::vector<const double*> cdfs(kThreads, nullptr);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i, copy = keys] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      tables[static_cast<std::size_t>(i)] = copy.probabilities().data();
      cdfs[static_cast<std::size_t>(i)] = copy.cumulative().data();
      EXPECT_EQ(copy.probabilities()[0], keys.max_probability());
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(tables[static_cast<std::size_t>(i)], tables[0]) << i;
    EXPECT_EQ(cdfs[static_cast<std::size_t>(i)], cdfs[0]) << i;
  }
  EXPECT_EQ(tables[0], keys.probabilities().data());
  EXPECT_EQ(keys.probabilities().size(), 200000u);
  EXPECT_EQ(keys.cumulative().back(), 1.0);
}

// ------------------------------------------------------------ Algorithm 2

Topology stateless_bottleneck() {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("slow", 3.5 * kMs);  // rho = 3.5 -> 4 replicas
  b.add_operator("sink", 0.1 * kMs);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  return b.build();
}

TEST(BottleneckElimination, StatelessGetsCeilRhoReplicas) {
  BottleneckResult result = eliminate_bottlenecks(stateless_bottleneck());
  EXPECT_EQ(result.plan.replicas_of(1), 4);  // ceil(3.5)
  EXPECT_TRUE(result.reaches_ideal);
  EXPECT_TRUE(result.unresolved.empty());
  EXPECT_NEAR(result.analysis.throughput(), 1000.0, 1e-6);
  EXPECT_EQ(result.total_replicas, 1 + 4 + 1);
  EXPECT_EQ(result.additional_replicas, 3);
}

TEST(BottleneckElimination, NoBottleneckNoReplicas) {
  Topology::Builder b;
  b.add_operator("src", 2.0 * kMs);
  b.add_operator("fast", 0.5 * kMs);
  b.add_edge(0, 1);
  BottleneckResult result = eliminate_bottlenecks(b.build());
  EXPECT_EQ(result.additional_replicas, 0);
  EXPECT_TRUE(result.reaches_ideal);
}

TEST(BottleneckElimination, StatefulBottleneckCannotBeRemoved) {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("state", 4.0 * kMs, StateKind::kStateful);
  b.add_edge(0, 1);
  BottleneckResult result = eliminate_bottlenecks(b.build());
  EXPECT_EQ(result.plan.replicas_of(1), 1);
  EXPECT_FALSE(result.reaches_ideal);
  ASSERT_EQ(result.unresolved.size(), 1u);
  EXPECT_EQ(result.unresolved[0], 1u);
  // Throughput capped by backpressure at the stateful rate.
  EXPECT_NEAR(result.analysis.throughput(), 250.0, 1e-6);
}

TEST(BottleneckElimination, PartitionedWithMildSkewIsRemoved) {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  OperatorSpec agg;
  agg.name = "agg";
  agg.service_time = 2.5 * kMs;  // rho = 2.5 -> 3 replicas wanted
  agg.state = StateKind::kPartitionedStateful;
  agg.keys = KeyDistribution::uniform(300);
  b.add_operator(std::move(agg));
  b.add_edge(0, 1);
  BottleneckResult result = eliminate_bottlenecks(b.build());
  EXPECT_EQ(result.plan.replicas_of(1), 3);
  EXPECT_TRUE(result.reaches_ideal);
  EXPECT_FALSE(result.partitions[1].replica_of_key.empty());
  EXPECT_LE(result.plan.max_share_of(1), 1.0 / 2.5 + 0.01);
}

TEST(BottleneckElimination, PartitionedWithHeavyKeyOnlyMitigates) {
  // The paper's example: n_opt = 3 but 50% of items share one key -> the
  // bottleneck is mitigated, not removed, and the source is corrected.
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  OperatorSpec agg;
  agg.name = "agg";
  agg.service_time = 2.5 * kMs;
  agg.state = StateKind::kPartitionedStateful;
  std::vector<double> freq{0.5};
  for (int i = 0; i < 25; ++i) freq.push_back(0.02);
  agg.keys = KeyDistribution(freq);
  b.add_operator(std::move(agg));
  b.add_edge(0, 1);
  BottleneckResult result = eliminate_bottlenecks(b.build());
  EXPECT_FALSE(result.reaches_ideal);
  EXPECT_EQ(result.unresolved.size(), 1u);
  // p_max = 0.5 -> capacity 800/s -> throughput 800/s instead of 1000.
  EXPECT_NEAR(result.analysis.throughput(), 400.0 / 0.5, 1e-6);
}

TEST(BottleneckElimination, DownstreamOfStatefulBottleneckNotOverReplicated) {
  // stateful bottleneck throttles the flow; a slow stateless op behind it
  // must be sized for the *throttled* rate, not the nominal one.
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("state", 2.0 * kMs, StateKind::kStateful);  // caps at 500/s
  b.add_operator("slowmap", 4.0 * kMs);                      // at 500/s: rho = 2
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  BottleneckResult result = eliminate_bottlenecks(b.build());
  EXPECT_EQ(result.plan.replicas_of(2), 2);  // not ceil(1000/250) = 4
  EXPECT_NEAR(result.analysis.throughput(), 500.0, 1e-6);
}

TEST(BottleneckElimination, SelectivityAwareSizing) {
  // flatmap doubles the rate; downstream sized for 2x source rate.
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("flatmap", 0.4 * kMs, StateKind::kStateless, Selectivity{1.0, 2.0});
  b.add_operator("work", 1.0 * kMs);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  BottleneckResult result = eliminate_bottlenecks(b.build());
  EXPECT_EQ(result.plan.replicas_of(2), 2);  // lambda = 2000/s, mu = 1000/s
  EXPECT_TRUE(result.reaches_ideal);
}

// --------------------------------------------------------------- hold-off

Topology two_bottlenecks() {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("slow_a", 6.0 * kMs);  // wants 6
  b.add_operator("slow_b", 4.0 * kMs);  // wants 4
  b.add_operator("sink", 0.1 * kMs);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  return b.build();
}

TEST(HoldOffReplication, UnboundedUsesOptimalDegrees) {
  BottleneckResult result = eliminate_bottlenecks(two_bottlenecks());
  EXPECT_EQ(result.plan.replicas_of(1), 6);
  EXPECT_EQ(result.plan.replicas_of(2), 4);
  EXPECT_TRUE(result.reaches_ideal);
}

TEST(HoldOffReplication, BudgetScalesDegreesProportionally) {
  BottleneckOptions options;
  options.max_total_replicas = 9;  // optimal needs 6+4+2 = 12
  BottleneckResult result = eliminate_bottlenecks(two_bottlenecks(), options);
  EXPECT_LE(result.total_replicas, 9);
  // Proportional de-scalability (Fig. 10): throughput degrades roughly by
  // the budget ratio rather than collapsing.
  EXPECT_LT(result.analysis.throughput(), 1000.0);
  EXPECT_GT(result.analysis.throughput(), 500.0);
  EXPECT_FALSE(result.reaches_ideal);
}

TEST(HoldOffReplication, GenerousBudgetChangesNothing) {
  BottleneckOptions options;
  options.max_total_replicas = 100;
  BottleneckResult result = eliminate_bottlenecks(two_bottlenecks(), options);
  EXPECT_EQ(result.plan.replicas_of(1), 6);
  EXPECT_EQ(result.plan.replicas_of(2), 4);
}

TEST(HoldOffReplication, ApplyBudgetDirectly) {
  Topology t = two_bottlenecks();
  ReplicationPlan plan;
  plan.replicas = {1, 6, 4, 1};
  ReplicationPlan scaled = apply_replica_budget(t, plan, 8);
  EXPECT_LE(scaled.total_replicas(4), 8);
  for (OpIndex i = 0; i < 4; ++i) EXPECT_GE(scaled.replicas_of(i), 1);
  // Ratios roughly preserved: slow_a keeps more replicas than slow_b.
  EXPECT_GE(scaled.replicas_of(1), scaled.replicas_of(2));
  EXPECT_THROW((void)apply_replica_budget(t, plan, 0), Error);
}

TEST(HoldOffReplication, BudgetBelowOperatorCountDegradesToSequential) {
  Topology t = two_bottlenecks();
  ReplicationPlan plan;
  plan.replicas = {1, 6, 4, 1};
  ReplicationPlan scaled = apply_replica_budget(t, plan, 2);
  // One replica per operator is the floor; the budget cannot go lower.
  EXPECT_EQ(scaled.total_replicas(4), 4);
}

}  // namespace
}  // namespace ss
