// Tests of the testbed generator: Zipf distributions, Algorithm 5 shape
// properties (seed-swept TEST_P), workload assignment, and the
// flow-conservation property of Alg. 1 on random topologies.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/key_distribution.hpp"
#include "core/paths.hpp"
#include "core/steady_state.hpp"
#include "gen/random_topology.hpp"
#include "gen/workload.hpp"
#include "gen/zipf.hpp"
#include "ops/registry.hpp"

namespace ss {
namespace {

// ------------------------------------------------------------------- zipf

TEST(Zipf, ProbabilitiesAreNormalizedAndDecreasing) {
  const auto p = zipf_probabilities(100, 1.5);
  double total = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    total += p[i];
    if (i > 0) {
      EXPECT_LE(p[i], p[i - 1]);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipf, HigherAlphaIsMoreSkewed) {
  const auto mild = zipf_probabilities(50, 1.1);
  const auto steep = zipf_probabilities(50, 3.0);
  EXPECT_GT(steep[0], mild[0]);
  EXPECT_LT(steep[49], mild[49]);
}

TEST(Zipf, SamplerFrequenciesConverge) {
  ZipfSampler sampler(10, 1.5);
  Rng rng(42);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) counts[sampler.sample(rng)]++;
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(kDraws), sampler.probabilities()[k], 0.01);
  }
}

TEST(Zipf, ShuffledKeepsMassButPermutesRanks) {
  Rng rng(9);
  const auto p = shuffled_zipf_probabilities(20, 2.0, rng);
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // The same multiset of values as the unshuffled vector.
  auto sorted = p;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const auto reference = zipf_probabilities(20, 2.0);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(sorted[i], reference[i], 1e-12);
}

TEST(Zipf, ProbabilitiesAreTheKeyDistributionTable) {
  for (const auto& [n, alpha] : std::vector<std::pair<std::size_t, double>>{
           {1, 1.0}, {7, 0.3}, {100, 1.5}, {1000, 0.8}, {4096, 2.7}}) {
    SCOPED_TRACE(std::to_string(n) + " keys, alpha " + std::to_string(alpha));
    const std::vector<double> p = zipf_probabilities(n, alpha);
    const KeyDistribution keys = KeyDistribution::zipf(n, alpha);
    const std::vector<double>& table = keys.probabilities();
    // The formula both once spelled out, in the same summation order.
    std::vector<double> formula(n);
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      formula[k] = 1.0 / std::pow(static_cast<double>(k + 1), alpha);
      total += formula[k];
    }
    for (double& v : formula) v /= total;
    ASSERT_EQ(p.size(), n);
    std::size_t differing = 0;
    for (std::size_t k = 0; k < n; ++k) {
      differing += std::bit_cast<std::uint64_t>(p[k]) != std::bit_cast<std::uint64_t>(table[k]);
      differing += std::bit_cast<std::uint64_t>(p[k]) != std::bit_cast<std::uint64_t>(formula[k]);
    }
    EXPECT_EQ(differing, 0u);
  }
}

TEST(Zipf, RejectsBadParameters) {
  EXPECT_THROW((void)zipf_probabilities(0, 1.0), Error);
  EXPECT_THROW((void)zipf_probabilities(5, 0.0), Error);
}

// --------------------------------------------------------------- Algorithm 5

TEST(RandomShape, RejectsInfeasibleEdgeCounts) {
  Rng rng(1);
  EXPECT_THROW((void)random_shape(rng, 5, 3), Error);   // < V-1: too few
  EXPECT_THROW((void)random_shape(rng, 5, 11), Error);  // > V(V-1)/2: too many
  EXPECT_THROW((void)random_shape(rng, 1, 0), Error);
}

class ShapeSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShapeSeedTest, ShapesSatisfyAlgorithm5Invariants) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    const TopologyShape shape = random_shape(rng);
    ASSERT_GE(shape.num_vertices, 2);
    ASSERT_LE(shape.num_vertices, 20);
    std::set<std::pair<int, int>> seen;
    for (const auto& [from, to] : shape.edges) {
      EXPECT_LT(from, to) << "edges must respect the topological numbering";
      EXPECT_GE(from, 0);
      EXPECT_LT(to, shape.num_vertices);
      EXPECT_TRUE(seen.insert({from, to}).second) << "duplicate edge";
    }
    // Single source: only vertex 0 lacks inputs.
    for (int v = 1; v < shape.num_vertices; ++v) {
      EXPECT_GT(shape.in_degree(v), 0) << "vertex " << v << " has no input";
    }
    EXPECT_EQ(shape.in_degree(0), 0);
    // Edge count is at least the spanning requirement.
    EXPECT_GE(static_cast<int>(shape.edges.size()), shape.num_vertices - 1);
  }
}

TEST_P(ShapeSeedTest, WorkloadTopologiesBuildAndAreSound) {
  Rng rng(GetParam() ^ 0xabcdef);
  for (int round = 0; round < 5; ++round) {
    // Building a Topology validates rooted/acyclic/reachable/probability
    // invariants, so surviving build() is itself the property.
    Topology t = random_topology(rng);
    EXPECT_EQ(t.source(), 0u);
    EXPECT_GE(t.num_operators(), 2u);
    // The source must out-pace the fastest operator by 33% (§5.3).
    double fastest = 0.0;
    for (OpIndex i = 1; i < t.num_operators(); ++i) {
      fastest = std::max(fastest, t.op(i).service_rate());
    }
    EXPECT_NEAR(t.op(0).service_rate(), 1.33 * fastest, 1e-6 * fastest);
    // Operators carry known implementations and legal annotations.
    for (OpIndex i = 1; i < t.num_operators(); ++i) {
      const OperatorSpec& op = t.op(i);
      EXPECT_TRUE(ops::is_known_impl(op.impl)) << op.impl;
      if (op.state == StateKind::kPartitionedStateful) {
        EXPECT_FALSE(op.keys.empty());
      }
      if (ops::catalog_entry(op.impl).requires_multi_input) {
        EXPECT_GE(t.in_edges(i).size(), 2u);
      }
    }
  }
}

TEST_P(ShapeSeedTest, FlowConservationOnRandomUnitSelectivityTopologies) {
  // Proposition 3.5, property-tested: with unit selectivities the corrected
  // source rate equals the total sink departure rate.
  Rng rng(GetParam() ^ 0x5eed);
  WorkloadOptions w;
  w.unit_selectivity = true;
  for (int round = 0; round < 5; ++round) {
    Topology t = random_topology(rng, {}, w);
    SteadyStateResult r = steady_state(t);
    EXPECT_TRUE(r.has_bottleneck());  // the 33% rule guarantees one
    EXPECT_NEAR(r.sink_rate, r.source_rate, 1e-6 * r.source_rate);
    // Eq. 1 cross-check: arrival rates equal delta_1 * path coefficients
    // for every non-saturated prefix... at fixpoint every rho <= 1, so the
    // coefficients reproduce all arrival rates exactly.
    const auto coeff = arrival_coefficients(t);
    for (OpIndex i = 0; i < t.num_operators(); ++i) {
      EXPECT_NEAR(r.rates[i].arrival, r.source_rate * coeff[i],
                  1e-6 * (1.0 + r.rates[i].arrival));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeSeedTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 1234u, 987654321u));

TEST(Testbed, IsDeterministicPerSeed) {
  const auto a = make_testbed(2018, 5);
  const auto b = make_testbed(2018, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].num_operators(), b[i].num_operators());
    ASSERT_EQ(a[i].num_edges(), b[i].num_edges());
    for (OpIndex j = 0; j < a[i].num_operators(); ++j) {
      EXPECT_EQ(a[i].op(j).name, b[i].op(j).name);
      EXPECT_DOUBLE_EQ(a[i].op(j).service_time, b[i].op(j).service_time);
    }
  }
}

TEST(Testbed, FiftyTopologiesCoverTheOperatorMix) {
  const auto testbed = make_testbed(2018, 50);
  ASSERT_EQ(testbed.size(), 50u);
  int stateless = 0;
  int partitioned = 0;
  int stateful = 0;
  for (const Topology& t : testbed) {
    for (OpIndex i = 1; i < t.num_operators(); ++i) {
      switch (t.op(i).state) {
        case StateKind::kStateless:
          ++stateless;
          break;
        case StateKind::kPartitionedStateful:
          ++partitioned;
          break;
        case StateKind::kStateful:
          ++stateful;
          break;
      }
    }
  }
  // The paper's testbed had 678 operators across 50 topologies; sizes are
  // random so just require a comparable scale and all three state classes.
  EXPECT_GT(stateless + partitioned + stateful, 200);
  EXPECT_GT(stateless, 0);
  EXPECT_GT(partitioned, 0);
  EXPECT_GT(stateful, 0);
}

// ------------------------------------------------------------ ops catalog

TEST(Catalog, HasTwentyOperators) {
  EXPECT_EQ(ops::catalog().size(), 20u);
  std::set<std::string> names;
  for (const auto& e : ops::catalog()) {
    EXPECT_TRUE(names.insert(e.impl).second) << "duplicate impl " << e.impl;
    EXPECT_GT(e.service_min, 0.0);
    EXPECT_GE(e.service_max, e.service_min);
    EXPECT_GT(e.out_sel_min, 0.0);
    EXPECT_GE(e.out_sel_max, e.out_sel_min);
  }
}

TEST(Catalog, LookupAndErrors) {
  EXPECT_TRUE(ops::is_known_impl("skyline"));
  EXPECT_FALSE(ops::is_known_impl("bogus"));
  EXPECT_EQ(ops::catalog_entry("band_join").requires_multi_input, true);
  EXPECT_THROW((void)ops::catalog_entry("bogus"), Error);
}

}  // namespace
}  // namespace ss
