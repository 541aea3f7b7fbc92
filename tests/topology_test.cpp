// Unit tests for the flow-graph model: Topology::Builder constraints,
// structural queries, and the non-throwing validate_draft() reports.
#include "core/topology.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/validate.hpp"

namespace ss {
namespace {

Topology make_diamond() {
  // src -> a (0.4), src -> b (0.6), a -> sink, b -> sink
  Topology::Builder b;
  b.add_operator("src", 1e-3);
  b.add_operator("a", 2e-3);
  b.add_operator("b", 3e-3);
  b.add_operator("sink", 0.5e-3);
  b.add_edge(0, 1, 0.4);
  b.add_edge(0, 2, 0.6);
  b.add_edge(1, 3, 1.0);
  b.add_edge(2, 3, 1.0);
  return b.build();
}

TEST(TopologyBuilder, BuildsValidDiamond) {
  Topology t = make_diamond();
  EXPECT_EQ(t.num_operators(), 4u);
  EXPECT_EQ(t.num_edges(), 4u);
  EXPECT_EQ(t.source(), 0u);
  ASSERT_EQ(t.sinks().size(), 1u);
  EXPECT_EQ(t.sinks()[0], 3u);
}

TEST(TopologyBuilder, RolesAreDerivedFromEdges) {
  Topology t = make_diamond();
  EXPECT_EQ(t.role(0), OpRole::kSource);
  EXPECT_EQ(t.role(1), OpRole::kInner);
  EXPECT_EQ(t.role(2), OpRole::kInner);
  EXPECT_EQ(t.role(3), OpRole::kSink);
}

TEST(TopologyBuilder, TopologicalOrderStartsAtSource) {
  Topology t = make_diamond();
  const auto& order = t.topological_order();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), t.source());
  // Every edge must go forward in the order.
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (const Edge& e : t.edges()) EXPECT_LT(position[e.from], position[e.to]);
}

TEST(TopologyBuilder, EdgeProbabilityLookup) {
  Topology t = make_diamond();
  EXPECT_DOUBLE_EQ(t.edge_probability(0, 1), 0.4);
  EXPECT_DOUBLE_EQ(t.edge_probability(0, 2), 0.6);
  EXPECT_DOUBLE_EQ(t.edge_probability(1, 2), 0.0);
  EXPECT_TRUE(t.has_edge(0, 1));
  EXPECT_FALSE(t.has_edge(3, 0));
}

TEST(TopologyBuilder, FindByName) {
  Topology t = make_diamond();
  ASSERT_TRUE(t.find("b").has_value());
  EXPECT_EQ(*t.find("b"), 2u);
  EXPECT_FALSE(t.find("nope").has_value());
}

TEST(TopologyBuilder, RejectsEmptyTopology) {
  Topology::Builder b;
  EXPECT_THROW((void)b.build(), Error);
}

TEST(TopologyBuilder, RejectsDuplicateNames) {
  Topology::Builder b;
  b.add_operator("x", 1e-3);
  EXPECT_THROW(b.add_operator("x", 1e-3), Error);
}

TEST(TopologyBuilder, RejectsNonPositiveServiceTime) {
  Topology::Builder b;
  EXPECT_THROW(b.add_operator("x", 0.0), Error);
  EXPECT_THROW(b.add_operator("y", -1.0), Error);
}

TEST(TopologyBuilder, RejectsSelfLoop) {
  Topology::Builder b;
  b.add_operator("x", 1e-3);
  EXPECT_THROW(b.add_edge(0, 0), Error);
}

TEST(TopologyBuilder, RejectsDuplicateEdge) {
  Topology::Builder b;
  b.add_operator("x", 1e-3);
  b.add_operator("y", 1e-3);
  b.add_edge(0, 1, 0.5);
  EXPECT_THROW(b.add_edge(0, 1, 0.5), Error);
}

TEST(TopologyBuilder, RejectsOutOfRangeEdge) {
  Topology::Builder b;
  b.add_operator("x", 1e-3);
  EXPECT_THROW(b.add_edge(0, 7), Error);
}

TEST(TopologyBuilder, RejectsCycle) {
  Topology::Builder b;
  b.add_operator("src", 1e-3);
  b.add_operator("a", 1e-3);
  b.add_operator("b", 1e-3);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 0.5);
  b.add_edge(1, 0, 0.5);  // back to the source: cycle AND a second root issue
  EXPECT_THROW((void)b.build(), Error);
}

TEST(TopologyBuilder, RejectsMultipleSources) {
  Topology::Builder b;
  b.add_operator("s1", 1e-3);
  b.add_operator("s2", 1e-3);
  b.add_operator("sink", 1e-3);
  b.add_edge(0, 2, 1.0);
  b.add_edge(1, 2, 1.0);
  EXPECT_THROW((void)b.build(), Error);
}

TEST(TopologyBuilder, RejectsUnreachableOperator) {
  Topology::Builder b;
  b.add_operator("src", 1e-3);
  b.add_operator("a", 1e-3);
  b.add_operator("island_in", 1e-3);
  b.add_operator("island_out", 1e-3);
  b.add_edge(0, 1, 1.0);
  b.add_edge(2, 3, 1.0);  // island: 2 is a second source too
  EXPECT_THROW((void)b.build(), Error);
}

TEST(TopologyBuilder, RejectsBadProbabilitySum) {
  Topology::Builder b;
  b.add_operator("src", 1e-3);
  b.add_operator("a", 1e-3);
  b.add_operator("b", 1e-3);
  b.add_edge(0, 1, 0.5);
  b.add_edge(0, 2, 0.3);  // sums to 0.8
  EXPECT_THROW((void)b.build(), Error);
}

TEST(TopologyBuilder, RejectsProbabilityOutOfRange) {
  Topology::Builder b;
  b.add_operator("src", 1e-3);
  b.add_operator("a", 1e-3);
  EXPECT_THROW(b.add_edge(0, 1, 0.0), Error);
  EXPECT_THROW(b.add_edge(0, 1, 1.5), Error);
  EXPECT_THROW(b.add_edge(0, 1, -0.2), Error);
}

TEST(TopologyBuilder, NormalizeProbabilitiesRescalesFanOuts) {
  Topology::Builder b;
  b.add_operator("src", 1e-3);
  b.add_operator("a", 1e-3);
  b.add_operator("b", 1e-3);
  b.add_edge(0, 1, 0.2);
  b.add_edge(0, 2, 0.6);
  b.normalize_probabilities();
  Topology t = b.build();
  EXPECT_NEAR(t.edge_probability(0, 1), 0.25, 1e-12);
  EXPECT_NEAR(t.edge_probability(0, 2), 0.75, 1e-12);
}

TEST(TopologyBuilder, PartitionedStatefulRequiresKeys) {
  Topology::Builder b;
  b.add_operator("src", 1e-3);
  OperatorSpec spec;
  spec.name = "agg";
  spec.service_time = 1e-3;
  spec.state = StateKind::kPartitionedStateful;
  b.add_operator(std::move(spec));
  b.add_edge(0, 1, 1.0);
  EXPECT_THROW((void)b.build(), Error);
}

/// The message `f` throws as ss::Error, or "" when it does not throw.
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// The builder joins a message's parts only when its check fails; the texts
// users see stay exactly as they were when each was concatenated eagerly.
TEST(TopologyBuilder, ErrorMessagesKeepTheirText) {
  Topology::Builder b;
  b.add_operator("x", 1e-3);
  b.add_operator("y", 1e-3);
  b.add_edge(0, 1, 1.0);
  EXPECT_EQ(error_of([&] { b.add_operator("x", 1e-3); }),
            "Topology: duplicate operator name 'x'");
  EXPECT_EQ(error_of([&] { b.add_operator("z", 0.0); }),
            "Topology: operator 'z' must have service_time > 0");
  EXPECT_EQ(error_of([&] { b.add_edge(1, 1); }), "Topology: self-loop on operator 'y'");
  EXPECT_EQ(error_of([&] { b.add_edge(0, 1, 0.5); }), "Topology: duplicate edge 'x' -> 'y'");

  // Two roots: the graph of RejectsUnreachableOperator.  A single-source
  // DAG reaches every operator, so the source check is the one that names
  // an unreachable island.
  Topology::Builder island;
  island.add_operator("src", 1e-3);
  island.add_operator("a", 1e-3);
  island.add_operator("island_in", 1e-3);
  island.add_operator("island_out", 1e-3);
  island.add_edge(0, 1, 1.0);
  island.add_edge(2, 3, 1.0);
  EXPECT_EQ(error_of([&] { (void)island.build(); }),
            "Topology: multiple sources ('src' and 'island_in'); use add_fictitious_source() "
            "for multi-source graphs");

  Topology::Builder fan;
  fan.add_operator("src", 1e-3);
  fan.add_operator("a", 1e-3);
  fan.add_operator("b", 1e-3);
  fan.add_edge(0, 1, 0.5);
  fan.add_edge(0, 2, 0.3);
  EXPECT_EQ(error_of([&] { (void)fan.build(); }),
            "Topology: out-edge probabilities of 'src' sum to 0.800000, expected 1.0");

  Topology::Builder keyed;
  keyed.add_operator("src", 1e-3);
  keyed.add_operator("agg", 1e-3, StateKind::kPartitionedStateful);
  keyed.add_edge(0, 1, 1.0);
  EXPECT_EQ(error_of([&] { (void)keyed.build(); }),
            "Topology: partitioned-stateful operator 'agg' requires a key distribution");
}

TEST(TopologyBuilder, PartitionedStatefulWithKeysBuilds) {
  Topology::Builder b;
  b.add_operator("src", 1e-3);
  OperatorSpec spec;
  spec.name = "agg";
  spec.service_time = 1e-3;
  spec.state = StateKind::kPartitionedStateful;
  spec.keys = KeyDistribution::uniform(8);
  b.add_operator(std::move(spec));
  b.add_edge(0, 1, 1.0);
  Topology t = b.build();
  EXPECT_EQ(t.op(1).keys.num_keys(), 8u);
}

TEST(TopologyBuilder, FictitiousSourceUnifiesMultipleRoots) {
  Topology::Builder b;
  b.add_operator("s1", 1e-3);  // rate 1000
  b.add_operator("s2", 2e-3);  // rate 500
  b.add_operator("sink", 1e-4);
  b.add_edge(0, 2, 1.0);
  b.add_edge(1, 2, 1.0);
  b.add_fictitious_source(0.5e-3);
  Topology t = b.build();
  ASSERT_EQ(t.num_operators(), 4u);
  EXPECT_EQ(t.source(), 3u);
  // Split proportional to the roots' rates: 1000:500 -> 2/3, 1/3.
  EXPECT_NEAR(t.edge_probability(3, 0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(t.edge_probability(3, 1), 1.0 / 3.0, 1e-12);
}

TEST(TopologyBuilder, FictitiousSourceIsNoOpOnSingleRoot) {
  Topology::Builder b;
  b.add_operator("src", 1e-3);
  b.add_operator("sink", 1e-3);
  b.add_edge(0, 1, 1.0);
  b.add_fictitious_source(1e-3);
  Topology t = b.build();
  EXPECT_EQ(t.num_operators(), 2u);
}

TEST(TopologicalSort, DetectsCycle) {
  std::vector<Edge> edges{{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}};
  EXPECT_FALSE(topological_sort(3, edges).has_value());
}

TEST(TopologicalSort, DeterministicTieBreak) {
  std::vector<Edge> edges{{0, 2, 1.0}, {1, 2, 1.0}};
  auto order = topological_sort(3, edges);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<OpIndex>{0, 1, 2}));
}

TEST(StateKindNames, RoundTrip) {
  for (StateKind kind : {StateKind::kStateless, StateKind::kPartitionedStateful,
                         StateKind::kStateful}) {
    EXPECT_EQ(state_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_EQ(state_kind_from_string("partitioned-stateful"), StateKind::kPartitionedStateful);
  EXPECT_THROW(state_kind_from_string("bogus"), Error);
}

// ---------------------------------------------------------------- validate

TEST(ValidateDraft, AcceptsValidDraft) {
  Topology t = make_diamond();
  ValidationReport report = validate_draft(t.operators(), t.edges());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ValidateDraft, CollectsMultipleErrors) {
  std::vector<OperatorSpec> ops(2);
  ops[0].name = "a";
  ops[0].service_time = -1.0;  // error 1
  ops[1].name = "a";           // error 2: duplicate name
  ops[1].service_time = 1.0;
  std::vector<Edge> edges{{0, 0, 1.0}};  // error 3: self-loop (+ cycle/unreachable)
  ValidationReport report = validate_draft(ops, edges);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.error_count(), 3u);
}

TEST(ValidateDraft, ReportsProbabilitySumError) {
  Topology t = make_diamond();
  std::vector<Edge> edges = t.edges();
  edges[0].probability = 0.1;  // 0.1 + 0.6 != 1
  ValidationReport report = validate_draft(t.operators(), edges);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("probabilities"), std::string::npos);
}

TEST(ValidateDraft, WarnsOnUnusedKeyDistribution) {
  std::vector<OperatorSpec> ops(2);
  ops[0].name = "src";
  ops[0].service_time = 1.0;
  ops[1].name = "map";
  ops[1].service_time = 1.0;
  ops[1].keys = KeyDistribution::uniform(4);  // stateless but carries keys
  std::vector<Edge> edges{{0, 1, 1.0}};
  ValidationReport report = validate_draft(ops, edges);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.warning_count(), 1u);
}

TEST(ValidateDraft, ReportsMultipleSourcesWithNames) {
  std::vector<OperatorSpec> ops(3);
  ops[0].name = "s1";
  ops[1].name = "s2";
  ops[2].name = "sink";
  for (auto& op : ops) op.service_time = 1.0;
  std::vector<Edge> edges{{0, 2, 1.0}, {1, 2, 1.0}};
  ValidationReport report = validate_draft(ops, edges);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("s1"), std::string::npos);
  EXPECT_NE(report.to_string().find("s2"), std::string::npos);
}

TEST(ValidateDraft, ReportsOutOfRangeEdgeWithoutCrashing) {
  std::vector<OperatorSpec> ops(1);
  ops[0].name = "src";
  ops[0].service_time = 1.0;
  std::vector<Edge> edges{{0, 5, 1.0}};
  ValidationReport report = validate_draft(ops, edges);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace ss
