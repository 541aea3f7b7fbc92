// Tests of the tool facade (Optimizer), the profile-annotation module, the
// code generator, and the harness profiler — the §4 workflow pieces.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/codegen.hpp"
#include "core/error.hpp"
#include "core/optimizer.hpp"
#include "core/profile.hpp"
#include "harness/profiler.hpp"
#include "ops/stateless.hpp"

namespace ss {
namespace {

constexpr double kMs = 1e-3;

Topology bottleneck_pipeline() {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("slow", 2.5 * kMs);
  b.add_operator("tail_a", 0.2 * kMs);
  b.add_operator("tail_b", 0.3 * kMs);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  return b.build();
}

// ---------------------------------------------------------------- Optimizer

TEST(Optimizer, KeepsVersionHistory) {
  Optimizer tool(bottleneck_pipeline(), "v0");
  EXPECT_EQ(tool.versions().size(), 1u);
  EXPECT_EQ(tool.current().label, "v0");

  const BottleneckResult fission = tool.eliminate_bottlenecks();
  EXPECT_EQ(tool.versions().size(), 2u);
  EXPECT_EQ(tool.current().label, "v0+fission");
  EXPECT_EQ(tool.current().plan.replicas_of(1), fission.plan.replicas_of(1));
  EXPECT_EQ(fission.plan.replicas_of(1), 3);
}

TEST(Optimizer, AnalyzeUsesCurrentPlan) {
  Optimizer tool(bottleneck_pipeline());
  EXPECT_NEAR(tool.analyze().throughput(), 400.0, 1e-6);
  tool.eliminate_bottlenecks();
  EXPECT_NEAR(tool.analyze().throughput(), 1000.0, 1e-6);
}

TEST(Optimizer, TryFusionCommitsSafeFusions) {
  Optimizer tool(bottleneck_pipeline());
  const FusionResult result = tool.try_fusion(FusionSpec{{2, 3}, "tail"});
  EXPECT_FALSE(result.introduces_bottleneck);
  EXPECT_EQ(tool.versions().size(), 2u);
  EXPECT_TRUE(tool.current().topology.find("tail").has_value());
}

TEST(Optimizer, TryFusionRejectsHarmfulFusionsUnlessForced) {
  // Fusing the busy operator with the tail creates a bottleneck.
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("busy", 0.9 * kMs);
  b.add_operator("busy2", 0.8 * kMs);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  Optimizer tool(b.build());
  const FusionResult result = tool.try_fusion(FusionSpec{{1, 2}, "merged"});
  EXPECT_TRUE(result.introduces_bottleneck);
  EXPECT_EQ(tool.versions().size(), 1u);  // not committed: the tool alerted

  const FusionResult forced = tool.try_fusion(FusionSpec{{1, 2}, "merged"}, /*force=*/true);
  EXPECT_TRUE(forced.introduces_bottleneck);
  EXPECT_EQ(tool.versions().size(), 2u);
}

TEST(Optimizer, ReportContainsOperatorsAndThroughput) {
  Optimizer tool(bottleneck_pipeline());
  const std::string report = tool.report();
  EXPECT_NE(report.find("slow"), std::string::npos);
  EXPECT_NE(report.find("bottleneck"), std::string::npos);
  EXPECT_NE(report.find("predicted throughput"), std::string::npos);
}

// ------------------------------------------------------------ ProfileData

TEST(Profile, AnnotationReplacesServiceTimesAndSelectivity) {
  Topology t = bottleneck_pipeline();
  ProfileData profile;
  profile.operators["slow"].service_time = 5.0 * kMs;
  profile.operators["tail_a"].selectivity = Selectivity{2.0, 1.0};
  profile.operators["tail_a"].has_selectivity = true;
  Topology annotated = annotate_with_profile(t, profile);
  EXPECT_DOUBLE_EQ(annotated.op(1).service_time, 5.0 * kMs);
  EXPECT_DOUBLE_EQ(annotated.op(2).selectivity.input, 2.0);
  // Untouched operators keep their values.
  EXPECT_DOUBLE_EQ(annotated.op(0).service_time, 1.0 * kMs);
}

TEST(Profile, EdgeCountsRederiveProbabilities) {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("a", 1.0 * kMs);
  b.add_operator("b", 1.0 * kMs);
  b.add_edge(0, 1, 0.5);
  b.add_edge(0, 2, 0.5);
  Topology t = b.build();

  ProfileData profile;
  profile.edge_counts[{"src", "a"}] = 900.0;
  profile.edge_counts[{"src", "b"}] = 100.0;
  Topology annotated = annotate_with_profile(t, profile);
  EXPECT_NEAR(annotated.edge_probability(0, 1), 0.9, 1e-12);
  EXPECT_NEAR(annotated.edge_probability(0, 2), 0.1, 1e-12);
}

TEST(Profile, PartialEdgeCountsLeaveFanOutUntouched) {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  b.add_operator("a", 1.0 * kMs);
  b.add_operator("b", 1.0 * kMs);
  b.add_edge(0, 1, 0.5);
  b.add_edge(0, 2, 0.5);
  Topology t = b.build();
  ProfileData profile;
  profile.edge_counts[{"src", "a"}] = 900.0;  // only one edge measured
  Topology annotated = annotate_with_profile(t, profile);
  EXPECT_NEAR(annotated.edge_probability(0, 1), 0.5, 1e-12);
}

TEST(Profile, RejectsUnknownNames) {
  Topology t = bottleneck_pipeline();
  ProfileData profile;
  profile.operators["ghost"].service_time = 1.0;
  EXPECT_THROW((void)annotate_with_profile(t, profile), Error);

  ProfileData edges;
  edges.edge_counts[{"src", "tail_b"}] = 1.0;  // no such edge
  EXPECT_THROW((void)annotate_with_profile(t, edges), Error);
}

// ---------------------------------------------------------------- Profiler

TEST(Profiler, MeasuresLogicServiceTimeAndSelectivity) {
  ops::FlatMapExpand expand(3);
  const harness::LogicProfile profile = harness::profile_logic(expand, 2000);
  EXPECT_GT(profile.seconds_per_item, 0.0);
  EXPECT_LT(profile.seconds_per_item, 1e-4);  // cheap operator
  EXPECT_NEAR(profile.outputs_per_input, 3.0, 1e-9);
}

TEST(Profiler, TopologyProfileFeedsAnnotation) {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  OperatorSpec spec;
  spec.name = "expander";
  spec.impl = "flatmap_expand";
  spec.service_time = 123.0;  // bogus value the profile must replace
  spec.selectivity = Selectivity{1.0, 2.0};
  b.add_operator(std::move(spec));
  b.add_edge(0, 1);
  Topology t = b.build();

  const ProfileData profile = harness::profile_topology(t, 500);
  ASSERT_EQ(profile.operators.count("expander"), 1u);
  Topology annotated = annotate_with_profile(t, profile);
  EXPECT_LT(annotated.op(1).service_time, 1.0);  // measured, not 123 s
  EXPECT_NEAR(annotated.op(1).selectivity.output, 2.0, 0.1);
}

// ----------------------------------------------------------------- Codegen

TEST(Codegen, EmitsCompleteProgram) {
  Topology t = bottleneck_pipeline();
  ReplicationPlan plan;
  plan.replicas = {1, 3, 1, 1};
  CodegenOptions options;
  options.app_name = "unit_test_app";
  options.run_seconds = 1.5;
  const std::string source =
      generate_runtime_source(t, plan, {FusionSpec{{2, 3}, "tail"}}, options);

  // Structural checks: the program exercises the full public API.
  EXPECT_NE(source.find("int main()"), std::string::npos);
  EXPECT_NE(source.find("unit_test_app"), std::string::npos);
  EXPECT_NE(source.find("ss::Topology::Builder"), std::string::npos);
  EXPECT_NE(source.find("plan.replicas = {1, 3, 1, 1}"), std::string::npos);
  EXPECT_NE(source.find("deployment.fusions.push_back"), std::string::npos);
  EXPECT_NE(source.find("\"tail\""), std::string::npos);
  EXPECT_NE(source.find("ss::runtime::Engine engine"), std::string::npos);
  EXPECT_NE(source.find("run_for"), std::string::npos);
  // Every operator name appears.
  for (OpIndex i = 0; i < t.num_operators(); ++i) {
    EXPECT_NE(source.find('"' + t.op(i).name + '"'), std::string::npos);
  }
  // Every edge appears with its probability.
  EXPECT_NE(source.find("b.add_edge(0, 1, 1);"), std::string::npos);
}

TEST(Codegen, EscapesQuotesInNames) {
  Topology::Builder b;
  b.add_operator("sr\"c", 1.0 * kMs);
  b.add_operator("next", 1.0 * kMs);
  b.add_edge(0, 1);
  const std::string source = generate_runtime_source(b.build(), {}, {});
  EXPECT_NE(source.find("sr\\\"c"), std::string::npos);
}

TEST(Codegen, SerializesKeyDistributions) {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  OperatorSpec spec;
  spec.name = "agg";
  spec.service_time = 1.0 * kMs;
  spec.state = StateKind::kPartitionedStateful;
  spec.keys = KeyDistribution({0.5, 0.5});
  b.add_operator(std::move(spec));
  b.add_edge(0, 1);
  const std::string source = generate_runtime_source(b.build(), {}, {});
  EXPECT_NE(source.find("ss::KeyDistribution({0.5, 0.5})"), std::string::npos);
  EXPECT_NE(source.find("kPartitionedStateful"), std::string::npos);
}

TEST(Codegen, EmitsGeneratedKeyLawsAsCalls) {
  Topology::Builder b;
  b.add_operator("src", 1.0 * kMs);
  for (const auto& [name, keys] : {std::pair{"z", KeyDistribution::zipf(100000, 0.8)},
                                   std::pair{"u", KeyDistribution::uniform(500)}}) {
    OperatorSpec spec;
    spec.name = name;
    spec.service_time = 1.0 * kMs;
    spec.state = StateKind::kPartitionedStateful;
    spec.keys = keys;
    b.add_operator(std::move(spec));
  }
  b.add_edge(0, 1).add_edge(1, 2);
  const std::string source = generate_runtime_source(b.build(), {}, {});
  EXPECT_NE(source.find("spec.keys = ss::KeyDistribution::zipf(100000, 0.80000000000000004);"),
            std::string::npos)
      << source;
  EXPECT_NE(source.find("spec.keys = ss::KeyDistribution::uniform(500);"), std::string::npos);
  EXPECT_EQ(source.find("ss::KeyDistribution({"), std::string::npos);
  EXPECT_LT(source.size(), 4096u);
}

}  // namespace
}  // namespace ss
