// Robustness suite: fuzzed XML input (malformed documents must throw
// ss::Error, never crash or hang), large-topology stress through the whole
// pipeline, and a direct threaded-runtime-vs-simulator agreement check
// (the two "measured" engines must agree with each other, not only with
// the model).
#include <gtest/gtest.h>

#include <chrono>

#include "core/bottleneck.hpp"
#include "core/error.hpp"
#include "gen/random_topology.hpp"
#include "gen/rng.hpp"
#include "gen/workload.hpp"
#include "runtime/engine.hpp"
#include "sim/des.hpp"
#include "xmlio/topology_xml.hpp"

namespace ss {
namespace {

// ------------------------------------------------------------- XML fuzzing

// The seed exercises every scanning path of the parser: declaration,
// multi-line comment, generated and explicit key lists.
constexpr const char* kSeedXml = R"(<?xml version="1.0"?>
<!-- fuzz seed:
     a generated law and an explicit key list -->
<topology name="t">
  <operator name="src" impl="source" service-time="1" time-unit="ms"/>
  <operator name="agg" service-time="2" state="partitioned" input-selectivity="10">
    <keys distribution="zipf" count="10" alpha="1.5"/>
  </operator>
  <operator name="cnt" service-time="0.5" state="partitioned">
    <keys values="0.4 0.25 0.15 0.1 0.05 0.03 0.02"/>
  </operator>
  <edge from="src" to="agg" probability="1.0"/>
  <edge from="agg" to="cnt"/>
</topology>
)";

class XmlFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlFuzzTest, MutatedDocumentsThrowOrParseButNeverCrash) {
  Rng rng(GetParam());
  std::string base = kSeedXml;
  for (int round = 0; round < 400; ++round) {
    std::string mutated = base;
    const int mutations = rng.rand_int(1, 4);
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.rand_int(0, static_cast<int>(mutated.size()) - 1));
      switch (rng.rand_int(0, 3)) {
        case 0:  // flip a character
          mutated[pos] = static_cast<char>(rng.rand_int(32, 126));
          break;
        case 1:  // delete a span
          mutated.erase(pos, static_cast<std::size_t>(rng.rand_int(1, 8)));
          break;
        case 2:  // duplicate a span
          mutated.insert(pos, mutated.substr(pos, static_cast<std::size_t>(rng.rand_int(1, 8))));
          break;
        default:  // inject XML-significant characters
          mutated.insert(pos, std::string(1, "<>&\"'="[rng.rand_int(0, 5)]));
          break;
      }
    }
    try {
      const Topology t = xml::load_topology(mutated);
      // Rarely the mutation stays valid: the result must then be usable.
      (void)steady_state(t);
    } catch (const Error&) {
      // Expected for the overwhelming majority of mutations.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzzTest, ::testing::Values(1u, 2u, 3u));

TEST(XmlRobustness, PathologicalDocuments) {
  EXPECT_THROW((void)xml::load_topology(std::string(1 << 16, '<')), Error);
  EXPECT_THROW((void)xml::load_topology("<topology>" + std::string(4096, ' ')), Error);
  // Deep nesting parses without stack issues at sane depths.
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "<a>";
  for (int i = 0; i < 200; ++i) deep += "</a>";
  EXPECT_THROW((void)xml::load_topology(deep), Error);  // wrong root, parses fine
}

// ------------------------------------------------------------ large graphs

TEST(Stress, TwoHundredOperatorTopologyThroughTheWholePipeline) {
  Rng rng(909);
  const TopologyShape shape = random_shape(rng, 200, 240);
  const Topology t = assign_workload(shape, rng);

  const SteadyStateResult rates = steady_state(t);
  EXPECT_GT(rates.throughput(), 0.0);

  const BottleneckResult fission = eliminate_bottlenecks(t);
  EXPECT_GE(fission.analysis.throughput(), rates.throughput() * (1.0 - 1e-9));

  // Round-trip the 200-operator description through XML.
  const Topology reloaded = xml::load_topology(xml::save_topology(t));
  EXPECT_EQ(reloaded.num_operators(), 200u);
  EXPECT_NEAR(steady_state(reloaded).throughput(), rates.throughput(),
              1e-6 * rates.throughput());

  // And simulate it (short horizon: this is a smoke test, not a figure).
  sim::SimOptions options;
  options.duration = 10.0;
  options.replication = fission.plan;
  options.partitions = fission.partitions;
  const sim::SimResult sim = sim::simulate(t, options);
  EXPECT_GT(sim.throughput, 0.0);
}

// ----------------------------------------- engine vs simulator, directly

TEST(EngineVsSimulator, TwoMeasurementEnginesAgree) {
  // The threaded runtime and the DES are independent implementations of
  // the same semantics; on a mid-size topology their measured throughputs
  // must agree with each other (not merely with the model).
  Topology::Builder b;
  b.add_operator("src", 1.5e-3);
  b.add_operator("fork", 0.4e-3);
  b.add_operator("left", 2.5e-3);
  b.add_operator("right", 1.2e-3, StateKind::kStateless, Selectivity{1.0, 2.0});
  b.add_operator("join_sink", 0.8e-3);
  b.add_edge(0, 1);
  b.add_edge(1, 2, 0.6);
  b.add_edge(1, 3, 0.4);
  b.add_edge(2, 4);
  b.add_edge(3, 4);
  const Topology t = b.build();

  sim::SimOptions sim_options;
  sim_options.duration = 150.0;
  const double simulated = sim::simulate(t, sim_options).throughput;

  runtime::Engine engine(t, runtime::Deployment{}, runtime::synthetic_factory(), {});
  const double threaded =
      engine.run_for(std::chrono::duration<double>(2.5)).source_rate;

  EXPECT_NEAR(threaded, simulated, 0.12 * simulated)
      << "threaded " << threaded << " vs simulated " << simulated;
}

}  // namespace
}  // namespace ss
