// Micro-benchmarks of the cost-model algorithms: Algorithm 1 scaling with
// topology size (validating the O(|V| * |E|) claim of Proposition 3.4),
// Algorithm 2, Algorithm 3, the graph utilities they rest on, and the XML
// import that feeds them.
#include <benchmark/benchmark.h>

#include "core/bottleneck.hpp"
#include "core/fusion.hpp"
#include "core/paths.hpp"
#include "core/steady_state.hpp"
#include "gen/workload.hpp"
#include "xmlio/topology_xml.hpp"

namespace {

/// Random topology with exactly `vertices` operators (unit selectivity to
/// isolate the algorithmic cost).
ss::Topology sized_topology(int vertices, std::uint64_t seed) {
  ss::Rng rng(seed);
  const ss::TopologyShape shape =
      ss::random_shape(rng, vertices, static_cast<int>((vertices - 1) * 1.2));
  ss::WorkloadOptions options;
  options.unit_selectivity = true;
  return ss::assign_workload(shape, rng, options);
}

void BM_SteadyState(benchmark::State& state) {
  const ss::Topology t = sized_topology(static_cast<int>(state.range(0)), 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ss::steady_state(t));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SteadyState)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_BottleneckElimination(benchmark::State& state) {
  const ss::Topology t = sized_topology(static_cast<int>(state.range(0)), 77);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ss::eliminate_bottlenecks(t));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BottleneckElimination)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_TopologicalSort(benchmark::State& state) {
  const ss::Topology t = sized_topology(static_cast<int>(state.range(0)), 55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ss::topological_sort(t.num_operators(), t.edges()));
  }
}
BENCHMARK(BM_TopologicalSort)->Range(8, 256);

void BM_ArrivalCoefficients(benchmark::State& state) {
  const ss::Topology t = sized_topology(static_cast<int>(state.range(0)), 33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ss::arrival_coefficients(t));
  }
}
BENCHMARK(BM_ArrivalCoefficients)->Range(8, 256);

/// Fig. 11 fusion primitives on the paper's example.
ss::Topology fig11() {
  ss::Topology::Builder b;
  const char* names[] = {"op1", "op2", "op3", "op4", "op5", "op6"};
  const double ms[] = {1.0, 1.2, 0.7, 2.0, 1.5, 0.2};
  for (int i = 0; i < 6; ++i) b.add_operator(names[i], ms[i] * 1e-3);
  b.add_edge(0, 1, 0.7);
  b.add_edge(0, 2, 0.3);
  b.add_edge(1, 5, 1.0);
  b.add_edge(2, 3, 2.0 / 3.0);
  b.add_edge(2, 4, 1.0 / 3.0);
  b.add_edge(3, 4, 0.25);
  b.add_edge(3, 5, 0.75);
  b.add_edge(4, 5, 1.0);
  return b.build();
}

void BM_FusionServiceTime(benchmark::State& state) {
  const ss::Topology t = fig11();
  const ss::FusionSpec spec{{2, 3, 4}, {}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ss::fusion_service_time(t, spec));
  }
}
BENCHMARK(BM_FusionServiceTime);

void BM_ApplyFusion(benchmark::State& state) {
  const ss::Topology t = fig11();
  const ss::FusionSpec spec{{2, 3, 4}, "F"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ss::apply_fusion(t, spec));
  }
}
BENCHMARK(BM_ApplyFusion);

void BM_KeyPartitioning(benchmark::State& state) {
  const ss::KeyDistribution keys =
      ss::KeyDistribution::zipf(static_cast<std::size_t>(state.range(0)), 1.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ss::partition_keys(keys, 8));
  }
}
BENCHMARK(BM_KeyPartitioning)->Range(64, 4096);

void BM_RandomTopologyGeneration(benchmark::State& state) {
  ss::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ss::random_topology(rng));
  }
}
BENCHMARK(BM_RandomTopologyGeneration);

/// A saved description: arg 0 the first Alg. 5 testbed graph; args 1 and 2
/// source -> two keyed operators over 100k Zipf(0.8) keys -> sink, with the
/// keys as the Zipf law (1) or as two explicit 100k-value lists (2).
std::string description(std::int64_t arg) {
  if (arg == 0) return ss::xml::save_topology(ss::make_testbed(2018, 1).front());
  ss::KeyDistribution keys = ss::KeyDistribution::zipf(100000, 0.8);
  if (arg == 2) keys = ss::KeyDistribution(keys.probabilities());
  ss::Topology::Builder b;
  b.add_operator("source", 2e-5);
  for (const char* name : {"running_sum", "counter"}) {
    ss::OperatorSpec op;
    op.name = name;
    op.service_time = 2e-6;
    op.state = ss::StateKind::kPartitionedStateful;
    op.keys = keys;
    b.add_operator(std::move(op));
  }
  b.add_operator("sink", 1e-6);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3);
  return ss::xml::save_topology(b.build());
}

/// Topology import (paper §4.1): arg 0 a testbed graph, arg 1 the keyed
/// description whose one Zipf law is built once, arg 2 the same keys as
/// explicit lists, megabytes of numbers.
void BM_LoadTopology(benchmark::State& state) {
  const std::string xml = description(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ss::xml::load_topology(xml));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(xml.size()));
  const char* labels[] = {"testbed graph 0", "keyed, 2x100k keys as a Zipf law",
                          "keyed, 2x100k keys as explicit lists"};
  state.SetLabel(labels[state.range(0)]);
}
BENCHMARK(BM_LoadTopology)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
