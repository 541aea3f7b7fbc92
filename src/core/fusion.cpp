#include "core/fusion.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "core/error.hpp"

namespace ss {

namespace {

/// Canonical view of a fusion spec: sorted unique members, membership mask,
/// identified front-end.
struct Subgraph {
  std::vector<OpIndex> members;
  std::vector<bool> in_sub;
  OpIndex front_end = kInvalidOp;
};

/// Performs all legality checks; fills `sub` on success, returns a message
/// on failure (empty string == legal).
std::string analyze_subgraph(const Topology& t, const FusionSpec& spec, Subgraph& sub) {
  const std::size_t n = t.num_operators();
  sub.members = spec.members;
  std::sort(sub.members.begin(), sub.members.end());
  sub.members.erase(std::unique(sub.members.begin(), sub.members.end()), sub.members.end());

  if (sub.members.size() < 2) return "fusion sub-graph needs at least two operators";
  for (OpIndex m : sub.members) {
    if (m >= n) return "fusion member index out of range";
  }
  sub.in_sub.assign(n, false);
  for (OpIndex m : sub.members) sub.in_sub[m] = true;
  if (sub.in_sub[t.source()]) return "the source operator cannot be fused";

  // Unique front-end: the only member with input edges from outside.
  for (OpIndex m : sub.members) {
    bool external_input = false;
    for (const Edge& e : t.in_edges(m)) {
      if (!sub.in_sub[e.from]) external_input = true;
    }
    if (external_input) {
      if (sub.front_end != kInvalidOp) {
        return "sub-graph has multiple front-end operators ('" + t.op(sub.front_end).name +
               "' and '" + t.op(m).name + "')";
      }
      sub.front_end = m;
    }
  }
  if (sub.front_end == kInvalidOp) return "sub-graph has no front-end operator";

  // Every member reachable from the front-end within the sub-graph.
  std::vector<bool> reached(n, false);
  std::vector<OpIndex> stack{sub.front_end};
  reached[sub.front_end] = true;
  while (!stack.empty()) {
    OpIndex u = stack.back();
    stack.pop_back();
    for (const Edge& e : t.out_edges(u)) {
      if (sub.in_sub[e.to] && !reached[e.to]) {
        reached[e.to] = true;
        stack.push_back(e.to);
      }
    }
  }
  for (OpIndex m : sub.members) {
    if (!reached[m]) {
      return "operator '" + t.op(m).name + "' is not reachable from the front-end '" +
             t.op(sub.front_end).name + "' inside the sub-graph";
    }
  }

  // Contraction must keep the topology acyclic.
  std::vector<Edge> contracted;
  const auto map_vertex = [&](OpIndex v) -> OpIndex {
    return sub.in_sub[v] ? static_cast<OpIndex>(n) : v;  // n = the meta vertex
  };
  for (const Edge& e : t.edges()) {
    OpIndex u = map_vertex(e.from);
    OpIndex v = map_vertex(e.to);
    if (u == v) continue;  // internal edge disappears
    contracted.push_back(Edge{u, v, e.probability});
  }
  if (!topological_sort(n + 1, contracted)) {
    return "fusing the sub-graph would create a cycle in the topology";
  }
  return {};
}

Subgraph require_legal(const Topology& t, const FusionSpec& spec) {
  Subgraph sub;
  std::string why = analyze_subgraph(t, spec, sub);
  require(why.empty(), "illegal fusion: ", why);
  return sub;
}

/// Expected arrivals at each member per item entering the front-end,
/// compounding selectivity gains along internal edges.  This is the
/// closed-form equivalent of Algorithm 3's recursion: the paper's
///   T(i) = T_i + sum_j p(i,j) T(j)
/// expands to sum over members of a(i) * T_i with a(i) the path-probability
/// weights computed here.
std::vector<double> member_arrival_weights(const Topology& t, const Subgraph& sub) {
  std::vector<double> a(t.num_operators(), 0.0);
  a[sub.front_end] = 1.0;
  for (OpIndex u : t.topological_order()) {
    if (!sub.in_sub[u] || a[u] == 0.0) continue;
    const double outflow = a[u] * t.op(u).selectivity.rate_gain();
    for (const Edge& e : t.out_edges(u)) {
      if (sub.in_sub[e.to]) a[e.to] += outflow * e.probability;
    }
  }
  return a;
}

double service_time_impl(const Topology& t, const Subgraph& sub) {
  const std::vector<double> a = member_arrival_weights(t, sub);
  double total = 0.0;
  for (OpIndex m : sub.members) total += a[m] * t.op(m).service_time;
  return total;
}

/// Flow leaving the sub-graph toward each external destination, per item
/// entering the front-end.
std::map<OpIndex, double> external_out_rates(const Topology& t, const Subgraph& sub) {
  const std::vector<double> a = member_arrival_weights(t, sub);
  std::map<OpIndex, double> rates;
  for (OpIndex m : sub.members) {
    const double outflow = a[m] * t.op(m).selectivity.rate_gain();
    for (const Edge& e : t.out_edges(m)) {
      if (!sub.in_sub[e.to]) rates[e.to] += outflow * e.probability;
    }
  }
  return rates;
}

std::string derive_fused_name(const Topology& t, const Subgraph& sub) {
  std::ostringstream name;
  name << "F(";
  for (std::size_t i = 0; i < sub.members.size(); ++i) {
    if (i > 0) name << '+';
    name << t.op(sub.members[i]).name;
  }
  name << ')';
  return name.str();
}

std::string derive_fused_name_multi(const Topology& t, const std::vector<OpIndex>& members) {
  std::ostringstream name;
  name << "F(";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) name << '+';
    name << t.op(members[i]).name;
  }
  name << ')';
  return name.str();
}

/// Multi-entry variant of analyze_subgraph (see fusion.hpp): entries are
/// all members with external input; reachability is from the entry set.
struct MultiSubgraph {
  std::vector<OpIndex> members;
  std::vector<bool> in_sub;
  std::vector<OpIndex> entries;
};

std::string analyze_subgraph_multi(const Topology& t, const FusionSpec& spec,
                                   MultiSubgraph& sub) {
  const std::size_t n = t.num_operators();
  sub.members = spec.members;
  std::sort(sub.members.begin(), sub.members.end());
  sub.members.erase(std::unique(sub.members.begin(), sub.members.end()), sub.members.end());

  if (sub.members.size() < 2) return "fusion sub-graph needs at least two operators";
  for (OpIndex m : sub.members) {
    if (m >= n) return "fusion member index out of range";
  }
  sub.in_sub.assign(n, false);
  for (OpIndex m : sub.members) sub.in_sub[m] = true;
  if (sub.in_sub[t.source()]) return "the source operator cannot be fused";

  for (OpIndex m : sub.members) {
    for (const Edge& e : t.in_edges(m)) {
      if (!sub.in_sub[e.from]) {
        sub.entries.push_back(m);
        break;
      }
    }
  }
  if (sub.entries.empty()) return "sub-graph has no entry operator";

  // Every member reachable from the entry set within the sub-graph.
  std::vector<bool> reached(n, false);
  std::vector<OpIndex> stack = sub.entries;
  for (OpIndex e : sub.entries) reached[e] = true;
  while (!stack.empty()) {
    OpIndex u = stack.back();
    stack.pop_back();
    for (const Edge& e : t.out_edges(u)) {
      if (sub.in_sub[e.to] && !reached[e.to]) {
        reached[e.to] = true;
        stack.push_back(e.to);
      }
    }
  }
  for (OpIndex m : sub.members) {
    if (!reached[m]) {
      return "operator '" + t.op(m).name + "' is not reachable from any entry of the sub-graph";
    }
  }

  // Contraction acyclicity: with multiple entries an external path can
  // genuinely leave and re-enter the group, so this check rejects real
  // cases here (not just defense-in-depth as in the single-entry variant).
  std::vector<Edge> contracted;
  for (const Edge& e : t.edges()) {
    const OpIndex u = sub.in_sub[e.from] ? static_cast<OpIndex>(n) : e.from;
    const OpIndex v = sub.in_sub[e.to] ? static_cast<OpIndex>(n) : e.to;
    if (u == v) continue;
    contracted.push_back(Edge{u, v, e.probability});
  }
  if (!topological_sort(n + 1, contracted)) {
    return "fusing the sub-graph would create a cycle in the topology";
  }
  return {};
}

MultiSubgraph require_legal_multi(const Topology& t, const FusionSpec& spec) {
  MultiSubgraph sub;
  const std::string why = analyze_subgraph_multi(t, spec, sub);
  require(why.empty(), "illegal multi-entry fusion: ", why);
  return sub;
}

/// Share of the external arrival flow entering at each entry member, from
/// the steady-state departure rates of the external upstream operators.
std::vector<double> entry_weights(const Topology& t, const MultiSubgraph& sub,
                                  const SteadyStateResult& rates) {
  std::vector<double> weight(t.num_operators(), 0.0);
  double total = 0.0;
  for (OpIndex m : sub.entries) {
    for (const Edge& e : t.in_edges(m)) {
      if (!sub.in_sub[e.from]) {
        weight[m] += rates.rates[e.from].departure * e.probability;
      }
    }
    total += weight[m];
  }
  require(total > 0.0,
          "multi-entry fusion: no steady-state flow enters the sub-graph (dead sub-graph)");
  for (OpIndex m : sub.entries) weight[m] /= total;
  return weight;
}

/// Expected arrivals per fused-operator input, seeded at the entry members
/// with their flow shares (reduces to member_arrival_weights when a single
/// front-end takes weight 1).
std::vector<double> member_arrival_weights_multi(const Topology& t, const MultiSubgraph& sub,
                                                 const std::vector<double>& entry_weight) {
  std::vector<double> a(t.num_operators(), 0.0);
  for (OpIndex m : sub.entries) a[m] = entry_weight[m];
  for (OpIndex u : t.topological_order()) {
    if (!sub.in_sub[u] || a[u] == 0.0) continue;
    const double outflow = a[u] * t.op(u).selectivity.rate_gain();
    for (const Edge& e : t.out_edges(u)) {
      if (sub.in_sub[e.to]) a[e.to] += outflow * e.probability;
    }
  }
  return a;
}

}  // namespace

std::string check_fusion_legal_multi(const Topology& t, const FusionSpec& spec) {
  MultiSubgraph sub;
  return analyze_subgraph_multi(t, spec, sub);
}

double fusion_service_time_multi(const Topology& t, const FusionSpec& spec,
                                 const SteadyStateResult& rates) {
  const MultiSubgraph sub = require_legal_multi(t, spec);
  const std::vector<double> a =
      member_arrival_weights_multi(t, sub, entry_weights(t, sub, rates));
  double total = 0.0;
  for (OpIndex m : sub.members) total += a[m] * t.op(m).service_time;
  return total;
}

FusionResult apply_fusion_multi(const Topology& t, const FusionSpec& spec) {
  const MultiSubgraph sub = require_legal_multi(t, spec);
  const SteadyStateResult rates = steady_state(t);
  const std::vector<double> a =
      member_arrival_weights_multi(t, sub, entry_weights(t, sub, rates));

  double fused_time = 0.0;
  for (OpIndex m : sub.members) fused_time += a[m] * t.op(m).service_time;

  // External out-flow per destination, per fused-operator input.
  std::map<OpIndex, double> out_rates;
  double total_out = 0.0;
  for (OpIndex m : sub.members) {
    const double outflow = a[m] * t.op(m).selectivity.rate_gain();
    for (const Edge& e : t.out_edges(m)) {
      if (!sub.in_sub[e.to]) {
        out_rates[e.to] += outflow * e.probability;
        total_out += outflow * e.probability;
      }
    }
  }

  FusionResult result;
  result.service_time = fused_time;
  result.remap.assign(t.num_operators(), kInvalidOp);

  // The fused operator takes the slot of the first entry member.
  const OpIndex anchor = sub.entries.front();
  Topology::Builder builder;
  for (OpIndex i = 0; i < t.num_operators(); ++i) {
    if (!sub.in_sub[i]) {
      result.remap[i] = builder.num_operators();
      builder.add_operator(t.op(i));
    } else if (i == anchor) {
      OperatorSpec fused;
      fused.name = spec.fused_name.empty() ? derive_fused_name_multi(t, sub.members)
                                           : spec.fused_name;
      fused.service_time = fused_time;
      fused.state = StateKind::kStateful;
      fused.selectivity = Selectivity{1.0, total_out > 0.0 ? total_out : 1.0};
      fused.impl = "meta";
      result.fused_index = builder.num_operators();
      builder.add_operator(std::move(fused));
    }
  }
  for (OpIndex m : sub.members) result.remap[m] = result.fused_index;

  // External in-edges: edges from one origin to several members merge into
  // one edge to the fused operator with the summed probability.
  std::map<OpIndex, double> in_probability;  // by original origin
  for (const Edge& e : t.edges()) {
    if (!sub.in_sub[e.from] && sub.in_sub[e.to]) in_probability[e.from] += e.probability;
  }
  for (const Edge& e : t.edges()) {
    if (sub.in_sub[e.from] || sub.in_sub[e.to]) continue;
    builder.add_edge(result.remap[e.from], result.remap[e.to], e.probability);
  }
  for (const auto& [origin, probability] : in_probability) {
    builder.add_edge(result.remap[origin], result.fused_index, probability);
  }
  for (const auto& [dest, rate] : out_rates) {
    builder.add_edge(result.fused_index, result.remap[dest], rate / total_out);
  }

  result.topology = builder.build();
  result.throughput_before = rates.throughput();
  result.analysis = steady_state(result.topology);
  result.throughput_after = result.analysis.throughput();
  result.introduces_bottleneck =
      std::find(result.analysis.bottlenecks.begin(), result.analysis.bottlenecks.end(),
                result.fused_index) != result.analysis.bottlenecks.end();
  return result;
}

std::string check_fusion_legal(const Topology& t, const FusionSpec& spec) {
  Subgraph sub;
  return analyze_subgraph(t, spec, sub);
}

double fusion_service_time(const Topology& t, const FusionSpec& spec) {
  return service_time_impl(t, require_legal(t, spec));
}

double fusion_output_gain(const Topology& t, const FusionSpec& spec) {
  const Subgraph sub = require_legal(t, spec);
  double gain = 0.0;
  for (const auto& [dest, rate] : external_out_rates(t, sub)) {
    (void)dest;
    gain += rate;
  }
  return gain;
}

FusionResult apply_fusion(const Topology& t, const FusionSpec& spec) {
  const Subgraph sub = require_legal(t, spec);
  const double fused_time = service_time_impl(t, sub);
  const std::map<OpIndex, double> out_rates = external_out_rates(t, sub);
  double total_out = 0.0;
  for (const auto& [dest, rate] : out_rates) {
    (void)dest;
    total_out += rate;
  }

  FusionResult result;
  result.service_time = fused_time;
  result.remap.assign(t.num_operators(), kInvalidOp);

  Topology::Builder builder;
  // Keep non-members in their original relative order; the fused operator
  // takes the slot of the front-end so reports read naturally.
  for (OpIndex i = 0; i < t.num_operators(); ++i) {
    if (!sub.in_sub[i]) {
      result.remap[i] = builder.num_operators();
      builder.add_operator(t.op(i));
    } else if (i == sub.front_end) {
      OperatorSpec fused;
      fused.name = spec.fused_name.empty() ? derive_fused_name(t, sub) : spec.fused_name;
      fused.service_time = fused_time;
      // Meta-operators must not be replicated (paper §4.2), which the
      // optimizer honours through the stateful classification.
      fused.state = StateKind::kStateful;
      fused.selectivity = Selectivity{1.0, total_out > 0.0 ? total_out : 1.0};
      fused.impl = "meta";
      result.fused_index = builder.num_operators();
      builder.add_operator(std::move(fused));
    }
  }
  for (OpIndex m : sub.members) result.remap[m] = result.fused_index;

  // External in-edges: only the front-end has them; they now target the
  // fused operator unchanged.
  for (const Edge& e : t.edges()) {
    const bool from_in = sub.in_sub[e.from];
    const bool to_in = sub.in_sub[e.to];
    if (from_in) continue;  // member out-edges handled below; internal dropped
    if (to_in) {
      assert(e.to == sub.front_end);
      builder.add_edge(result.remap[e.from], result.fused_index, e.probability);
    } else {
      builder.add_edge(result.remap[e.from], result.remap[e.to], e.probability);
    }
  }
  // External out-edges, merged per destination with joint probabilities
  // proportional to the flow they carry.
  for (const auto& [dest, rate] : out_rates) {
    builder.add_edge(result.fused_index, result.remap[dest], rate / total_out);
  }

  result.topology = builder.build();
  result.throughput_before = steady_state(t).throughput();
  result.analysis = steady_state(result.topology);
  result.throughput_after = result.analysis.throughput();
  result.introduces_bottleneck =
      std::find(result.analysis.bottlenecks.begin(), result.analysis.bottlenecks.end(),
                result.fused_index) != result.analysis.bottlenecks.end();
  return result;
}

std::vector<FusionCandidate> suggest_fusion_candidates(const Topology& t,
                                                       const SteadyStateResult& rates,
                                                       const FusionSuggestOptions& options) {
  std::vector<FusionCandidate> candidates;
  std::set<std::vector<OpIndex>> seen;

  for (OpIndex seed = 0; seed < t.num_operators(); ++seed) {
    if (seed == t.source()) continue;
    if (rates.rates[seed].utilization >= options.utilization_threshold) continue;

    // Grow greedily: keep adding under-utilized successors of the current
    // member set while the sub-graph stays legal.
    std::vector<OpIndex> members{seed};
    bool grew = true;
    while (grew) {
      grew = false;
      std::set<OpIndex> frontier;
      for (OpIndex m : members) {
        for (const Edge& e : t.out_edges(m)) frontier.insert(e.to);
      }
      for (OpIndex w : frontier) {
        if (std::find(members.begin(), members.end(), w) != members.end()) continue;
        if (w == t.source()) continue;
        if (rates.rates[w].utilization >= options.utilization_threshold) continue;
        std::vector<OpIndex> trial = members;
        trial.push_back(w);
        if (trial.size() >= 2 && !check_fusion_legal(t, FusionSpec{trial, {}}).empty()) continue;
        members = std::move(trial);
        grew = true;
        break;
      }
    }

    if (members.size() < std::max<std::size_t>(2, options.min_members)) continue;
    std::vector<OpIndex> key = members;
    std::sort(key.begin(), key.end());
    if (!seen.insert(key).second) continue;

    FusionSpec spec{members, {}};
    if (!check_fusion_legal(t, spec).empty()) continue;
    FusionCandidate candidate;
    candidate.spec = spec;
    double total_util = 0.0;
    for (OpIndex m : members) total_util += rates.rates[m].utilization;
    candidate.mean_utilization = total_util / static_cast<double>(members.size());
    candidate.service_time = fusion_service_time(t, spec);
    candidate.introduces_bottleneck = apply_fusion(t, spec).introduces_bottleneck;
    if (candidate.introduces_bottleneck) continue;
    candidates.push_back(std::move(candidate));
  }

  std::sort(candidates.begin(), candidates.end(), [](const auto& a, const auto& b) {
    return a.mean_utilization < b.mean_utilization;
  });
  if (candidates.size() > options.max_candidates) candidates.resize(options.max_candidates);
  return candidates;
}

}  // namespace ss
