#include "core/profile.hpp"

#include "core/error.hpp"

namespace ss {

Topology annotate_with_profile(const Topology& t, const ProfileData& profile) {
  for (const auto& [name, unused] : profile.operators) {
    (void)unused;
    require(t.find(name).has_value(), "profile refers to unknown operator '", name, "'");
  }
  for (const auto& [edge, unused] : profile.edge_counts) {
    (void)unused;
    auto from = t.find(edge.first);
    auto to = t.find(edge.second);
    require(from.has_value() && to.has_value(), "profile refers to unknown edge '", edge.first,
            "' -> '", edge.second, "'");
    require(t.has_edge(*from, *to), "profile reports traffic on non-existent edge '", edge.first,
            "' -> '", edge.second, "'");
  }

  Topology::Builder builder;
  for (OpIndex i = 0; i < t.num_operators(); ++i) {
    OperatorSpec spec = t.op(i);
    auto it = profile.operators.find(spec.name);
    if (it != profile.operators.end()) {
      if (it->second.service_time > 0.0) spec.service_time = it->second.service_time;
      if (it->second.has_selectivity) spec.selectivity = it->second.selectivity;
    }
    builder.add_operator(std::move(spec));
  }
  // Re-derive routing probabilities only for origins where every out-edge
  // has a measured count; mixing measured counts with declared
  // probabilities inside one fan-out would skew both.
  std::vector<bool> fully_counted(t.num_operators(), false);
  std::vector<double> origin_total(t.num_operators(), 0.0);
  for (OpIndex i = 0; i < t.num_operators(); ++i) {
    const auto& out = t.out_edges(i);
    if (out.empty()) continue;
    bool all = true;
    double total = 0.0;
    for (const Edge& e : out) {
      auto it = profile.edge_counts.find({t.op(e.from).name, t.op(e.to).name});
      if (it == profile.edge_counts.end() || it->second <= 0.0) {
        all = false;
        break;
      }
      total += it->second;
    }
    fully_counted[i] = all;
    origin_total[i] = total;
  }
  for (const Edge& e : t.edges()) {
    double p = e.probability;
    if (fully_counted[e.from]) {
      p = profile.edge_counts.at({t.op(e.from).name, t.op(e.to).name}) / origin_total[e.from];
    }
    builder.add_edge(e.from, e.to, p);
  }
  return builder.build();
}

}  // namespace ss
