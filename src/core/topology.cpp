#include "core/topology.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "core/error.hpp"

namespace ss {

namespace {
constexpr double kProbabilityTolerance = 1e-6;
}  // namespace

OpRole Topology::role(OpIndex i) const {
  if (in_.at(i).empty()) return OpRole::kSource;
  if (out_.at(i).empty()) return OpRole::kSink;
  return OpRole::kInner;
}

double Topology::edge_probability(OpIndex from, OpIndex to) const {
  for (const Edge& e : out_.at(from)) {
    if (e.to == to) return e.probability;
  }
  return 0.0;
}

bool Topology::has_edge(OpIndex from, OpIndex to) const {
  for (const Edge& e : out_.at(from)) {
    if (e.to == to) return true;
  }
  return false;
}

std::optional<OpIndex> Topology::find(const std::string& name) const {
  for (OpIndex i = 0; i < ops_.size(); ++i) {
    if (ops_[i].name == name) return i;
  }
  return std::nullopt;
}

std::optional<std::vector<OpIndex>> topological_sort(std::size_t n, const std::vector<Edge>& edges) {
  std::vector<std::size_t> in_degree(n, 0);
  std::vector<std::vector<OpIndex>> adjacency(n);
  for (const Edge& e : edges) {
    adjacency[e.from].push_back(e.to);
    ++in_degree[e.to];
  }
  // Min-heap on the vertex index keeps the order deterministic.
  std::priority_queue<OpIndex, std::vector<OpIndex>, std::greater<>> ready;
  for (OpIndex i = 0; i < n; ++i) {
    if (in_degree[i] == 0) ready.push(i);
  }
  std::vector<OpIndex> order;
  order.reserve(n);
  while (!ready.empty()) {
    OpIndex u = ready.top();
    ready.pop();
    order.push_back(u);
    for (OpIndex v : adjacency[u]) {
      if (--in_degree[v] == 0) ready.push(v);
    }
  }
  if (order.size() != n) return std::nullopt;  // cycle
  return order;
}

OpIndex Topology::Builder::add_operator(OperatorSpec spec) {
  require(!spec.name.empty(), "Topology: operator name must not be empty");
  require(spec.service_time > 0.0,
          "Topology: operator '", spec.name, "' must have service_time > 0");
  require(spec.selectivity.input > 0.0 && spec.selectivity.output > 0.0,
          "Topology: operator '", spec.name, "' must have positive selectivities");
  for (const OperatorSpec& existing : ops_) {
    require(existing.name != spec.name, "Topology: duplicate operator name '", spec.name, "'");
  }
  ops_.push_back(std::move(spec));
  return static_cast<OpIndex>(ops_.size() - 1);
}

OpIndex Topology::Builder::add_operator(std::string name, double service_time, StateKind state,
                                        Selectivity selectivity) {
  OperatorSpec spec;
  spec.name = std::move(name);
  spec.service_time = service_time;
  spec.state = state;
  spec.selectivity = selectivity;
  return add_operator(std::move(spec));
}

Topology::Builder& Topology::Builder::add_edge(OpIndex from, OpIndex to, double probability) {
  require(from < ops_.size() && to < ops_.size(), "Topology: edge endpoint out of range");
  require(from != to, "Topology: self-loop on operator '", ops_[from].name, "'");
  require(probability > 0.0 && probability <= 1.0 + kProbabilityTolerance,
          "Topology: edge probability must be in (0, 1]");
  for (const Edge& e : edges_) {
    require(!(e.from == from && e.to == to), "Topology: duplicate edge '", ops_[from].name,
            "' -> '", ops_[to].name, "'");
  }
  edges_.push_back(Edge{from, to, probability});
  return *this;
}

Topology::Builder& Topology::Builder::normalize_probabilities() {
  std::vector<double> out_sum(ops_.size(), 0.0);
  for (const Edge& e : edges_) out_sum[e.from] += e.probability;
  for (Edge& e : edges_) {
    if (out_sum[e.from] > 0.0) e.probability /= out_sum[e.from];
  }
  return *this;
}

Topology::Builder& Topology::Builder::add_fictitious_source(double service_time,
                                                            const std::string& name) {
  std::vector<bool> has_input(ops_.size(), false);
  for (const Edge& e : edges_) has_input[e.to] = true;
  std::vector<OpIndex> roots;
  for (OpIndex i = 0; i < ops_.size(); ++i) {
    if (!has_input[i]) roots.push_back(i);
  }
  if (roots.size() <= 1) return *this;

  // Split the combined stream proportionally to the roots' own rates so the
  // fictitious source preserves each original source's share of traffic.
  double total_rate = 0.0;
  for (OpIndex r : roots) total_rate += ops_[r].service_rate();
  OperatorSpec spec;
  spec.name = name;
  spec.service_time = service_time;
  spec.state = StateKind::kStateless;
  OpIndex root = add_operator(std::move(spec));
  for (OpIndex r : roots) {
    add_edge(root, r, ops_[r].service_rate() / total_rate);
  }
  return *this;
}

Topology Topology::Builder::build() const {
  require(!ops_.empty(), "Topology: must contain at least one operator");

  const std::size_t n = ops_.size();
  std::vector<std::vector<Edge>> out(n);
  std::vector<std::vector<Edge>> in(n);
  for (const Edge& e : edges_) {
    out[e.from].push_back(e);
    in[e.to].push_back(e);
  }

  // Single source.
  OpIndex source = kInvalidOp;
  for (OpIndex i = 0; i < n; ++i) {
    if (in[i].empty()) {
      require(source == kInvalidOp, "Topology: multiple sources ('",
              ops_[source == kInvalidOp ? i : source].name, "' and '", ops_[i].name,
              "'); use add_fictitious_source() for multi-source graphs");
      source = i;
    }
  }
  require(source != kInvalidOp, "Topology: no source vertex (every operator has an input edge)");

  // Acyclicity.
  auto order = topological_sort(n, edges_);
  require(order.has_value(), "Topology: the graph contains a cycle");

  // Reachability from the source (flow-graph property, paper §3.1).
  std::vector<bool> reachable(n, false);
  std::vector<OpIndex> stack{source};
  reachable[source] = true;
  while (!stack.empty()) {
    OpIndex u = stack.back();
    stack.pop_back();
    for (const Edge& e : out[u]) {
      if (!reachable[e.to]) {
        reachable[e.to] = true;
        stack.push_back(e.to);
      }
    }
  }
  for (OpIndex i = 0; i < n; ++i) {
    require(reachable[i], "Topology: operator '", ops_[i].name,
            "' is not reachable from the source");
  }

  // Out-edge probabilities sum to one.
  for (OpIndex i = 0; i < n; ++i) {
    if (out[i].empty()) continue;
    double sum = 0.0;
    for (const Edge& e : out[i]) sum += e.probability;
    if (!(std::abs(sum - 1.0) <= kProbabilityTolerance * static_cast<double>(out[i].size() + 1))) {
      throw Error("Topology: out-edge probabilities of '" + ops_[i].name + "' sum to " +
                  std::to_string(sum) + ", expected 1.0");
    }
  }

  // Partitioned-stateful operators need a key distribution.
  for (OpIndex i = 0; i < n; ++i) {
    if (ops_[i].state == StateKind::kPartitionedStateful) {
      require(!ops_[i].keys.empty(), "Topology: partitioned-stateful operator '", ops_[i].name,
              "' requires a key distribution");
    }
  }

  Topology t;
  t.ops_ = ops_;
  t.edges_ = edges_;
  t.out_ = std::move(out);
  t.in_ = std::move(in);
  t.topo_order_ = std::move(*order);
  t.source_ = source;
  for (OpIndex i = 0; i < n; ++i) {
    if (t.out_[i].empty()) t.sinks_.push_back(i);
  }
  return t;
}

std::string to_string(StateKind kind) {
  switch (kind) {
    case StateKind::kStateless:
      return "stateless";
    case StateKind::kPartitionedStateful:
      return "partitioned";
    case StateKind::kStateful:
      return "stateful";
  }
  return "unknown";
}

StateKind state_kind_from_string(const std::string& name) {
  if (name == "stateless") return StateKind::kStateless;
  if (name == "partitioned" || name == "partitioned-stateful") {
    return StateKind::kPartitionedStateful;
  }
  if (name == "stateful") return StateKind::kStateful;
  throw Error("unknown state kind '" + name + "'");
}

}  // namespace ss
