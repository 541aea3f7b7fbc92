#include "xmlio/topology_xml.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <tuple>

#include "core/error.hpp"
#include "xmlio/xml.hpp"

namespace ss::xml {

namespace {

/// Serializes a double with enough digits to round-trip exactly.
std::string fmt(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

double time_unit_factor(const std::string& unit) {
  if (unit == "s") return 1.0;
  if (unit == "ms") return 1e-3;
  if (unit == "us") return 1e-6;
  if (unit == "ns") return 1e-9;
  throw Error("topology xml: unknown time-unit '" + unit + "' (expected s/ms/us/ns)");
}

/// Whitespace as stream extraction skips it in the "C" locale.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// A `<keys values>` list: whitespace-separated, complete, finite decimal
/// numbers, each with an optional leading '+'.
std::vector<double> parse_frequencies(std::string_view list, const std::string& op_name) {
  std::vector<double> values;
  const char* p = list.data();
  const char* const end = p + list.size();
  while (true) {
    while (p != end && is_space(*p)) ++p;
    if (p == end) return values;
    const char* const token = p;
    if (*p == '+' && end - p > 1 && p[1] != '-') ++p;
    double value = 0.0;
    auto [next, ec] = std::from_chars(p, end, value);
    if (ec == std::errc::result_out_of_range) {
      // Underflow reads as the nearest subnormal or zero, as strtod has it;
      // overflow reads as infinite and is rejected below.
      value = std::strtod(std::string(p, next).c_str(), nullptr);
      ec = std::errc();
    }
    if (ec != std::errc() || (next != end && !is_space(*next)) || !std::isfinite(value)) {
      throw Error("topology xml: <keys values=...> of operator '" + op_name +
                  "' has a malformed frequency '" +
                  std::string(token, std::find_if(token, end, is_space)) + "'");
    }
    values.push_back(value);
    p = next;
  }
}

/// Largest key space a `<keys count>` may declare: the table of 10^8 keys,
/// built on first partition (never on import), is 800 MB.
constexpr std::size_t kMaxKeyCount = 100'000'000;

/// A generated law, (distribution, count, alpha), and the distribution made
/// for it: operators of one document that declare the same law share one
/// law object, so at most one table is ever built for them.
using LawTables = std::map<std::tuple<std::string, std::size_t, double>, KeyDistribution>;

KeyDistribution parse_keys(const XmlNode& keys, const std::string& op_name, LawTables& tables) {
  if (const auto it = keys.attributes.find("values"); it != keys.attributes.end()) {
    std::vector<double> values = parse_frequencies(it->second, op_name);
    require(!values.empty(), "topology xml: <keys values=...> must list frequencies");
    return KeyDistribution(std::move(values));
  }
  const double count = keys.attr_double("count");
  if (!(count >= 1.0 && count <= static_cast<double>(kMaxKeyCount) &&
        count == std::floor(count))) {
    throw Error("topology xml: <keys count=...> of operator '" + op_name +
                "' must be a positive integer (at most " + std::to_string(kMaxKeyCount) + ")");
  }
  const std::string distribution = keys.attr("distribution", "uniform");
  const bool zipf = distribution == "zipf";
  if (!zipf && distribution != "uniform") {
    throw Error("topology xml: unknown key distribution '" + distribution + "'");
  }
  const auto n = static_cast<std::size_t>(count);
  const double alpha = zipf ? keys.attr_double("alpha", 1.5) : 0.0;
  auto law = std::make_tuple(distribution, n, alpha);
  if (const auto it = tables.find(law); it != tables.end()) return it->second;
  KeyDistribution built = zipf ? KeyDistribution::zipf(n, alpha) : KeyDistribution::uniform(n);
  tables.emplace(std::move(law), built);
  return built;
}

}  // namespace

Topology load_topology(const std::string& xml_text) {
  const XmlNode root = parse_xml(xml_text);
  require(root.name == "topology",
          "topology xml: root element must be <topology>, got <", root.name, ">");

  Topology::Builder builder;
  std::map<std::string, OpIndex> index_of;
  LawTables key_tables;
  for (const XmlNode* op_node : root.children_named("operator")) {
    OperatorSpec spec;
    spec.name = op_node->require_attr("name");
    const double factor = time_unit_factor(op_node->attr("time-unit", "ms"));
    spec.service_time = op_node->attr_double("service-time") * factor;
    spec.state = state_kind_from_string(op_node->attr("state", "stateless"));
    spec.selectivity.input = op_node->attr_double("input-selectivity", 1.0);
    spec.selectivity.output = op_node->attr_double("output-selectivity", 1.0);
    spec.impl = op_node->attr("impl", "");
    if (const XmlNode* keys = op_node->child("keys")) {
      spec.keys = parse_keys(*keys, spec.name, key_tables);
    }
    const std::string name = spec.name;
    index_of[name] = builder.add_operator(std::move(spec));
  }

  for (const XmlNode* edge : root.children_named("edge")) {
    const std::string from = edge->require_attr("from");
    const std::string to = edge->require_attr("to");
    require(index_of.count(from) > 0, "topology xml: edge from unknown operator '", from, "'");
    require(index_of.count(to) > 0, "topology xml: edge to unknown operator '", to, "'");
    builder.add_edge(index_of[from], index_of[to], edge->attr_double("probability", 1.0));
  }
  return builder.build();
}

Topology load_topology_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "topology xml: cannot open '", path, "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_topology(buffer.str());
}

std::string save_topology(const Topology& t, const std::string& app_name) {
  XmlNode root;
  root.name = "topology";
  root.attributes["name"] = app_name;

  for (OpIndex i = 0; i < t.num_operators(); ++i) {
    const OperatorSpec& op = t.op(i);
    XmlNode node;
    node.name = "operator";
    node.attributes["name"] = op.name;
    node.attributes["service-time"] = fmt(op.service_time * 1e3);
    node.attributes["time-unit"] = "ms";
    node.attributes["state"] = to_string(op.state);
    if (op.selectivity.input != 1.0) {
      node.attributes["input-selectivity"] = fmt(op.selectivity.input);
    }
    if (op.selectivity.output != 1.0) {
      node.attributes["output-selectivity"] = fmt(op.selectivity.output);
    }
    if (!op.impl.empty()) node.attributes["impl"] = op.impl;
    if (!op.keys.empty()) {
      XmlNode keys;
      keys.name = "keys";
      if (op.keys.shape() == KeyDistribution::Shape::kExplicit) {
        std::ostringstream values;
        values.precision(17);
        for (std::size_t k = 0; k < op.keys.num_keys(); ++k) {
          if (k > 0) values << ' ';
          values << op.keys.probability(k);
        }
        keys.attributes["values"] = values.str();
      } else {
        // The law itself: load_topology rebuilds the same table bit for bit.
        const bool zipf = op.keys.shape() == KeyDistribution::Shape::kZipf;
        keys.attributes["distribution"] = zipf ? "zipf" : "uniform";
        keys.attributes["count"] = std::to_string(op.keys.num_keys());
        if (zipf) keys.attributes["alpha"] = fmt(op.keys.alpha());
      }
      node.children.push_back(std::move(keys));
    }
    root.children.push_back(std::move(node));
  }
  for (const Edge& e : t.edges()) {
    XmlNode edge;
    edge.name = "edge";
    edge.attributes["from"] = t.op(e.from).name;
    edge.attributes["to"] = t.op(e.to).name;
    edge.attributes["probability"] = fmt(e.probability);
    root.children.push_back(std::move(edge));
  }
  return write_xml(root);
}

void save_topology_file(const Topology& t, const std::string& path,
                        const std::string& app_name) {
  std::ofstream out(path);
  require(out.good(), "topology xml: cannot write '", path, "'");
  out << save_topology(t, app_name);
}

}  // namespace ss::xml
