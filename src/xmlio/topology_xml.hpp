// The XML topology description format (paper §4.1): operators with service
// time (and its unit), state class, selectivities, key distributions, and
// edges with routing probabilities.
//
// Example:
//
//   <topology name="example">
//     <operator name="source" impl="source" service-time="1" time-unit="ms"/>
//     <operator name="agg" impl="win_sum" service-time="2.5" time-unit="ms"
//               state="partitioned" input-selectivity="10">
//       <keys distribution="zipf" count="100" alpha="1.5"/>
//     </operator>
//     <operator name="sink" impl="sink" service-time="100" time-unit="us"/>
//     <edge from="source" to="agg"/>
//     <edge from="agg" to="sink" probability="1.0"/>
//   </topology>
//
// Explicit key frequencies are also accepted:
//   <keys values="0.5 0.3 0.2"/>
#pragma once

#include <string>

#include "core/topology.hpp"

namespace ss::xml {

/// Parses the XML description and builds a validated Topology.
/// Throws ss::Error on malformed XML or violated topology constraints.
Topology load_topology(const std::string& xml_text);

/// Reads the description from a file.
Topology load_topology_file(const std::string& path);

/// Serializes a topology back to the description format (times in
/// milliseconds).  Uniform and Zipf key distributions are written as their
/// law, so they reload bit for bit; any other as explicit frequency values.
std::string save_topology(const Topology& t, const std::string& app_name = "app");

/// Writes the description to a file.
void save_topology_file(const Topology& t, const std::string& path,
                        const std::string& app_name = "app");

}  // namespace ss::xml
