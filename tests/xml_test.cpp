// Tests of the XML layer: the mini-DOM parser (well-formedness, entities,
// comments, error reporting with line numbers) and the topology description
// format (number parsing, rejection of malformed key lists, key counts and
// non-finite attributes, a bit-exact save/load differential on the Alg. 5
// testbed, key laws saved as their parameters and shared on load), and the
// laziness of a loaded law: set-up of an unreplicated keyed topology builds
// no key table, and a replicated one routes by the partition computed
// before the fence.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/key_partitioning.hpp"
#include "core/optimizer.hpp"
#include "gen/workload.hpp"
#include "runtime/engine.hpp"
#include "xmlio/topology_xml.hpp"
#include "xmlio/xml.hpp"

namespace ss::xml {
namespace {

TEST(XmlParser, ParsesElementsAttributesText) {
  const XmlNode root = parse_xml(
      "<app name=\"demo\"><item id=\"1\">hello</item><item id=\"2\"/></app>");
  EXPECT_EQ(root.name, "app");
  EXPECT_EQ(root.attr("name"), "demo");
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].text, "hello");
  EXPECT_EQ(root.children[1].attr("id"), "2");
}

TEST(XmlParser, HandlesDeclarationCommentsWhitespace) {
  const XmlNode root = parse_xml(
      "<?xml version=\"1.0\"?>\n"
      "<!-- top comment -->\n"
      "<root>\n  <!-- inner -->\n  <leaf/>\n</root>\n"
      "<!-- trailing -->");
  EXPECT_EQ(root.name, "root");
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].name, "leaf");
}

TEST(XmlParser, DecodesEntities) {
  const XmlNode root = parse_xml("<r a=\"&lt;x&gt; &amp; &quot;y&quot;\">1 &lt; 2 &#65;</r>");
  EXPECT_EQ(root.attr("a"), "<x> & \"y\"");
  EXPECT_EQ(root.text, "1 < 2 A");
}

TEST(XmlParser, SingleQuotedAttributes) {
  const XmlNode root = parse_xml("<r a='one' b=\"two\"/>");
  EXPECT_EQ(root.attr("a"), "one");
  EXPECT_EQ(root.attr("b"), "two");
}

TEST(XmlParser, NestedStructure) {
  const XmlNode root = parse_xml("<a><b><c><d/></c></b></a>");
  EXPECT_EQ(root.children[0].children[0].children[0].name, "d");
}

TEST(XmlParser, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_xml(""), Error);
  EXPECT_THROW((void)parse_xml("<a>"), Error);                    // unterminated
  EXPECT_THROW((void)parse_xml("<a></b>"), Error);                // mismatched tags
  EXPECT_THROW((void)parse_xml("<a x=1/>"), Error);               // unquoted attribute
  EXPECT_THROW((void)parse_xml("<a x=\"1\" x=\"2\"/>"), Error);   // duplicate attribute
  EXPECT_THROW((void)parse_xml("<a/><b/>"), Error);               // two roots
  EXPECT_THROW((void)parse_xml("<a>&bogus;</a>"), Error);         // unknown entity
}

TEST(XmlParser, ErrorsCarryLineNumbers) {
  try {
    (void)parse_xml("<a>\n<b>\n</c>\n</a>");
    FAIL() << "expected ss::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

/// The message parse_xml throws for `doc`, or "" when it parses.
std::string parse_error(const std::string& doc) {
  try {
    (void)parse_xml(doc);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(XmlParser, LineNumbersAfterMultiLineAttributeValues) {
  // A duplicate attribute is reported at the line where its value starts.
  EXPECT_EQ(parse_error("<a x=\"1\ny\nz\" x=\"2\"/>"), "xml (line 3): duplicate attribute 'x'");
  EXPECT_EQ(parse_error("<a x=\"1\" x=\"\n\n2\"/>"), "xml (line 1): duplicate attribute 'x'");
  EXPECT_EQ(parse_error("<a>\n<b\nx='1'\n\nx\n=\n'\n2\n'/></a>"),
            "xml (line 7): duplicate attribute 'x'");
  // Entities are decoded, and reported, after the closing quote.
  EXPECT_EQ(parse_error("<a x=\"line1\nline2\nline3\" y=\"&bad;\"/>"),
            "xml (line 3): unknown entity &bad;");
  EXPECT_EQ(parse_error("<a x=\"1\" x=\"\n\n&bad;\"/>"), "xml (line 3): unknown entity &bad;");
  EXPECT_EQ(parse_error("<a\n x\n=\n'1'\n y 2/>"), "xml (line 5): expected '=' after attribute 'y'");
  EXPECT_EQ(parse_error("<a x=\"unterminated\n\n"), "xml (line 3): unterminated attribute value");
}

TEST(XmlParser, LineNumbersAfterComments) {
  EXPECT_EQ(parse_error("<a>\n<!-- multi\nline\ncomment -->\n<b>\n</c></a>"),
            "xml (line 6): mismatched closing tag </c> for <b>");
  EXPECT_EQ(parse_error("<!-- top\ncomment\n-->\n<a>\n</b>"),
            "xml (line 5): mismatched closing tag </b> for <a>");
  EXPECT_EQ(parse_error("<a>\n<!-- unterminated\n\n"), "xml (line 4): unterminated comment");
  EXPECT_EQ(parse_error("<?xml version=\"1.0\"\n\n"),
            "xml (line 3): unterminated processing instruction");
  EXPECT_EQ(parse_error("<!DOCTYPE x\n\n"), "xml (line 3): unterminated DOCTYPE");
}

TEST(XmlParser, LineNumbersAfterText) {
  EXPECT_EQ(parse_error("<a>\ntext\nmore text\n</b>"),
            "xml (line 4): mismatched closing tag </b> for <a>");
  // Character data is decoded once the element closes: the error names the
  // line of the closing tag.
  EXPECT_EQ(parse_error("<a>\ntext\n&bogus;\nmore\n</a>\n"), "xml (line 5): unknown entity &bogus;");
  EXPECT_EQ(parse_error("<a>t1<!--\n\n-->&bog<!--x-->us;\n</a>"),
            "xml (line 4): unknown entity &bogus;");
  EXPECT_EQ(parse_error("<a>\n\ntext"), "xml (line 3): unterminated element <a>");
  EXPECT_EQ(parse_error("<a>\n</a>\n\n<b/>"), "xml (line 4): trailing content after the root element");
  EXPECT_EQ(parse_error("<a>\n</a\n x>"), "xml (line 3): malformed closing tag");
  EXPECT_EQ(parse_error("\n\n  x"), "xml (line 3): expected '<'");
}

TEST(XmlParser, NodeLookupHelpers) {
  const XmlNode root = parse_xml("<r><x i=\"1\"/><y/><x i=\"2\"/></r>");
  ASSERT_NE(root.child("x"), nullptr);
  EXPECT_EQ(root.child("x")->attr("i"), "1");
  EXPECT_EQ(root.child("nope"), nullptr);
  EXPECT_EQ(root.children_named("x").size(), 2u);
  EXPECT_EQ(root.child("y")->attr("missing", "dflt"), "dflt");
  EXPECT_THROW((void)root.child("y")->require_attr("missing"), Error);
  EXPECT_THROW((void)root.child("x")->attr_double("i2"), Error);
  EXPECT_DOUBLE_EQ(root.child("x")->attr_double("i"), 1.0);
  EXPECT_DOUBLE_EQ(root.child("y")->attr_double("nope", 7.5), 7.5);
}

TEST(XmlWriter, RoundTripsDom) {
  const XmlNode original = parse_xml("<r a=\"1 &amp; 2\"><c>text &lt;b&gt;</c><d/></r>");
  const XmlNode reparsed = parse_xml(write_xml(original));
  EXPECT_EQ(reparsed.attr("a"), "1 & 2");
  EXPECT_EQ(reparsed.child("c")->text, "text <b>");
  EXPECT_NE(reparsed.child("d"), nullptr);
}

// ------------------------------------------------------- topology format

constexpr const char* kValidTopology = R"(
<topology name="t">
  <operator name="src" impl="source" service-time="1" time-unit="ms"/>
  <operator name="agg" impl="win_sum" service-time="2.5" time-unit="ms"
            state="partitioned" input-selectivity="10" output-selectivity="1">
    <keys distribution="zipf" count="10" alpha="1.5"/>
  </operator>
  <operator name="out" impl="sink" service-time="100" time-unit="us"/>
  <edge from="src" to="agg"/>
  <edge from="agg" to="out" probability="1.0"/>
</topology>
)";

TEST(TopologyXml, LoadsAValidDescription) {
  Topology t = load_topology(kValidTopology);
  ASSERT_EQ(t.num_operators(), 3u);
  EXPECT_EQ(t.op(0).name, "src");
  EXPECT_DOUBLE_EQ(t.op(0).service_time, 1e-3);
  EXPECT_DOUBLE_EQ(t.op(2).service_time, 100e-6);  // time-unit us
  EXPECT_EQ(t.op(1).state, StateKind::kPartitionedStateful);
  EXPECT_DOUBLE_EQ(t.op(1).selectivity.input, 10.0);
  EXPECT_EQ(t.op(1).keys.num_keys(), 10u);
  EXPECT_EQ(t.op(1).impl, "win_sum");
}

TEST(TopologyXml, ExplicitKeyValues) {
  Topology t = load_topology(R"(
<topology name="t">
  <operator name="src" service-time="1"/>
  <operator name="agg" service-time="1" state="partitioned">
    <keys values="0.5 0.3 0.2"/>
  </operator>
  <edge from="src" to="agg"/>
</topology>)");
  ASSERT_EQ(t.op(1).keys.num_keys(), 3u);
  EXPECT_DOUBLE_EQ(t.op(1).keys.probability(0), 0.5);
}

TEST(TopologyXml, RejectsBadDescriptions) {
  EXPECT_THROW((void)load_topology("<nope/>"), Error);  // wrong root
  EXPECT_THROW((void)load_topology(R"(
<topology><operator name="a" service-time="1"/>
<edge from="a" to="ghost"/></topology>)"),
               Error);  // unknown endpoint
  EXPECT_THROW((void)load_topology(R"(
<topology><operator name="a" service-time="1" time-unit="weeks"/></topology>)"),
               Error);  // bad unit
  EXPECT_THROW((void)load_topology(R"(
<topology>
  <operator name="a" service-time="1"/>
  <operator name="b" service-time="1"/>
  <edge from="a" to="b" probability="0.5"/>
</topology>)"),
               Error);  // probabilities do not sum to 1
}

/// A two-operator description whose partitioned operator "agg" carries
/// `keys` as its <keys> element.
std::string with_keys(const std::string& keys) {
  return "<topology><operator name=\"src\" service-time=\"1\"/>"
         "<operator name=\"agg\" service-time=\"1\" state=\"partitioned\">" +
         keys + "</operator><edge from=\"src\" to=\"agg\"/></topology>";
}

/// The message load_topology throws for `doc`, or "" when it loads.
std::string load_error(const std::string& doc) {
  try {
    (void)load_topology(doc);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(TopologyXml, ErrorMessagesKeepTheirText) {
  EXPECT_EQ(load_error("<nope/>"), "topology xml: root element must be <topology>, got <nope>");
  EXPECT_EQ(load_error(R"(<topology><operator name="a" service-time="1"/>
<edge from="a" to="ghost"/></topology>)"),
            "topology xml: edge to unknown operator 'ghost'");
  EXPECT_EQ(load_error(R"(<topology><operator name="a" service-time="1"/>
<edge from="ghost" to="a"/></topology>)"),
            "topology xml: edge from unknown operator 'ghost'");
  EXPECT_EQ(load_error(R"(<topology><operator name="a" service-time="1"/>
<operator name="a" service-time="2"/></topology>)"),
            "Topology: duplicate operator name 'a'");
  EXPECT_EQ(load_error(R"(<topology><operator name="a" service-time="1"/>
<operator name="b" service-time="1"/>
<edge from="a" to="b"/><edge from="a" to="b"/></topology>)"),
            "Topology: duplicate edge 'a' -> 'b'");
}

TEST(TopologyXml, KeyListsAcceptDecimalSyntax) {
  const Topology t = load_topology(with_keys("<keys values=\" \n+0.5\t.3\r\n2e-1 1E0 0 5. \"/>"));
  ASSERT_EQ(t.op(1).keys.num_keys(), 6u);
  EXPECT_DOUBLE_EQ(t.op(1).keys.probability(3), 1.0 / 7.0);
  EXPECT_EQ(t.op(1).keys.probability(4), 0.0);
  // Underflow reads as zero, as strtod has it.
  const Topology tiny = load_topology(with_keys("<keys values=\"1 1e-400\"/>"));
  ASSERT_EQ(tiny.op(1).keys.num_keys(), 2u);
  EXPECT_EQ(tiny.op(1).keys.probability(1), 0.0);
}

TEST(TopologyXml, RejectsMalformedKeyLists) {
  // A bad token used to end the list silently: "0.5 abc 0.2" loaded as one key.
  for (const char* token : {"abc", "inf", "nan", "1e400", "0x10", "0.5,0.5", "1.5e", "1.5.3", "+-1",
                            "+", "-"}) {
    const std::string message =
        load_error(with_keys(std::string("<keys values=\"0.5 ") + token + " 0.2\"/>"));
    EXPECT_EQ(message, std::string("topology xml: <keys values=...> of operator 'agg' has a "
                                   "malformed frequency '") +
                           token + "'")
        << token;
  }
  EXPECT_EQ(load_error(with_keys("<keys values=\" \n \"/>")),
            "topology xml: <keys values=...> must list frequencies");
  EXPECT_EQ(load_error(with_keys("<keys values=\"0.5 -0.5\"/>")),
            "KeyDistribution: negative frequency");
}

TEST(TopologyXml, RejectsNonFiniteAttributes) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"<topology><operator name=\"a\" service-time=\"inf\"/></topology>", "service-time"},
      {"<topology><operator name=\"a\" service-time=\"nan\"/></topology>", "service-time"},
      {"<topology><operator name=\"a\" service-time=\"1e999\"/></topology>", "service-time"},
      {"<topology><operator name=\"a\" service-time=\"1\" input-selectivity=\"inf\"/>"
       "</topology>",
       "input-selectivity"},
      {"<topology><operator name=\"a\" service-time=\"1\" output-selectivity=\"-nan\"/>"
       "</topology>",
       "output-selectivity"},
      {"<topology><operator name=\"a\" service-time=\"1\"/>"
       "<operator name=\"b\" service-time=\"1\"/>"
       "<edge from=\"a\" to=\"b\" probability=\"infinity\"/></topology>",
       "probability"},
      {with_keys("<keys distribution=\"uniform\" count=\"nan\"/>"), "count"},
      {with_keys("<keys distribution=\"zipf\" count=\"10\" alpha=\"inf\"/>"), "alpha"},
  };
  for (const auto& [doc, attribute] : cases) {
    const std::string message = load_error(doc);
    EXPECT_NE(message.find("attribute '" + attribute + "'"), std::string::npos) << message;
    EXPECT_NE(message.find("is not a finite number"), std::string::npos) << message;
  }
}

/// `value` through the 17-digit text save_topology writes and back through
/// std::strtod.
double through_text(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return std::strtod(out.str().c_str(), nullptr);
}

/// What load_topology(save_topology(t)) must return, built without the
/// parser: numbers as strtod reads their saved text, service times scaled
/// from ms, explicit key lists re-normalized by KeyDistribution.  Uniform
/// and Zipf laws are saved as the law, so they must come back as they were.
Topology reference_reload(const Topology& t) {
  Topology::Builder builder;
  for (const OperatorSpec& op : t.operators()) {
    OperatorSpec spec = op;
    spec.service_time = through_text(op.service_time * 1e3) * 1e-3;
    spec.selectivity.input = through_text(op.selectivity.input);
    spec.selectivity.output = through_text(op.selectivity.output);
    if (op.keys.shape() == KeyDistribution::Shape::kExplicit && !op.keys.empty()) {
      std::vector<double> frequencies;
      for (double p : op.keys.probabilities()) frequencies.push_back(through_text(p));
      spec.keys = KeyDistribution(std::move(frequencies));
    }
    builder.add_operator(std::move(spec));
  }
  for (const Edge& e : t.edges()) builder.add_edge(e.from, e.to, through_text(e.probability));
  return builder.build();
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_bit_identical(const Topology& loaded, const Topology& expected) {
  ASSERT_EQ(loaded.num_operators(), expected.num_operators());
  for (OpIndex i = 0; i < expected.num_operators(); ++i) {
    const OperatorSpec& a = loaded.op(i);
    const OperatorSpec& b = expected.op(i);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.impl, b.impl);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(bits(a.service_time), bits(b.service_time)) << a.name;
    EXPECT_EQ(bits(a.selectivity.input), bits(b.selectivity.input)) << a.name;
    EXPECT_EQ(bits(a.selectivity.output), bits(b.selectivity.output)) << a.name;
    EXPECT_EQ(a.keys.shape(), b.keys.shape()) << a.name;
    EXPECT_EQ(bits(a.keys.alpha()), bits(b.keys.alpha())) << a.name;
    ASSERT_EQ(a.keys.num_keys(), b.keys.num_keys()) << a.name;
    std::size_t differing = 0;
    for (std::size_t k = 0; k < b.keys.num_keys(); ++k) {
      differing += bits(a.keys.probability(k)) != bits(b.keys.probability(k));
    }
    EXPECT_EQ(differing, 0u) << a.name;
  }
  ASSERT_EQ(loaded.num_edges(), expected.num_edges());
  for (std::size_t e = 0; e < expected.num_edges(); ++e) {
    EXPECT_EQ(loaded.edges()[e].from, expected.edges()[e].from);
    EXPECT_EQ(loaded.edges()[e].to, expected.edges()[e].to);
    EXPECT_EQ(bits(loaded.edges()[e].probability), bits(expected.edges()[e].probability));
  }
}

/// A chain: a source, then one partitioned operator "agg<i>" per entry of
/// `keys`.
Topology keyed_chain(const std::vector<KeyDistribution>& keys) {
  Topology::Builder builder;
  builder.add_operator("source", 2e-5);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    OperatorSpec agg;
    agg.name = "agg" + std::to_string(i);
    agg.service_time = 2e-6;
    agg.state = StateKind::kPartitionedStateful;
    agg.keys = keys[i];
    builder.add_operator(std::move(agg));
    builder.add_edge(static_cast<OpIndex>(i), static_cast<OpIndex>(i + 1));
  }
  return builder.build();
}

TEST(TopologyXml, SaveLoadMatchesStrtodReferenceBitForBit) {
  std::vector<Topology> topologies = make_testbed(2018);
  // A 100k-key explicit list keeps the from_chars list path checked at scale.
  topologies.push_back(
      keyed_chain({KeyDistribution(KeyDistribution::zipf(100000, 0.8).probabilities())}));
  topologies.push_back(keyed_chain({KeyDistribution::zipf(100000, 0.8),
                                    KeyDistribution::uniform(1000),
                                    KeyDistribution({0.5, 0.25, 0.125, 0.125})}));
  std::size_t laws = 0;
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    SCOPED_TRACE("topology " + std::to_string(i));
    expect_bit_identical(load_topology(save_topology(topologies[i])),
                         reference_reload(topologies[i]));
    for (const OperatorSpec& op : topologies[i].operators()) {
      laws += op.keys.shape() == KeyDistribution::Shape::kZipf;
    }
  }
  EXPECT_GT(laws, 2u);  // the testbed's Zipf laws round-trip exactly too
}

TEST(TopologyXml, SavesGeneratedLawsAsTheirParameters) {
  const KeyDistribution keys = KeyDistribution::zipf(100000, 0.8);
  const std::string xml = save_topology(keyed_chain({keys, keys}));
  EXPECT_LT(xml.size(), 2048u) << xml;
  EXPECT_EQ(xml.find("values="), std::string::npos);
  EXPECT_NE(xml.find("distribution=\"zipf\""), std::string::npos) << xml;
  EXPECT_NE(xml.find("count=\"100000\""), std::string::npos) << xml;
  const std::string uniform = save_topology(keyed_chain({KeyDistribution::uniform(64)}));
  EXPECT_NE(uniform.find("<keys count=\"64\" distribution=\"uniform\"/>"), std::string::npos)
      << uniform;
  const std::string list = save_topology(keyed_chain({KeyDistribution({1, 1, 2})}));
  EXPECT_NE(list.find("<keys values=\"0.25 0.25 0.5\"/>"), std::string::npos) << list;
}

TEST(TopologyXml, OperatorsWithOneLawShareOneTable) {
  const Topology t = load_topology(
      "<topology><operator name=\"src\" service-time=\"1\"/>"
      "<operator name=\"a\" service-time=\"1\" state=\"partitioned\">"
      "<keys distribution=\"zipf\" count=\"5000\" alpha=\"0.8\"/></operator>"
      "<operator name=\"b\" service-time=\"1\" state=\"partitioned\">"
      "<keys distribution=\"zipf\" count=\"5000\" alpha=\"0.8\"/></operator>"
      "<operator name=\"c\" service-time=\"1\" state=\"partitioned\">"
      "<keys distribution=\"zipf\" count=\"5000\" alpha=\"0.9\"/></operator>"
      "<operator name=\"d\" service-time=\"1\" state=\"partitioned\">"
      "<keys count=\"5000\"/></operator>"
      "<operator name=\"e\" service-time=\"1\" state=\"partitioned\">"
      "<keys distribution=\"uniform\" count=\"5e3\"/></operator>"
      "<edge from=\"src\" to=\"a\"/><edge from=\"a\" to=\"b\"/>"
      "<edge from=\"b\" to=\"c\"/><edge from=\"c\" to=\"d\"/>"
      "<edge from=\"d\" to=\"e\"/></topology>");
  const auto table = [&](const char* name) { return &t.op(*t.find(name)).keys.probabilities(); };
  EXPECT_EQ(table("a"), table("b"));
  EXPECT_NE(table("a"), table("c"));
  EXPECT_NE(table("a"), table("d"));
  EXPECT_EQ(table("d"), table("e"));
  EXPECT_EQ(t.op(*t.find("e")).keys.shape(), KeyDistribution::Shape::kUniform);
  EXPECT_EQ(t.op(*t.find("c")).keys.alpha(), 0.9);
}

TEST(TopologyXml, KeyCountMustBeAPositiveInteger) {
  for (const char* count : {"2.5", "-1", "1e30", "0", "0.5", "100000001"}) {
    EXPECT_EQ(load_error(with_keys(std::string("<keys distribution=\"zipf\" count=\"") + count +
                                   "\" alpha=\"1\"/>")),
              "topology xml: <keys count=...> of operator 'agg' must be a positive integer "
              "(at most 100000000)")
        << count;
    EXPECT_EQ(load_error(with_keys(std::string("<keys count=\"") + count + "\"/>")),
              "topology xml: <keys count=...> of operator 'agg' must be a positive integer "
              "(at most 100000000)")
        << count;
  }
  // Integral values in any strtod spelling still load.
  EXPECT_EQ(load_topology(with_keys("<keys count=\"1e3\"/>")).op(1).keys.num_keys(), 1000u);
  EXPECT_EQ(load_topology(with_keys("<keys count=\"+7.0\"/>")).op(1).keys.num_keys(), 7u);
}

TEST(TopologyXml, SaveLoadRoundTrip) {
  Topology original = load_topology(kValidTopology);
  Topology reloaded = load_topology(save_topology(original, "t"));
  ASSERT_EQ(reloaded.num_operators(), original.num_operators());
  for (OpIndex i = 0; i < original.num_operators(); ++i) {
    EXPECT_EQ(reloaded.op(i).name, original.op(i).name);
    EXPECT_NEAR(reloaded.op(i).service_time, original.op(i).service_time, 1e-9);
    EXPECT_EQ(reloaded.op(i).state, original.op(i).state);
    EXPECT_NEAR(reloaded.op(i).selectivity.input, original.op(i).selectivity.input, 1e-9);
    EXPECT_EQ(reloaded.op(i).impl, original.op(i).impl);
  }
  ASSERT_EQ(reloaded.num_edges(), original.num_edges());
  for (const Edge& e : original.edges()) {
    EXPECT_NEAR(reloaded.edge_probability(e.from, e.to), e.probability, 1e-6);
  }
  // The Zipf law survives as its parameters and rebuilds the same table.
  EXPECT_EQ(reloaded.op(1).keys.shape(), KeyDistribution::Shape::kZipf);
  EXPECT_EQ(reloaded.op(1).keys.probabilities(), original.op(1).keys.probabilities());
}

TEST(TopologyXml, FileRoundTrip) {
  Topology original = load_topology(kValidTopology);
  const std::string path = ::testing::TempDir() + "/ss_topology_test.xml";
  save_topology_file(original, path, "t");
  Topology reloaded = load_topology_file(path);
  EXPECT_EQ(reloaded.num_operators(), original.num_operators());
  EXPECT_THROW((void)load_topology_file("/nonexistent/nope.xml"), Error);
}

// ------------------------------------------------------ key laws on demand

/// source -> running_sum -> counter -> sink over `keys` (a <keys> element),
/// the shape of the keyed control workload; the keyed operators are far
/// below saturation, so auto_optimize leaves them unreplicated.
std::string keyed_document(const std::string& keys) {
  return "<topology><operator name=\"source\" service-time=\"2e-5\"/>"
         "<operator name=\"running_sum\" service-time=\"2e-6\" state=\"partitioned\">" +
         keys +
         "</operator>"
         "<operator name=\"counter\" service-time=\"2e-6\" state=\"partitioned\">" +
         keys +
         "</operator>"
         "<operator name=\"sink\" service-time=\"1e-6\"/>"
         "<edge from=\"source\" to=\"running_sum\"/><edge from=\"running_sum\" "
         "to=\"counter\"/><edge from=\"counter\" to=\"sink\"/></topology>";
}

TEST(KeyLaws, UnreplicatedSetUpBuildsNoTable) {
  for (const bool fusion : {false, true}) {
    SCOPED_TRACE(fusion ? "fusion on" : "fusion off");
    const Topology t = load_topology(
        keyed_document("<keys distribution=\"zipf\" count=\"100000\" alpha=\"0.8\"/>"));
    AutoOptimizeOptions options;
    options.enable_fusion = fusion;
    const AutoOptimizeResult opt = auto_optimize(t, options);
    ASSERT_EQ(opt.plan.replicas_of(1), 1);
    ASSERT_EQ(opt.plan.replicas_of(2), 1);
    const runtime::Engine engine(t, deployment_of(opt), runtime::synthetic_factory(0.0, 1),
                                 runtime::EngineConfig{});
    for (const OpIndex i : {OpIndex{1}, OpIndex{2}}) {
      EXPECT_EQ(t.op(i).keys.num_keys(), 100000u);
      EXPECT_FALSE(t.op(i).keys.materialized()) << t.op(i).name;
    }
  }
}

TEST(KeyLaws, HundredMillionKeyLawRoundTripsWithoutItsTable) {
  const Topology t = load_topology(
      keyed_document("<keys count=\"100000000\" distribution=\"zipf\" alpha=\"0.8\"/>"));
  const std::string saved = save_topology(t, "big");
  const Topology again = load_topology(saved);
  for (const Topology* topo : {&t, &again}) {
    const KeyDistribution& keys = topo->op(1).keys;
    EXPECT_EQ(keys.num_keys(), 100000000u);
    EXPECT_EQ(keys.shape(), KeyDistribution::Shape::kZipf);
    EXPECT_EQ(keys.alpha(), 0.8);
    EXPECT_FALSE(keys.materialized());
  }
  EXPECT_NE(saved.find("count=\"100000000\""), std::string::npos) << saved;
  EXPECT_EQ(saved.find("values="), std::string::npos);
  EXPECT_LT(saved.size(), 2048u);
}

/// Paced source: `count` items, keys drawn by the emitter.
class PacedSource final : public runtime::SourceLogic {
 public:
  explicit PacedSource(std::int64_t count) : count_(count) {}
  bool next(runtime::Tuple& out) override {
    if (next_id_ >= count_) return false;
    {
      runtime::BlockingSection blocking;
      waiter_.wait(50e-6);
    }
    out = runtime::Tuple{};
    out.id = next_id_++;
    return true;
  }

 private:
  std::int64_t count_;
  runtime::PacedWaiter waiter_;
  std::int64_t next_id_ = 0;
};

/// Forwards every item, recording the keys each instance saw.
class KeyRecorder final : public runtime::OperatorLogic {
 public:
  using Seen = std::map<const KeyRecorder*, std::set<std::int64_t>>;
  KeyRecorder(std::mutex& mu, Seen& seen) : mu_(mu), seen_(seen) {}
  void process(const runtime::Tuple& item, OpIndex, runtime::Collector& out) override {
    {
      std::lock_guard lock(mu_);
      seen_[this].insert(item.key);
    }
    out.emit(item);
  }
  [[nodiscard]] std::unique_ptr<runtime::OperatorLogic> clone() const override {
    return std::make_unique<KeyRecorder>(mu_, seen_);
  }

 private:
  std::mutex& mu_;
  Seen& seen_;
};

TEST(KeyLaws, EmitterRoutesByThePartitionComputedBeforeTheFence) {
  const Topology t = load_topology(keyed_document(
      "<keys distribution=\"zipf\" count=\"1000\" alpha=\"0.8\"/>"));
  const KeyPartition want = partition_keys(t.op(1).keys, 2);
  ASSERT_EQ(want.replicas, 2);

  std::mutex mu;
  KeyRecorder::Seen seen;
  std::vector<const KeyRecorder*> sum_logics;  // in creation order
  runtime::AppFactory factory;
  factory.source = [](OpIndex, const OperatorSpec&) {
    return std::make_unique<PacedSource>(4000);
  };
  factory.logic = [&](OpIndex op,
                      const OperatorSpec&) -> std::unique_ptr<runtime::OperatorLogic> {
    auto logic = std::make_unique<KeyRecorder>(mu, seen);
    if (op == 1) sum_logics.push_back(logic.get());
    return logic;
  };
  runtime::Engine engine(t, Deployment{}, std::move(factory), runtime::EngineConfig{});

  runtime::RunStats stats;
  std::atomic<bool> done{false};
  std::thread runner([&] {
    stats = engine.run_until_complete(std::chrono::duration<double>(60.0));
    done.store(true, std::memory_order_release);
  });
  Deployment widened;
  widened.replication.replicas = {1, 2, 1, 1};
  bool switched = false;
  while (!switched && !done.load(std::memory_order_acquire)) {
    switched = engine.reconfigure(widened);
    if (!switched) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  runner.join();
  ASSERT_TRUE(switched);
  EXPECT_EQ(stats.dropped, 0u);

  // The worker, then replicas 0 and 1 of the new epoch.
  ASSERT_EQ(sum_logics.size(), 3u);
  for (int r = 0; r < 2; ++r) {
    const std::set<std::int64_t>& keys = seen[sum_logics[static_cast<std::size_t>(r) + 1]];
    EXPECT_FALSE(keys.empty()) << "replica " << r;
    for (const std::int64_t key : keys) {
      EXPECT_EQ(want.replica_of_key.at(static_cast<std::size_t>(key)), r) << "key " << key;
    }
  }
}

}  // namespace
}  // namespace ss::xml
