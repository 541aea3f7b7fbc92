#include "xmlio/xml.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "core/error.hpp"

namespace ss::xml {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  XmlNode parse_document() {
    skip_misc();
    require(!at_end(), "xml: document has no root element");
    XmlNode root = parse_element();
    skip_misc();
    expect(at_end(), "trailing content after the root element");
    return root;
  }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= input_.size(); }
  [[nodiscard]] char peek() const { return input_[pos_]; }
  [[nodiscard]] bool starts_with(std::string_view prefix) const {
    return input_.substr(pos_, prefix.size()) == prefix;
  }

  /// Moves to the next occurrence of `token`, or to the end of the input;
  /// true when found.
  bool seek(std::string_view token) {
    pos_ = std::min(input_.find(token, pos_), input_.size());
    return !at_end();
  }

  /// Throws `message` located at the line of offset `at`.  Lines are
  /// counted here, on the failure path only.
  [[noreturn]] void fail(std::string_view message, std::size_t at) const {
    const auto line = 1 + std::count(input_.begin(), input_.begin() + at, '\n');
    throw Error("xml (line " + std::to_string(line) + "): " + std::string(message));
  }
  [[noreturn]] void fail(std::string_view message) const { fail(message, pos_); }

  void expect(bool condition, const char* message) const {
    if (!condition) fail(message);
  }

  void skip_whitespace() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
  }

  void skip_comment() {
    pos_ += 4;  // "<!--"
    expect(seek("-->"), "unterminated comment");
    pos_ += 3;
  }

  /// Whitespace, comments and processing instructions / declarations.
  void skip_misc() {
    while (true) {
      skip_whitespace();
      if (starts_with("<!--")) {
        skip_comment();
      } else if (starts_with("<?")) {
        expect(seek("?>"), "unterminated processing instruction");
        pos_ += 2;
      } else if (starts_with("<!DOCTYPE")) {
        expect(seek(">"), "unterminated DOCTYPE");
        ++pos_;
      } else {
        return;
      }
    }
  }

  [[nodiscard]] static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' || c == '.' ||
           c == ':';
  }

  std::string_view parse_name() {
    const std::size_t start = pos_;
    while (!at_end() && is_name_char(peek())) ++pos_;
    expect(pos_ > start, "expected a name");
    return input_.substr(start, pos_ - start);
  }

  /// `raw` with entity and character references replaced; copied as is
  /// when it holds no '&'.
  std::string decode_entities(std::string_view raw) const {
    if (raw.find('&') == std::string_view::npos) return std::string(raw);
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out.push_back(raw[i]);
        continue;
      }
      const auto semi = raw.find(';', i);
      expect(semi != std::string_view::npos, "unterminated entity");
      const std::string entity(raw.substr(i + 1, semi - i - 1));
      if (entity == "amp") {
        out.push_back('&');
      } else if (entity == "lt") {
        out.push_back('<');
      } else if (entity == "gt") {
        out.push_back('>');
      } else if (entity == "quot") {
        out.push_back('"');
      } else if (entity == "apos") {
        out.push_back('\'');
      } else if (!entity.empty() && entity[0] == '#') {
        const long code = std::strtol(entity.c_str() + 1, nullptr, entity[1] == 'x' ? 16 : 10);
        if (code <= 0 || code >= 128) fail("unsupported character reference &" + entity + ";");
        out.push_back(static_cast<char>(code));
      } else {
        fail("unknown entity &" + entity + ";");
      }
      i = semi;
    }
    return out;
  }

  std::string parse_attr_value() {
    expect(!at_end() && (peek() == '"' || peek() == '\''), "expected a quoted value");
    const char quote = peek();
    const std::size_t start = ++pos_;
    expect(seek(std::string_view(&quote, 1)), "unterminated attribute value");
    const std::string_view raw = input_.substr(start, pos_ - start);
    ++pos_;  // closing quote
    return decode_entities(raw);
  }

  XmlNode parse_element() {
    expect(peek() == '<', "expected '<'");
    ++pos_;
    XmlNode node;
    node.name = parse_name();

    // Attributes.
    while (true) {
      skip_whitespace();
      if (at_end()) fail("unterminated start tag <" + node.name);
      if (peek() == '>' || starts_with("/>")) break;
      std::string key(parse_name());
      skip_whitespace();
      if (at_end() || peek() != '=') fail("expected '=' after attribute '" + key + "'");
      ++pos_;
      skip_whitespace();
      // A duplicate is reported at the line where its value starts.
      const std::size_t value_at = pos_;
      if (const auto [it, added] = node.attributes.emplace(std::move(key), parse_attr_value());
          !added) {
        fail("duplicate attribute '" + it->first + "'", value_at);
      }
    }
    if (starts_with("/>")) {
      pos_ += 2;
      return node;
    }
    ++pos_;  // '>'

    // Content.
    std::string text;
    while (true) {
      if (at_end()) fail("unterminated element <" + node.name + ">");
      if (starts_with("</")) {
        pos_ += 2;
        const std::string_view closing = parse_name();
        if (closing != node.name) {
          fail("mismatched closing tag </" + std::string(closing) + "> for <" + node.name + ">");
        }
        skip_whitespace();
        expect(!at_end() && peek() == '>', "malformed closing tag");
        ++pos_;
        break;
      }
      if (starts_with("<!--")) {
        skip_comment();
      } else if (peek() == '<') {
        node.children.push_back(parse_element());
      } else {
        const std::size_t start = pos_;
        seek("<");
        text.append(input_.substr(start, pos_ - start));
      }
    }

    // Trim and decode the character data.
    const auto first = text.find_first_not_of(" \t\r\n");
    if (first != std::string::npos) {
      const auto last = text.find_last_not_of(" \t\r\n");
      node.text = decode_entities(std::string_view(text).substr(first, last - first + 1));
    }
    return node;
  }

  std::string_view input_;
  std::size_t pos_ = 0;
};

void write_node(const XmlNode& node, std::ostringstream& out, int depth) {
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  out << indent << '<' << node.name;
  for (const auto& [key, value] : node.attributes) {
    out << ' ' << key << "=\"" << escape_text(value) << '"';
  }
  if (node.children.empty() && node.text.empty()) {
    out << "/>\n";
    return;
  }
  out << '>';
  if (!node.text.empty()) out << escape_text(node.text);
  if (!node.children.empty()) {
    out << '\n';
    for (const XmlNode& child : node.children) write_node(child, out, depth + 1);
    out << indent;
  }
  out << "</" << node.name << ">\n";
}

}  // namespace

const XmlNode* XmlNode::child(const std::string& child_name) const {
  for (const XmlNode& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

std::vector<const XmlNode*> XmlNode::children_named(const std::string& child_name) const {
  std::vector<const XmlNode*> result;
  for (const XmlNode& c : children) {
    if (c.name == child_name) result.push_back(&c);
  }
  return result;
}

bool XmlNode::has_attr(const std::string& key) const { return attributes.count(key) > 0; }

std::string XmlNode::attr(const std::string& key, const std::string& fallback) const {
  auto it = attributes.find(key);
  return it == attributes.end() ? fallback : it->second;
}

double XmlNode::attr_double(const std::string& key) const {
  const std::string& value = require_attr(key);
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    throw Error("xml: attribute '" + key + "' of <" + name + "> is not a number: '" + value + "'");
  }
  if (!std::isfinite(parsed)) {
    throw Error("xml: attribute '" + key + "' of <" + name + "> is not a finite number: '" +
                value + "'");
  }
  return parsed;
}

double XmlNode::attr_double(const std::string& key, double fallback) const {
  return has_attr(key) ? attr_double(key) : fallback;
}

const std::string& XmlNode::require_attr(const std::string& key) const {
  auto it = attributes.find(key);
  if (it == attributes.end()) throw Error("xml: <" + name + "> requires attribute '" + key + "'");
  return it->second;
}

XmlNode parse_xml(std::string_view input) { return Parser(input).parse_document(); }

std::string write_xml(const XmlNode& node) {
  std::ostringstream out;
  out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  write_node(node, out, 0);
  return out.str();
}

std::string escape_text(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace ss::xml
