// Minimal XML DOM: enough of the language for the SpinStreams topology
// description format (elements, attributes, text, comments, declarations,
// the five predefined entities), with no external dependencies.
// parse_xml() reports errors with line numbers via ss::Error and runs in
// time linear in the document size.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ss::xml {

struct XmlNode {
  std::string name;
  std::map<std::string, std::string> attributes;
  std::vector<XmlNode> children;
  /// Concatenated character data directly inside this element (trimmed).
  std::string text;

  /// First child element with the given name, or nullptr.
  [[nodiscard]] const XmlNode* child(const std::string& child_name) const;
  /// All child elements with the given name.
  [[nodiscard]] std::vector<const XmlNode*> children_named(const std::string& child_name) const;

  [[nodiscard]] bool has_attr(const std::string& key) const;
  /// Attribute value or `fallback`.
  [[nodiscard]] std::string attr(const std::string& key, const std::string& fallback = "") const;
  /// Attribute parsed as a finite double; throws ss::Error when absent,
  /// malformed or non-finite.
  [[nodiscard]] double attr_double(const std::string& key) const;
  /// Attribute parsed as double with a fallback for absence.
  [[nodiscard]] double attr_double(const std::string& key, double fallback) const;
  /// Required attribute; throws ss::Error when absent.
  [[nodiscard]] const std::string& require_attr(const std::string& key) const;
};

/// Parses one XML document and returns its root element.
XmlNode parse_xml(std::string_view input);

/// Serializes a node (recursively) with 2-space indentation.
std::string write_xml(const XmlNode& node);

/// Escapes the five predefined entities in attribute/text content.
std::string escape_text(const std::string& raw);

}  // namespace ss::xml
