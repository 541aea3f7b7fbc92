// Common error type for recoverable failures across the SpinStreams library.
//
// Recoverable misuse (malformed XML, illegal fusion sub-graphs, inconsistent
// probability annotations, ...) throws ss::Error carrying a human-readable
// message with enough context to fix the input.  Programming errors are
// handled with assertions instead.
#pragma once

#include <stdexcept>
#include <string>

namespace ss {

/// Exception thrown on recoverable, user-fixable errors.
class Error : public std::runtime_error {
 public:
  explicit Error(std::string message) : std::runtime_error(std::move(message)) {}
};

/// Throws ss::Error with `message` when `condition` is false.
inline void require(bool condition, const std::string& message) {
  if (!condition) throw Error(message);
}

/// Literal-message overload: a passing check builds no string.
inline void require(bool condition, const char* message) {
  if (!condition) throw Error(message);
}

}  // namespace ss
