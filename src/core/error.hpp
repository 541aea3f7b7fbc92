// Common error type for recoverable failures across the SpinStreams library.
//
// Recoverable misuse (malformed XML, illegal fusion sub-graphs, inconsistent
// probability annotations, ...) throws ss::Error carrying a human-readable
// message with enough context to fix the input.  Programming errors are
// handled with assertions instead.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

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

/// Multi-part overload: `require(ok, "operator '", name, "' ...")` throws
/// the parts joined in order, and joins them only when the check fails, so
/// a passing check allocates nothing.  Parts are anything a string_view
/// binds to (literals, std::string, string_view); a part that must itself
/// be computed (a number formatted with std::to_string, say) belongs behind
/// an explicit `if (!ok)` instead, or it is computed on every call.
template <typename... Parts>
  requires(sizeof...(Parts) >= 2)
inline void require(bool condition, const Parts&... parts) {
  if (condition) [[likely]] return;
  std::string message;
  (message.append(std::string_view(parts)), ...);
  throw Error(std::move(message));
}

}  // namespace ss
