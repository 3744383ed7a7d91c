/// \file check.hpp
/// \brief Runtime precondition / invariant checking for the decycle library.
///
/// Library code uses DECYCLE_CHECK for conditions that must hold regardless of
/// build type (argument validation, protocol invariants whose violation would
/// silently corrupt results). Violations throw decycle::util::CheckError with
/// the failing expression and location, so tests can assert on them and
/// experiment harnesses fail loudly instead of producing bogus tables.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace decycle::util {

/// Exception thrown when a DECYCLE_CHECK condition fails. Malformed input
/// throws the derived util::ParseError (kv.hpp), which carries no location.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] inline void check_failed(std::string_view expr, std::string_view file, long line,
                                      std::string_view msg) {
  std::string full = "DECYCLE_CHECK failed: ";
  full.append(expr);
  full.append(" at ");
  full.append(file);
  full.append(":");
  full.append(std::to_string(line));
  if (!msg.empty()) {
    full.append(" — ");
    full.append(msg);
  }
  throw CheckError(full);
}
}  // namespace detail

}  // namespace decycle::util

/// Always-on invariant check. Throws CheckError on failure.
#define DECYCLE_CHECK(cond)                                                              \
  do {                                                                                   \
    if (!(cond)) ::decycle::util::detail::check_failed(#cond, __FILE__, __LINE__, ""); \
  } while (false)

/// Always-on invariant check with an explanatory message.
#define DECYCLE_CHECK_MSG(cond, msg)                                                      \
  do {                                                                                    \
    if (!(cond)) ::decycle::util::detail::check_failed(#cond, __FILE__, __LINE__, (msg)); \
  } while (false)
