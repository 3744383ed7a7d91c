/// \file cli.hpp
/// \brief Command-line flags for the tools, benches and examples.
///
/// Every binary accepts overrides like `--n=100000 --k 7 --smoke`. Values
/// are read by util/kv.hpp's rules — whole, within the field's type and
/// limits, finite, never repeated — and reject_unknown() turns a typo into
/// an error instead of a silent default workload. run_main() wraps a
/// binary's body so that a bad argument prints `<name>: <message>` and
/// exits 2, and any other failure exits 3, never std::terminate. Not a
/// general-purpose CLI library — exactly what the executables in this
/// repository need.
#pragma once

#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/kv.hpp"

namespace decycle::util {

class Args {
 public:
  /// Parses argv. Accepts "--key=value", "--key value" (the next token is
  /// the value when it does not start with "--") and a bare "--flag",
  /// which only get_bool (true) and has() accept. Throws ParseError on a
  /// bare token or a repeated key.
  Args(int argc, const char* const* argv);

  /// The value of --key read as a T in [lo, hi] (kv.hpp's parse_value), or
  /// \p fallback when the flag is absent. T is the field's own type.
  template <class T>
  [[nodiscard]] T get(std::string_view key, T fallback,
                      std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
                      std::type_identity_t<T> hi = std::numeric_limits<T>::max()) const {
    require_value(key);
    return reader_.take<T>(key, fallback, lo, hi);
  }

  /// The comma list under --key (kv.hpp's parse_list), or \p fallback.
  template <class T>
  [[nodiscard]] std::vector<T> get_list(std::string_view key, std::vector<T> fallback) const {
    require_value(key);
    std::vector<T> list = reader_.take_list<T>(key);
    return list.empty() ? std::move(fallback) : list;
  }

  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;
  [[nodiscard]] std::string get_string(std::string_view key, std::string_view fallback) const;

  [[nodiscard]] bool has(std::string_view key) const;

  /// Key=value pairs not read so far, in command-line order, marked as
  /// read. Lets a binary peel off its own flags and forward the rest to a
  /// second parser that owns the error reporting (decycle_lab forwards
  /// these as scenario-matrix tokens). A bare flag among them throws.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> take_unconsumed() const;

  /// Throws ParseError ("unknown arguments: --a --b") if a flag was never read.
  void reject_unknown() const;

 private:
  /// Throws ParseError when --key was given without a value.
  void require_value(std::string_view key) const;

  std::vector<std::string> bare_;  ///< keys given as a bare --flag
  mutable KvReader reader_;
};

/// Runs \p body on the parsed command line: prints `<name>: <what>` on
/// stderr and returns 2 for a CheckError (ParseError included) and 3 for
/// any other exception; otherwise returns \p body's exit code.
int run_main(std::string_view name, int argc, const char* const* argv,
             int (*body)(const Args&));

}  // namespace decycle::util
