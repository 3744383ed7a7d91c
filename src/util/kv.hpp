/// \file kv.hpp
/// \brief The one reader for `key=value` text: flags, scenario specs, repro
/// files, stream files, budget schedules and daemon requests.
///
/// Every input a user can type goes through the same rules:
///   - a token without `=`, an empty key and a repeated key are errors;
///   - a key nobody asked for is an error naming the keys that were asked for;
///   - a number is read whole with std::from_chars (no empty text, no sign
///     `+`, no whitespace, no trailing bytes), must lie in the field's
///     [lo, hi] — by default the range of the field's own type, so a value
///     is never narrowed — and a double must be finite;
///   - a list is comma-separated with no empty items; integer lists also
///     accept inclusive ranges `lo..hi` and `lo..hi:step`; a list expands
///     to at most kMaxListItems items, counted before a range is expanded.
/// A violation throws ParseError, whose what() is `<key>: <message>` and
/// never carries a source location.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace decycle::util {

/// A malformed input value. A CheckError, so every caller that maps
/// CheckError to "bad input" (tools exit 2, the daemon's bad_request)
/// handles it unchanged.
class ParseError : public CheckError {
 public:
  ParseError(std::string_view key, std::string_view message)
      : CheckError(std::string(key) + ": " + std::string(message)) {}
};

/// The most items a list may expand to: far above every matrix axis, so a
/// slip like `n=3..300000000` is refused before anything is allocated.
inline constexpr std::size_t kMaxListItems = 4096;

/// A count held in a double, so that sums and products of list lengths
/// cannot overflow: plain digits up to 10^17, scientific notation beyond.
[[nodiscard]] inline std::string count_text(double count) {
  char buf[32];
  return std::string(
      buf, std::to_chars(buf, buf + sizeof(buf), count, std::chars_format::general, 17).ptr);
}

/// Reads the whole of \p text as a T (an integer type or double) within
/// [lo, hi]. Throws ParseError naming \p key otherwise.
template <class T>
[[nodiscard]] T parse_value(std::string_view key, std::string_view text,
                            std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
                            std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  constexpr bool kFloat = std::is_floating_point_v<T>;
  if (text.empty()) throw ParseError(key, "empty value");
  T out{};
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  const bool overflow = ec == std::errc::result_out_of_range;
  if (overflow && kFloat) throw ParseError(key, std::string(text) + " does not fit a double");
  if (!overflow && (ec != std::errc() || ptr != text.data() + text.size())) {
    throw ParseError(key, std::string("expected ") +
                              (kFloat ? "number" : std::is_signed_v<T> ? "integer"
                                                                       : "unsigned integer") +
                              ", got '" + std::string(text) + "'");
  }
  if constexpr (kFloat) {
    if (!std::isfinite(out)) throw ParseError(key, std::string(text) + " is not finite");
  }
  if (overflow || out < lo || out > hi) {
    const auto shortest = [](T v) {
      char buf[32];
      return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    };
    throw ParseError(key, std::string(text) + " out of range " + shortest(lo) + ".." +
                              shortest(hi));
  }
  return out;
}

/// Reads a comma list of T within [lo, hi] (T = std::string keeps the items
/// as text). Integer items may be ranges `a..b` or `a..b:step`.
template <class T>
[[nodiscard]] std::vector<T> parse_list(
    std::string_view key, std::string_view text,
    std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
    std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  if (text.empty()) throw ParseError(key, "empty value");
  const auto too_long = [key](double items) {
    return ParseError(key, "list expands to at least " + count_text(items) +
                               " items; the limit is " + std::to_string(kMaxListItems));
  };
  std::vector<T> out;
  for (std::size_t start = 0;;) {
    const std::size_t comma = text.find(',', start);
    const std::string_view item = text.substr(start, comma - start);
    const std::size_t dots = item.find("..");
    if (item.empty()) throw ParseError(key, "empty item in list '" + std::string(text) + "'");
    if (out.size() == kMaxListItems) throw too_long(kMaxListItems + 1);
    if constexpr (std::is_same_v<T, std::string>) {
      out.emplace_back(item);
    } else if (std::is_integral_v<T> && dots != std::string_view::npos) {
      std::string_view rest = item.substr(dots + 2);
      T step = 1;
      if (const std::size_t colon = rest.find(':'); colon != std::string_view::npos) {
        step = parse_value<T>(key, rest.substr(colon + 1));
        if (step == 0) throw ParseError(key, "range step must be positive");
        rest = rest.substr(0, colon);
      }
      const T first = parse_value<T>(key, item.substr(0, dots), lo, hi);
      const T last = parse_value<T>(key, rest, lo, hi);
      if (first > last) {
        throw ParseError(key, "range " + std::string(item) + " is empty (lo > hi)");
      }
      const std::uint64_t more =  // items after `first`, in modular arithmetic
          (static_cast<std::uint64_t>(last) - static_cast<std::uint64_t>(first)) /
          static_cast<std::uint64_t>(step);
      if (more >= kMaxListItems - out.size()) {
        throw too_long(static_cast<double>(out.size()) + static_cast<double>(more) + 1);
      }
      for (T v = first;; v += step) {
        out.push_back(v);
        if (last - v < step) break;  // also guards v + step against overflow
      }
    } else {
      out.push_back(parse_value<T>(key, item, lo, hi));
    }
    if (comma == std::string_view::npos) return out;
    start = comma + 1;
  }
}

/// Splits \p line on whitespace, dropping empty words.
[[nodiscard]] std::vector<std::string_view> split_words(std::string_view line);

/// A set of key=value pairs read one key at a time. \p label names the
/// input in the duplicate- and unknown-key messages ("scenario",
/// "stream header", ...).
class KvReader {
 public:
  /// From pre-split pairs. Throws ParseError on an empty or repeated key.
  KvReader(std::string_view label, std::vector<std::pair<std::string, std::string>> pairs);

  /// From `key=value` tokens. Throws ParseError on a token without `=`.
  [[nodiscard]] static KvReader from_tokens(std::string_view label,
                                            std::span<const std::string_view> tokens);

  /// The value of \p key read as a T in [lo, hi], or \p fallback when absent.
  template <class T>
  [[nodiscard]] T take(std::string_view key, T fallback,
                       std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
                       std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
    const auto raw = take_string(key);
    return raw ? parse_value<T>(key, *raw, lo, hi) : fallback;
  }

  /// The comma list under \p key (see parse_list); empty when absent.
  template <class T>
  [[nodiscard]] std::vector<T> take_list(
      std::string_view key, std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
      std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
    const auto raw = take_string(key);
    return raw ? parse_list<T>(key, *raw, lo, hi) : std::vector<T>{};
  }

  /// The raw value of \p key; nullopt when absent. An empty value throws.
  [[nodiscard]] std::optional<std::string> take_string(std::string_view key);

  /// Pairs never taken so far, in input order, now marked taken.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> take_rest();

  /// Throws ParseError on the first key never taken, naming every key that
  /// was asked for.
  void finish() const;

 private:
  struct Entry {
    std::string key;
    std::string value;
    bool taken = false;
  };

  std::string label_;
  std::vector<Entry> entries_;
  std::vector<std::string> asked_;
};

}  // namespace decycle::util
