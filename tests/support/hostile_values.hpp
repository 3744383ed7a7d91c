/// \file hostile_values.hpp
/// \brief The hostile values every `key=value` reader must refuse, and the
/// shape of the refusal.
///
/// Each value is fed under a numeric key of one of the field kinds below;
/// every reader must answer with a typed error whose text names the key
/// (`<key>: …`) and carries no check-macro banner or source location. The
/// header depends on nothing but the standard library, so any harness that
/// speaks a reader's input format (unit tests, a serve adversary over the
/// socket) can replay it.
#pragma once

#include <string>
#include <string_view>

namespace decycle::hostile {

/// What a numeric field holds.
enum class FieldKind : unsigned char {
  kU32,   ///< a 32-bit unsigned field (or a tighter integer range)
  kU64,   ///< a 64-bit unsigned field
  kUnit,  ///< a finite double within [0, 1] or (0, 1]
};

struct HostileValue {
  std::string_view name;
  std::string_view text;
  bool valid_as_u64 = false;  ///< skip on kU64 fields: it fits them
};

inline constexpr HostileValue kHostileValues[] = {
    {"empty", ""},
    {"negative", "-1"},
    {"2^32+3", "4294967299", /*valid_as_u64=*/true},
    {"2^64", "18446744073709551616"},
    {"overflowing double", "1e999"},
    {"nan", "nan"},
    {"trailing junk", "5x"},
};

inline bool applies(const HostileValue& value, FieldKind kind) {
  return !(value.valid_as_u64 && kind == FieldKind::kU64);
}

/// A refusal's text (its type is the caller's catch clause) must start a
/// clause with the key and leak no DECYCLE_CHECK banner or file location.
inline bool names_key_without_location(std::string_view what, std::string_view key) {
  const std::string text(what);
  return text.find(std::string(key) + ":") != std::string::npos &&
         text.find("DECYCLE_CHECK failed") == std::string::npos &&
         text.find(".cpp:") == std::string::npos && text.find(".hpp:") == std::string::npos;
}

}  // namespace decycle::hostile
