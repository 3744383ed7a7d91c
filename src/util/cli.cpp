#include "util/cli.hpp"

#include <algorithm>
#include <exception>
#include <iostream>

namespace decycle::util {

namespace {

/// The key=value pairs of argv; a bare --flag gets the value "1" and its
/// key goes to \p bare.
std::vector<std::pair<std::string, std::string>> argv_pairs(int argc, const char* const* argv,
                                                             std::vector<std::string>& bare) {
  const auto is_flag = [](std::string_view token) { return token.substr(0, 2) == "--"; };
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (!is_flag(arg)) {
      throw ParseError(arg, "arguments must look like --key=value or --key value");
    }
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    std::string value = "1";
    if (eq != std::string_view::npos) {
      value = body.substr(eq + 1);
    } else if (i + 1 < argc && !is_flag(argv[i + 1])) {
      // "--key value": a token that is not itself a flag is the value (a
      // bare token is never accepted on its own, so this changes no command
      // line that parsed before).
      value = argv[++i];
    } else {
      bare.emplace_back(body);
    }
    pairs.emplace_back(body.substr(0, eq), std::move(value));
  }
  return pairs;
}

}  // namespace

Args::Args(int argc, const char* const* argv)
    : reader_("command-line", argv_pairs(argc, argv, bare_)) {}

void Args::require_value(std::string_view key) const {
  if (std::find(bare_.begin(), bare_.end(), key) != bare_.end()) {
    throw ParseError(key, "needs a value (--" + std::string(key) + "=VALUE)");
  }
}

bool Args::get_bool(std::string_view key, bool fallback) const {
  const auto raw = reader_.take_string(key);
  if (!raw) return fallback;
  if (*raw == "1" || *raw == "true" || *raw == "yes" || *raw == "on") return true;
  if (*raw == "0" || *raw == "false" || *raw == "no" || *raw == "off") return false;
  throw ParseError(key, "expected boolean (1/0, true/false, yes/no, on/off), got '" + *raw + "'");
}

std::string Args::get_string(std::string_view key, std::string_view fallback) const {
  require_value(key);
  return reader_.take_string(key).value_or(std::string(fallback));
}

bool Args::has(std::string_view key) const { return reader_.take_string(key).has_value(); }

std::vector<std::pair<std::string, std::string>> Args::take_unconsumed() const {
  auto rest = reader_.take_rest();
  for (const auto& [key, value] : rest) require_value(key);
  return rest;
}

void Args::reject_unknown() const {
  std::string keys;
  for (const auto& [key, value] : reader_.take_rest()) keys += (keys.empty() ? "--" : " --") + key;
  if (!keys.empty()) throw ParseError("unknown arguments", keys);
}

int run_main(std::string_view name, int argc, const char* const* argv,
             int (*body)(const Args&)) {
  try {
    return body(Args(argc, argv));
  } catch (const CheckError& e) {
    std::cerr << name << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    // bad_alloc on a huge workload, system_error from thread creation, ...:
    // still a loud diagnostic and a controlled exit, never SIGABRT.
    std::cerr << name << ": " << e.what() << "\n";
    return 3;
  }
}

}  // namespace decycle::util
