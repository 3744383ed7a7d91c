#include "util/kv.hpp"

#include <algorithm>

namespace decycle::util {

std::vector<std::string_view> split_words(std::string_view line) {
  constexpr std::string_view kSpace = " \t\r\n\v\f";
  std::vector<std::string_view> out;
  std::size_t pos = line.find_first_not_of(kSpace);
  while (pos != std::string_view::npos) {
    const std::size_t end = std::min(line.find_first_of(kSpace, pos), line.size());
    out.push_back(line.substr(pos, end - pos));
    pos = line.find_first_not_of(kSpace, end);
  }
  return out;
}

KvReader::KvReader(std::string_view label,
                   std::vector<std::pair<std::string, std::string>> pairs)
    : label_(label) {
  entries_.reserve(pairs.size());
  for (auto& [key, value] : pairs) {
    if (key.empty()) throw ParseError("=" + value, "empty key");
    const bool repeated = std::any_of(entries_.begin(), entries_.end(),
                                      [&key](const Entry& e) { return e.key == key; });
    if (repeated) {
      throw ParseError(key, label_ + " key given twice (give it once; a list is one "
                                     "comma-separated value)");
    }
    entries_.push_back({std::move(key), std::move(value)});
  }
}

KvReader KvReader::from_tokens(std::string_view label, std::span<const std::string_view> tokens) {
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(tokens.size());
  for (const std::string_view token : tokens) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) throw ParseError(token, "not of the form key=value");
    pairs.emplace_back(token.substr(0, eq), token.substr(eq + 1));
  }
  return KvReader(label, std::move(pairs));
}

std::optional<std::string> KvReader::take_string(std::string_view key) {
  if (std::find(asked_.begin(), asked_.end(), key) == asked_.end()) asked_.emplace_back(key);
  for (Entry& e : entries_) {
    if (e.key != key) continue;
    if (e.value.empty()) throw ParseError(key, "empty value");
    e.taken = true;
    return e.value;
  }
  return std::nullopt;
}

std::vector<std::pair<std::string, std::string>> KvReader::take_rest() {
  std::vector<std::pair<std::string, std::string>> out;
  for (Entry& e : entries_) {
    if (e.taken) continue;
    e.taken = true;
    out.emplace_back(e.key, e.value);
  }
  return out;
}

void KvReader::finish() const {
  for (const Entry& e : entries_) {
    if (e.taken) continue;
    std::string accepted;
    for (const std::string& key : asked_) {
      if (!accepted.empty()) accepted += ", ";
      accepted += key;
    }
    throw ParseError(e.key, "unknown " + label_ + " key (accepted: " + accepted + ")");
  }
}

}  // namespace decycle::util
