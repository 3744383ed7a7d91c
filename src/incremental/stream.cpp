#include "incremental/stream.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <unordered_set>

#include "util/check.hpp"
#include "util/kv.hpp"
#include "util/rng.hpp"

namespace decycle::incremental {

namespace {

/// Canonical 64-bit key of one insert for duplicate detection: the
/// unordered pair, so (1,0) duplicates (0,1).
std::uint64_t insert_key(const Insert& e) {
  const graph::Vertex a = std::min(e.first, e.second);
  const graph::Vertex b = std::max(e.first, e.second);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Decodes triangular index \p idx into the canonical pair (u < v) with
/// idx = v(v-1)/2 + u. Double sqrt gets within one of the right row; the
/// adjustment loop makes it exact for any 64-bit-triangular universe.
Insert decode_pair(std::uint64_t idx) {
  auto v = static_cast<std::uint64_t>(
      (1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(idx))) / 2.0);
  while (v * (v - 1) / 2 > idx) --v;
  while ((v + 1) * v / 2 <= idx) ++v;
  const std::uint64_t u = idx - v * (v - 1) / 2;
  return {static_cast<graph::Vertex>(u), static_cast<graph::Vertex>(v)};
}

}  // namespace

void write_stream(std::ostream& out, const InsertStream& stream) {
  out << "# decycle_incr stream v1\n";
  out << "stream n=" << stream.n << " directed=0 seed=" << stream.seed << "\n";
  out << stream.inserts.size() << "\n";
  for (const Insert& e : stream.inserts) out << e.first << " " << e.second << "\n";
}

InsertStream read_stream(std::istream& in) {
  std::string line;
  const auto next_content_line = [&](std::string_view what) {
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      return util::split_words(line);
    }
    throw util::ParseError("stream", "unexpected end of file, expected " + std::string(what));
  };

  const std::vector<std::string_view> header =
      next_content_line("the 'stream n=... directed=0 seed=...' header");
  if (header.empty() || header[0] != "stream") {
    throw util::ParseError("stream", "header must start with 'stream', got '" +
                                         std::string(header.empty() ? "" : header[0]) + "'");
  }
  util::KvReader r = util::KvReader::from_tokens("stream header", std::span(header).subspan(1));
  const auto required = [&r](std::string_view key) {
    auto value = r.take_string(key);
    if (!value) throw util::ParseError(key, "stream header is missing " + std::string(key) + "=");
    return std::move(*value);
  };
  InsertStream out;
  out.n = util::parse_value<graph::Vertex>("n", required("n"));
  const std::string directed = required("directed");
  if (directed == "1") {
    throw util::ParseError("directed", "directed streams were removed; only directed=0 is read");
  }
  if (directed != "0") throw util::ParseError("directed", "must be 0, got '" + directed + "'");
  out.seed = r.take("seed", out.seed);
  r.finish();

  // A duplicate-free stream has at most n(n-1)/2 distinct edges to insert.
  // The buffers grow with the lines actually read, so a count the file does
  // not back allocates nothing before the parser reaches its end.
  const std::vector<std::string_view> count_line = next_content_line("the insert count");
  if (count_line.size() != 1) {
    throw util::ParseError("insert count", "expected one unsigned integer, got '" + line + "'");
  }
  const std::uint64_t count = util::parse_value<std::uint64_t>("insert count", count_line[0]);
  const std::uint64_t n = out.n;
  if (count > n * (n - 1) / 2) {
    throw util::ParseError("insert count", std::to_string(count) + " exceeds n(n-1)/2 = " +
                                               std::to_string(n * (n - 1) / 2) +
                                               ", the distinct edges on n=" + std::to_string(n) +
                                               " vertices");
  }

  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::vector<std::string_view> words = next_content_line("an insert line");
    const std::string key = "insert " + std::to_string(i);
    if (words.size() != 2) {
      throw util::ParseError(key, "expected two vertex ids, got '" + line + "'");
    }
    // count >= 1 implies n >= 2, so n - 1 is the largest vertex id.
    const Insert e{util::parse_value<graph::Vertex>(key, words[0], 0, out.n - 1),
                   util::parse_value<graph::Vertex>(key, words[1], 0, out.n - 1)};
    if (e.first == e.second) throw util::ParseError(key, "self-loop");
    if (!seen.insert(insert_key(e)).second) {
      throw util::ParseError(key, "duplicates an earlier insert (streams are duplicate-free)");
    }
    out.inserts.push_back(e);
  }
  return out;
}

InsertStream generate_stream(const StreamSpec& spec) {
  DECYCLE_CHECK_MSG(spec.n >= 2, "generate_stream: need at least 2 vertices");
  InsertStream out;
  out.n = spec.n;
  out.seed = spec.seed;

  // Distinct unordered pairs, uniformly ordered. fork(0) is the derivation
  // every recorded stream was drawn with, so (spec, seed) keeps its bytes.
  const std::uint64_t n = spec.n;
  util::Rng rng = util::Rng(spec.seed).fork(n).fork(0);
  const std::uint64_t universe = n * (n - 1) / 2;
  const std::size_t m =
      static_cast<std::size_t>(std::min<std::uint64_t>(spec.inserts, universe));
  for (const std::uint64_t idx : rng.sample_distinct(universe, m)) {
    out.inserts.push_back(decode_pair(idx));
  }
  return out;
}

}  // namespace decycle::incremental
