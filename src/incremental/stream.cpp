#include "incremental/stream.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_set>

#include "util/check.hpp"
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

/// Parses the whole of \p value as an unsigned integer no larger than
/// \p max; the message names \p what (the header key or the count).
std::uint64_t parse_bounded(const std::string& what, const std::string& value,
                            std::uint64_t max) {
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  const bool too_big = ec == std::errc::result_out_of_range || (ec == std::errc() && out > max);
  DECYCLE_CHECK_MSG(!too_big, "stream parse: " + what + " out of range: '" + value +
                                  "' (at most " + std::to_string(max) + ")");
  DECYCLE_CHECK_MSG(ec == std::errc() && ptr == value.data() + value.size(),
                    "stream parse: malformed " + what + ": '" + value + "'");
  return out;
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
  auto next_content_line = [&](const char* what) {
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      return;
    }
    DECYCLE_CHECK_MSG(false, std::string("stream parse: unexpected end of file, expected ") + what);
  };

  next_content_line("the 'stream n=... directed=0 seed=...' header");
  std::istringstream header(line);
  std::string tag;
  header >> tag;
  DECYCLE_CHECK_MSG(tag == "stream",
                    "stream parse: header must start with 'stream', got '" + tag + "'");
  InsertStream out;
  bool saw_n = false;
  bool saw_directed = false;
  bool saw_seed = false;
  std::string token;
  while (header >> token) {
    const std::size_t eq = token.find('=');
    DECYCLE_CHECK_MSG(eq != std::string::npos,
                      "stream parse: header token '" + token + "' is not key=value");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "n") {
      DECYCLE_CHECK_MSG(!saw_n, "stream parse: duplicate header key 'n'");
      out.n = static_cast<graph::Vertex>(
          parse_bounded("value for 'n'", value, std::numeric_limits<graph::Vertex>::max()));
      saw_n = true;
    } else if (key == "directed") {
      DECYCLE_CHECK_MSG(!saw_directed, "stream parse: duplicate header key 'directed'");
      DECYCLE_CHECK_MSG(value != "1",
                        "stream parse: directed streams were removed; only directed=0 is read");
      DECYCLE_CHECK_MSG(value == "0", "stream parse: directed must be 0, got '" + value + "'");
      saw_directed = true;
    } else if (key == "seed") {
      DECYCLE_CHECK_MSG(!saw_seed, "stream parse: duplicate header key 'seed'");
      out.seed = parse_bounded("value for 'seed'", value,
                               std::numeric_limits<std::uint64_t>::max());
      saw_seed = true;
    } else {
      DECYCLE_CHECK_MSG(false, "stream parse: unknown header key '" + key +
                                   "' (accepted: n, directed, seed)");
    }
  }
  DECYCLE_CHECK_MSG(saw_n, "stream parse: header is missing n=");
  DECYCLE_CHECK_MSG(saw_directed, "stream parse: header is missing directed=");

  // A duplicate-free stream has at most n(n-1)/2 distinct edges to insert.
  // The buffers grow with the lines actually read, so a count the file does
  // not back allocates nothing before the parser reaches its end.
  next_content_line("the insert count");
  std::string count_token;
  std::istringstream(line) >> count_token;
  const std::uint64_t count =
      parse_bounded("insert count", count_token, std::numeric_limits<std::uint64_t>::max());
  const std::uint64_t n = out.n;
  DECYCLE_CHECK_MSG(count <= n * (n - 1) / 2,
                    "stream parse: insert count " + count_token + " exceeds n(n-1)/2 = " +
                        std::to_string(n * (n - 1) / 2) + ", the distinct edges on n=" +
                        std::to_string(n) + " vertices");

  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < count; ++i) {
    next_content_line("an insert line");
    std::istringstream edge_line(line);
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    DECYCLE_CHECK_MSG(static_cast<bool>(edge_line >> a >> b),
                      "stream parse: malformed insert " + std::to_string(i) + ": '" + line + "'");
    DECYCLE_CHECK_MSG(a < out.n && b < out.n,
                      "stream parse: insert " + std::to_string(i) + " endpoint out of range (n=" +
                          std::to_string(out.n) + "): '" + line + "'");
    DECYCLE_CHECK_MSG(a != b, "stream parse: insert " + std::to_string(i) + " is a self-loop");
    const Insert e{static_cast<graph::Vertex>(a), static_cast<graph::Vertex>(b)};
    DECYCLE_CHECK_MSG(seen.insert(insert_key(e)).second,
                      "stream parse: insert " + std::to_string(i) +
                          " duplicates an earlier insert (streams are duplicate-free)");
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
