/// \file stream.hpp
/// \brief Insert-stream replay files and the seeded stream generator.
///
/// A stream file is everything needed to replay one insertion sequence
/// deterministically, in the soak repro tradition (plain text, comment
/// lines ignored, loud parser naming accepted alternatives):
///
///   # decycle_incr stream v1          (comment lines, ignored)
///   stream n=100 directed=0 seed=7    (one header line; directed=0 is
///                                      fixed: streams are undirected)
///   12                                (insert count...)
///   0 1                               (...then one insert per line, in
///   4 7                                stream order — NOT canonicalized:
///   ...                                either orientation is accepted)
///
/// The parser enforces the detector's duplicate-free contract offline
/// (inserts are compared as unordered pairs), so the hot path never pays a
/// membership probe. Streams are generated from a seed (generate_stream),
/// so CI smokes and benches never check binary corpora in — a failing
/// prefix re-emerges from (spec, seed) or travels as a small text repro
/// (write_stream of the prefix).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace decycle::incremental {

/// One insertion: the undirected edge {first, second}. Unlike graph::Edge
/// this is deliberately NOT canonicalized — insertion order is payload, and
/// a file may list either orientation.
using Insert = std::pair<graph::Vertex, graph::Vertex>;

struct InsertStream {
  graph::Vertex n = 0;
  std::uint64_t seed = 0;  ///< provenance only; replay never re-draws
  std::vector<Insert> inserts;
};

/// Writes the stream format above. Deterministic bytes (write → read →
/// write round-trips identically).
void write_stream(std::ostream& out, const InsertStream& stream);

/// Parses the stream format; the header is read by util/kv.hpp's rules, the
/// count line is exactly one unsigned integer and an insert line exactly two
/// vertex ids below n. Throws util::ParseError on malformed headers,
/// unknown/duplicate header keys, values that do not fit their field,
/// `directed=1` (directed streams were removed), an insert count above
/// n(n-1)/2, a line with extra or missing tokens, out-of-range endpoints,
/// self-loops, or duplicate inserts — each message naming the offending
/// key, count or insert index and the accepted alternatives.
[[nodiscard]] InsertStream read_stream(std::istream& in);

/// What generate_stream draws.
struct StreamSpec {
  graph::Vertex n = 64;
  std::size_t inserts = 128;  ///< clamped to the number of distinct edges
  std::uint64_t seed = 1;
};

/// Draws a duplicate-free insertion stream: distinct undirected edges in
/// uniformly shuffled order. Pure function of \p spec.
[[nodiscard]] InsertStream generate_stream(const StreamSpec& spec);

}  // namespace decycle::incremental
