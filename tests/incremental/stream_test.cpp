/// incremental/stream.hpp — replay files and the seeded stream generator.
///
/// Round-trip byte identity (write → read → write), loud parser negatives
/// naming the offending key/line/insert and accepted alternatives, and the
/// generator's contracts: determinism in the spec, duplicate-freeness,
/// in-range endpoints and no self-loops.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "incremental/stream.hpp"
#include "util/kv.hpp"

namespace decycle::incremental {
namespace {

std::string to_text(const InsertStream& stream) {
  std::ostringstream out;
  write_stream(out, stream);
  return out.str();
}

InsertStream from_text(const std::string& text) {
  std::istringstream in(text);
  return read_stream(in);
}

/// The thrown message must mention every fragment — loud-parser contract.
void expect_parse_error(const std::string& text, std::initializer_list<const char*> fragments) {
  try {
    (void)from_text(text);
    FAIL() << "expected ParseError for:\n" << text;
  } catch (const util::ParseError& e) {
    const std::string what = e.what();
    for (const char* fragment : fragments) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "message lacks '" << fragment << "': " << what;
    }
  }
}

TEST(Stream, WriteReadRoundTripsByteIdentically) {
  StreamSpec spec;
  spec.n = 30;
  spec.inserts = 60;
  spec.seed = 13;
  const InsertStream stream = generate_stream(spec);
  const std::string text = to_text(stream);
  const InsertStream parsed = from_text(text);
  EXPECT_EQ(parsed.n, stream.n);
  EXPECT_EQ(parsed.seed, stream.seed);
  EXPECT_EQ(parsed.inserts, stream.inserts);
  EXPECT_EQ(to_text(parsed), text);

  // Inserts are not canonicalized: a file may list either orientation.
  const std::string mixed =
      "# decycle_incr stream v1\nstream n=5 directed=0 seed=2\n3\n4 1\n0 3\n2 0\n";
  EXPECT_EQ(to_text(from_text(mixed)), mixed);
}

TEST(Stream, CommentsAndBlankLinesAreIgnored) {
  const InsertStream parsed = from_text(
      "# a comment\n"
      "\n"
      "stream n=4 directed=0 seed=9\n"
      "# another\n"
      "2\n"
      "0 1\n"
      "\n"
      "2 3\n");
  EXPECT_EQ(parsed.n, 4u);
  EXPECT_EQ(parsed.seed, 9u);
  ASSERT_EQ(parsed.inserts.size(), 2u);
  EXPECT_EQ(parsed.inserts[1], (Insert{2, 3}));
}

TEST(Stream, ParserNamesTheOffense) {
  // Missing header keys.
  expect_parse_error("stream directed=0\n0\n", {"n: stream header is missing n="});
  expect_parse_error("stream n=4\n0\n", {"directed: stream header is missing directed="});
  // Wrong leading tag and unknown key name the accepted alternatives.
  expect_parse_error("river n=4 directed=0\n0\n", {"must start with 'stream'", "river"});
  expect_parse_error("stream n=4 directed=0 sed=1\n0\n",
                     {"sed: unknown stream header key", "n, directed, seed"});
  expect_parse_error("stream n=4 directed=2\n0\n", {"directed: must be 0", "'2'"});
  expect_parse_error("stream n=4 directed=1\n0\n",
                     {"directed streams were removed", "only directed=0 is read"});
  expect_parse_error("stream n=x directed=0\n0\n", {"n: expected unsigned integer, got 'x'"});
  expect_parse_error("stream n=4 n=5 directed=0\n0\n", {"n: stream header key given twice"});
  expect_parse_error("stream n=4 directed=0 seed=1 seed=2\n0\n",
                     {"seed: stream header key given twice"});
  // A value that does not fit its field is rejected, not narrowed.
  expect_parse_error("stream n=4294967300 directed=0\n0\n",
                     {"n: 4294967300 out of range", "4294967295"});
  expect_parse_error("stream n=4 directed=0 seed=18446744073709551616\n0\n",
                     {"seed: 18446744073709551616 out of range"});
  // The insert count is bounded by the n(n-1)/2 distinct edges, and no
  // buffer is sized from it before the inserts are read.
  expect_parse_error("stream n=4 directed=0\n7\n", {"insert count: 7 exceeds n(n-1)/2 = 6"});
  expect_parse_error("stream n=4 directed=0\n1000000000000000\n0 1\n",
                     {"insert count: 1000000000000000 exceeds"});
  expect_parse_error("stream n=100000000 directed=0\n1000000000000000\n0 1\n",
                     {"unexpected end of file", "insert line"});
  expect_parse_error("stream n=4 directed=0\n-1\n",
                     {"insert count: expected unsigned integer", "'-1'"});
  // Truncation, malformed counts and inserts name what was expected.
  expect_parse_error("stream n=4 directed=0\n", {"unexpected end of file", "insert count"});
  expect_parse_error("stream n=4 directed=0\nmany\n",
                     {"insert count: expected unsigned integer", "many"});
  expect_parse_error("stream n=4 directed=0\n2\n0 1\n", {"unexpected end of file", "insert line"});
  expect_parse_error("stream n=4 directed=0\n1\n0 q\n", {"insert 0: expected unsigned integer"});
  // A count line is exactly one integer and an insert line exactly two:
  // trailing tokens and a leading '+' are errors, not ignored.
  expect_parse_error("stream n=4 directed=0\n2 extra\n0 1 3\n1 2 junk\n",
                     {"insert count: expected one unsigned integer", "'2 extra'"});
  expect_parse_error("stream n=4 directed=0\n2\n0 1 3\n1 2\n",
                     {"insert 0: expected two vertex ids", "'0 1 3'"});
  expect_parse_error("stream n=4 directed=0\n2\n0 1\n1 2 junk\n",
                     {"insert 1: expected two vertex ids", "'1 2 junk'"});
  expect_parse_error("stream n=4 directed=0\n1\n+0 1\n",
                     {"insert 0: expected unsigned integer, got '+0'"});
  expect_parse_error("stream n=4 directed=0\n1\n0\n", {"insert 0: expected two vertex ids"});
  // Range, self-loop, and duplicate violations name the insert index.
  expect_parse_error("stream n=4 directed=0\n1\n0 4\n", {"insert 0: 4 out of range 0..3"});
  expect_parse_error("stream n=4 directed=0\n1\n2 2\n", {"insert 0: self-loop"});
  // (1,0) duplicates (0,1): inserts are compared as unordered pairs.
  expect_parse_error("stream n=4 directed=0\n2\n0 1\n1 0\n",
                     {"insert 1: duplicates", "duplicate-free"});
}

TEST(Stream, GeneratorIsDeterministicInTheSpec) {
  StreamSpec spec;
  spec.n = 50;
  spec.inserts = 200;
  spec.seed = 77;
  const InsertStream a = generate_stream(spec);
  const InsertStream b = generate_stream(spec);
  EXPECT_EQ(a.inserts, b.inserts);
  spec.seed = 78;
  EXPECT_NE(generate_stream(spec).inserts, a.inserts);
}

TEST(Stream, GeneratorDrawsDistinctInRangeInserts) {
  StreamSpec spec;
  spec.n = 24;
  spec.inserts = 150;
  spec.seed = 4;
  const InsertStream stream = generate_stream(spec);
  EXPECT_EQ(stream.inserts.size(), 150u);
  std::set<std::pair<graph::Vertex, graph::Vertex>> seen;
  for (auto [u, v] : stream.inserts) {
    EXPECT_LT(u, spec.n);
    EXPECT_LT(v, spec.n);
    EXPECT_NE(u, v);
    if (u > v) std::swap(u, v);
    EXPECT_TRUE(seen.emplace(u, v).second) << "duplicate " << u << "," << v;
  }
}

TEST(Stream, InsertCountIsClampedToTheUniverse) {
  StreamSpec spec;
  spec.n = 5;
  spec.inserts = 1'000;  // only C(5,2) = 10 distinct edges exist
  EXPECT_EQ(generate_stream(spec).inserts.size(), 10u);
}

TEST(Stream, GeneratorRejectsDegenerateSpecs) {
  StreamSpec spec;
  spec.n = 1;
  EXPECT_THROW((void)generate_stream(spec), util::CheckError);
}

}  // namespace
}  // namespace decycle::incremental
