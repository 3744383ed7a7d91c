#include "util/kv.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/threshold/budget.hpp"
#include "incremental/stream.hpp"
#include "lab/scenario.hpp"
#include "serve/protocol.hpp"
#include "soak/repro.hpp"
#include "support/hostile_values.hpp"
#include "util/cli.hpp"

namespace decycle {
namespace {

using hostile::FieldKind;
using hostile::names_key_without_location;

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const util::ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(ParseValue, ReadsTheWholeTextWithinRange) {
  EXPECT_EQ(util::parse_value<unsigned>("k", "5"), 5u);
  EXPECT_EQ(util::parse_value<long>("d", "-3"), -3);
  EXPECT_DOUBLE_EQ(util::parse_value<double>("eps", "0.25"), 0.25);
  EXPECT_EQ(util::parse_value<std::uint64_t>("seed", "18446744073709551615"),
            18446744073709551615ULL);
  EXPECT_EQ(util::parse_value<unsigned>("k", "64", 3, 64), 64u);
}

TEST(ParseValue, RefusalsNameTheKeyAndTheRule) {
  for (const char* text : {"", "+5", " 5", "5 ", "0x5", "5x"}) {
    EXPECT_NE(error_of([&] { (void)util::parse_value<unsigned>("k", text); }).rfind("k: ", 0),
              std::string::npos)
        << text;
  }
  EXPECT_EQ(error_of([] { (void)util::parse_value<unsigned>("k", "4294967299", 3, 64); }),
            "k: 4294967299 out of range 3..64");
  EXPECT_EQ(error_of([] { (void)util::parse_value<unsigned>("k", "2", 3, 64); }),
            "k: 2 out of range 3..64");
  EXPECT_EQ(error_of([] { (void)util::parse_value<unsigned>("k", "abc"); }),
            "k: expected unsigned integer, got 'abc'");
  EXPECT_EQ(error_of([] { (void)util::parse_value<double>("eps", "nan"); }),
            "eps: nan is not finite");
  EXPECT_EQ(error_of([] { (void)util::parse_value<double>("eps", "1e999"); }),
            "eps: 1e999 does not fit a double");
  EXPECT_EQ(error_of([] { (void)util::parse_value<double>("eps", "1.5", 0.0, 1.0); }),
            "eps: 1.5 out of range 0..1");
  EXPECT_EQ(error_of([] { (void)util::parse_value<unsigned>("k", ""); }), "k: empty value");
}

TEST(ParseList, CommaListsAndIntegerRanges) {
  EXPECT_EQ(util::parse_list<unsigned>("k", "3..7:2,9"), (std::vector<unsigned>{3, 5, 7, 9}));
  EXPECT_EQ(util::parse_list<unsigned>("k", "1..3"), (std::vector<unsigned>{1, 2, 3}));
  // A step past the type's top ends the range instead of wrapping.
  EXPECT_EQ(util::parse_list<unsigned>("k", "4294967294..4294967295:7"),
            (std::vector<unsigned>{4294967294u}));
  EXPECT_EQ(util::parse_list<std::string>("family", "cycle,path"),
            (std::vector<std::string>{"cycle", "path"}));
  EXPECT_EQ(util::parse_list<double>("eps", "0.5,0.25"), (std::vector<double>{0.5, 0.25}));
  EXPECT_NE(error_of([] { (void)util::parse_list<unsigned>("k", "3,,4"); }).find("empty item"),
            std::string::npos);
  EXPECT_NE(error_of([] { (void)util::parse_list<unsigned>("k", "9..3"); })
                .find("k: range 9..3 is empty (lo > hi)"),
            std::string::npos);
  EXPECT_EQ(error_of([] { (void)util::parse_list<unsigned>("k", "3..9:0"); }),
            "k: range step must be positive");
  EXPECT_EQ(error_of([] { (void)util::parse_list<unsigned>("k", "3..70", 3, 64); }),
            "k: 70 out of range 3..64");
  // Doubles take no ranges.
  EXPECT_NE(error_of([] { (void)util::parse_list<double>("eps", "0.1..0.5"); }),
            "");
}

TEST(ParseList, RefusesListsLongerThanTheCapBeforeExpandingThem) {
  EXPECT_EQ(error_of([] { (void)util::parse_list<std::uint64_t>("n", "1..100000"); }),
            "n: list expands to at least 100000 items; the limit is 4096");
  EXPECT_EQ(error_of([] { (void)util::parse_list<std::int64_t>("d", "-5000..5000:2"); }),
            "d: list expands to at least 5001 items; the limit is 4096");
  // Ranges, plain items and string items all count toward one total.
  EXPECT_EQ(util::parse_list<unsigned>("k", "1..4095,9").size(), 4096u);
  EXPECT_EQ(error_of([] { (void)util::parse_list<unsigned>("k", "1..4095,9,10"); }),
            "k: list expands to at least 4097 items; the limit is 4096");
  EXPECT_EQ(error_of([] { (void)util::parse_list<unsigned>("k", "7,1..4096"); }),
            "k: list expands to at least 4097 items; the limit is 4096");
  std::string names = "a";
  for (int i = 0; i < 4096; ++i) names += ",a";
  EXPECT_EQ(error_of([&] { (void)util::parse_list<std::string>("family", names); }),
            "family: list expands to at least 4097 items; the limit is 4096");
}

TEST(KvReader, RejectsMalformedRepeatedAndUnknownKeys) {
  const std::vector<std::string_view> bare = {"k"};
  EXPECT_EQ(error_of([&] { (void)util::KvReader::from_tokens("test", bare); }),
            "k: not of the form key=value");
  const std::vector<std::string_view> twice = {"k=1", "k=2"};
  EXPECT_NE(error_of([&] { (void)util::KvReader::from_tokens("test", twice); })
                .rfind("k: test key given twice", 0),
            std::string::npos);
  EXPECT_NE(error_of([] { (void)util::KvReader("test", {{"", "5"}}); }).find("empty key"),
            std::string::npos);

  const std::vector<std::string_view> tokens = {"k=5", "eps=0.5", "typo=1"};
  util::KvReader r = util::KvReader::from_tokens("test", tokens);
  EXPECT_EQ(r.take<unsigned>("k", 3), 5u);
  EXPECT_EQ(r.take<double>("eps", 0.1), 0.5);
  EXPECT_EQ(r.take<std::uint64_t>("seed", 7), 7u);  // absent: fallback
  EXPECT_EQ(error_of([&] { r.finish(); }), "typo: unknown test key (accepted: k, eps, seed)");
  const auto rest = r.take_rest();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].first, "typo");
  EXPECT_NO_THROW(r.finish());
}

TEST(SplitWords, DropsEveryKindOfBlank) {
  EXPECT_EQ(util::split_words("  a\tbb  c\r"), (std::vector<std::string_view>{"a", "bb", "c"}));
  EXPECT_TRUE(util::split_words(" \t ").empty());
}

// --- The hostile-input table, fed to every reader ---------------------------

struct Field {
  std::string key;
  FieldKind kind;
  /// Text before the hostile value (e.g. "uniform:"); for parse_request, the
  /// whole request line with a '%' where the value goes.
  std::string prefix = "";
  bool empty_applies = true;  ///< false for whole lines, where empty is a blank line
};

struct Reader {
  std::string name;
  std::vector<Field> fields;
  /// Feeds \p value under \p field in an otherwise well-formed input.
  std::function<void(const Field& field, const std::string& value)> feed;
  /// Feeds \p field twice with a valid value; empty when not keyed.
  std::function<void(const Field& field)> feed_twice;
};

void run_args(const std::vector<std::string>& flags) {
  std::vector<const char*> argv{"prog"};
  for (const std::string& flag : flags) argv.push_back(flag.c_str());
  const util::Args args(static_cast<int>(argv.size()), argv.data());
  (void)args.get<unsigned>("k", 5);
  (void)args.get<std::uint64_t>("seed", 1);
  (void)args.get<double>("eps", 0.5, 0.0, 1.0);
  args.reject_unknown();
}

void run_repro(const std::vector<std::string>& tokens) {
  std::string text = "scenario contract=oracle kind=none";
  for (const std::string& token : tokens) text += " " + token;
  std::istringstream in(text + "\nstream n=3 directed=0 seed=1\n0\n");
  (void)soak::read_repro(in);
}

void run_stream(const std::string& text) {
  std::istringstream in(text);
  (void)incremental::read_stream(in);
}

std::vector<Reader> readers() {
  const auto token = [](const Field& f, const std::string& value) {
    return f.key + "=" + f.prefix + value;
  };
  std::vector<Reader> out;
  out.push_back({"util::Args",
                 {{"k", FieldKind::kU32}, {"seed", FieldKind::kU64}, {"eps", FieldKind::kUnit}},
                 [](const Field& f, const std::string& v) { run_args({"--" + f.key + "=" + v}); },
                 [](const Field& f) { run_args({"--" + f.key + "=1", "--" + f.key + "=1"}); }});
  out.push_back({"ScenarioSpec::parse_tokens",
                 {{"k", FieldKind::kU32},
                  {"n", FieldKind::kU32},
                  {"eps", FieldKind::kUnit},
                  {"adversary", FieldKind::kUnit, "uniform:"},
                  {"trials", FieldKind::kU64},
                  {"seed", FieldKind::kU64},
                  {"reps", FieldKind::kU64},
                  {"track", FieldKind::kU64},
                  {"budget", FieldKind::kU32}},
                 [token](const Field& f, const std::string& v) {
                   (void)lab::ScenarioSpec::parse_tokens({token(f, v)});
                 },
                 [token](const Field& f) {
                   (void)lab::ScenarioSpec::parse_tokens({token(f, "1"), token(f, "1")});
                 }});
  out.push_back({"soak::read_repro",
                 {{"k", FieldKind::kU32},
                  {"eps", FieldKind::kUnit},
                  {"reps", FieldKind::kU64},
                  {"track", FieldKind::kU64},
                  {"seed", FieldKind::kU64},
                  {"adversary", FieldKind::kUnit, "uniform:"},
                  {"budget", FieldKind::kU32}},
                 [token](const Field& f, const std::string& v) {
                   std::vector<std::string> tokens{token(f, v)};
                   if (f.key != "k") tokens.push_back("k=5");
                   run_repro(tokens);
                 },
                 [token](const Field& f) { run_repro({"k=5", token(f, "1"), token(f, "1")}); }});
  out.push_back({"incremental::read_stream",
                 {{"n", FieldKind::kU32},
                  {"seed", FieldKind::kU64},
                  {"insert count", FieldKind::kU32, "", /*empty_applies=*/false},
                  {"insert 0", FieldKind::kU32}},
                 [](const Field& f, const std::string& v) {
                   if (f.key == "n") run_stream("stream n=" + v + " directed=0\n0\n");
                   if (f.key == "seed") run_stream("stream n=4 directed=0 seed=" + v + "\n0\n");
                   if (f.key == "insert count") run_stream("stream n=4 directed=0\n" + v + "\n");
                   if (f.key == "insert 0") run_stream("stream n=4 directed=0\n1\n0 " + v + "\n");
                 },
                 [](const Field& f) {
                   if (f.key == "n" || f.key == "seed") {
                     run_stream("stream n=4 directed=0 " + f.key + "=1 " + f.key + "=1\n0\n");
                   }
                 }});
  // Each request template has one '%' where the value goes.
  const auto request = [](const Field& f, const std::string& v) {
    std::string line = f.prefix;
    line.replace(line.find('%'), 1, v);
    (void)serve::parse_request(line);
  };
  out.push_back({"serve::parse_request",
                 {{"n", FieldKind::kU32, "create tenant=a n=%"},
                  {"seed", FieldKind::kU64, "create tenant=a n=4 family=cycle k=4 seed=%"},
                  {"k", FieldKind::kU32, "query tenant=a algo=tester k=%"},
                  {"eps", FieldKind::kUnit, "query tenant=a algo=tester k=5 eps=%"},
                  {"reps", FieldKind::kU64, "query tenant=a algo=tester k=5 reps=%"},
                  {"edges", FieldKind::kU32, "insert tenant=a edges=0-%"}},
                 request,
                 [request](const Field& f) {
                   Field twice = f;
                   twice.prefix += " " + f.key + "=1";
                   request(twice, "1");
                 }});
  out.push_back({"BudgetSchedule::parse",
                 {{"budget", FieldKind::kU32}},
                 [](const Field&, const std::string& v) {
                   (void)core::threshold::BudgetSchedule::parse(v);
                 },
                 {}});
  return out;
}

/// The refusal must be typed (ParseError, or the daemon's bad_request) and
/// name the key without a source location.
void expect_refusal(const std::string& key, const std::function<void()>& fn) {
  try {
    fn();
    ADD_FAILURE() << "accepted";
  } catch (const util::ParseError& e) {
    EXPECT_TRUE(names_key_without_location(e.what(), key)) << e.what();
  } catch (const serve::ProtocolError& e) {
    EXPECT_EQ(e.code(), serve::ErrorCode::kBadRequest) << e.what();
    EXPECT_TRUE(names_key_without_location(e.what(), key)) << e.what();
  }
}

TEST(HostileInputs, EveryReaderRefusesEveryValueNamingTheKey) {
  for (const Reader& reader : readers()) {
    for (const Field& field : reader.fields) {
      for (const hostile::HostileValue& value : hostile::kHostileValues) {
        if (!hostile::applies(value, field.kind)) continue;
        if (value.text.empty() && !field.empty_applies) continue;
        SCOPED_TRACE(reader.name + " " + field.key + " <- " + std::string(value.name));
        expect_refusal(field.key, [&] { reader.feed(field, std::string(value.text)); });
      }
      if (reader.feed_twice && field.key.find(' ') == std::string::npos) {
        SCOPED_TRACE(reader.name + " " + field.key + " given twice");
        expect_refusal(field.key, [&] { reader.feed_twice(field); });
      }
    }
  }
}

TEST(HostileInputs, RepeatedStringKeysAreRefusedToo) {
  // Last-one-wins on a string key would run a different tenant or matrix
  // than half the input reads.
  expect_refusal("tenant",
                 [] { (void)serve::parse_request("query tenant=a tenant=b algo=tester k=5"); });
  expect_refusal("family",
                 [] { (void)lab::ScenarioSpec::parse_tokens({"family=cycle", "family=path"}); });
  expect_refusal("detector", [] { run_repro({"k=5", "detector=tester", "detector=c4"}); });
}

}  // namespace
}  // namespace decycle
