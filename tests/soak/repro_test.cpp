#include "soak/repro.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/generators.hpp"
#include "util/check.hpp"

namespace decycle::soak {
namespace {

/// Parses \p text and returns the CheckError message (empty = no throw).
std::string read_error(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)read_repro(in);
  } catch (const util::CheckError& e) {
    return e.what();
  }
  return {};
}

ReproCase sample_case() {
  ReproCase repro;
  repro.scenario.k = 6;
  repro.scenario.epsilon = 0.125;
  repro.scenario.repetitions = 2;
  repro.scenario.budget = core::threshold::BudgetSchedule::parse("4,8");
  repro.scenario.track = 3;
  repro.scenario.adversary = lab::parse_adversary("oneway:0.25");
  repro.scenario.seed = 31337;
  repro.detector = "tester";
  repro.kind = MismatchKind::kMissedCycle;
  const graph::Graph g = graph::cycle(6);
  repro.stream.n = g.num_vertices();
  repro.stream.seed = 31337;
  repro.stream.inserts.assign(g.edges().begin(), g.edges().end());
  return repro;
}

TEST(Repro, WriteReadWriteRoundTripsByteIdentically) {
  const ReproCase repro = sample_case();
  std::ostringstream first;
  write_repro(first, repro);
  std::istringstream in(first.str());
  const ReproCase loaded = read_repro(in);
  EXPECT_EQ(loaded.detector, repro.detector);
  EXPECT_EQ(loaded.kind, repro.kind);
  EXPECT_EQ(loaded.scenario.key(), repro.scenario.key());
  EXPECT_EQ(loaded.contract, repro.contract);
  EXPECT_EQ(loaded.stream.n, repro.stream.n);
  EXPECT_EQ(loaded.stream.inserts, repro.stream.inserts);
  std::ostringstream second;
  write_repro(second, loaded);
  EXPECT_EQ(second.str(), first.str());

  // A detector-less case leaves the key out and still round-trips.
  ReproCase closure = repro;
  closure.contract = Contract::kPrefix;
  closure.detector.clear();
  closure.kind = MismatchKind::kClosure;
  std::ostringstream third;
  write_repro(third, closure);
  EXPECT_EQ(third.str().find("detector="), std::string::npos) << third.str();
  std::istringstream back(third.str());
  std::ostringstream fourth;
  write_repro(fourth, read_repro(back));
  EXPECT_EQ(fourth.str(), third.str());
}

TEST(Repro, ScenarioLineToleratesLeadingComments) {
  std::istringstream in(
      "# a comment\n\n# another\n"
      "scenario contract=oracle detector=tester kind=unsound k=5 seed=1\n"
      "stream n=3 directed=0 seed=1\n3\n0 1\n1 2\n0 2\n");
  const ReproCase repro = read_repro(in);
  EXPECT_EQ(repro.contract, Contract::kOracle);
  EXPECT_EQ(repro.detector, "tester");
  EXPECT_EQ(repro.kind, MismatchKind::kUnsound);
  EXPECT_EQ(repro.scenario.k, 5u);
  EXPECT_EQ(repro.stream.inserts.size(), 3u);
}

TEST(Repro, UnknownKeyNamesTheAcceptedOnes) {
  const std::string err =
      read_error("scenario contract=oracle detector=tester k=5 flavor=spicy\n");
  EXPECT_NE(err.find("flavor: unknown repro scenario key"), std::string::npos) << err;
  for (const char* accepted :
       {"contract", "detector", "kind", "eps", "budget", "adversary", "seed"}) {
    EXPECT_NE(err.find(accepted), std::string::npos) << err;
  }
}

TEST(Repro, DuplicateAndMalformedKeysAreLoud) {
  const std::string line = "scenario contract=oracle detector=tester ";
  EXPECT_NE(read_error(line + "k=5 k=6\n").find("given twice"), std::string::npos);
  EXPECT_NE(read_error(line + "k five\n").find("key=value"), std::string::npos);
  EXPECT_NE(read_error(line + "k=abc\n").find("expected unsigned integer"), std::string::npos);
  // A value that does not fit its field is rejected, not narrowed.
  const std::string wide = read_error(line + "k=4294967300\n");
  EXPECT_NE(wide.find("k: 4294967300 out of range"), std::string::npos) << wide;
  EXPECT_NE(read_error(line + "k=5 seed=18446744073709551616\n").find("seed: "),
            std::string::npos);
  EXPECT_NE(read_error(line + "k=5 kind=flaky\n").find("unknown mismatch kind"),
            std::string::npos);
  const std::string contract = read_error("scenario contract=bogus k=5\n");
  EXPECT_NE(contract.find("unknown contract 'bogus' (known: oracle, prefix, serve)"),
            std::string::npos)
      << contract;
  // Unknown adversary / budget tokens go through the shared loud parsers.
  EXPECT_NE(read_error(line + "k=5 adversary=gamma:0.1\n").find("unknown adversary"),
            std::string::npos);
}

TEST(Repro, MissingRequiredKeysAreLoud) {
  EXPECT_NE(read_error("scenario contract=oracle kind=unsound k=5\n")
                .find("missing the 'detector' key"),
            std::string::npos);
  EXPECT_NE(read_error("scenario contract=oracle detector=tester\n").find("missing the 'k' key"),
            std::string::npos);
  EXPECT_NE(read_error("scenario detector=tester k=5\n").find("missing the 'contract' key"),
            std::string::npos);
  EXPECT_NE(read_error("# only comments\n").find("missing 'scenario' line"),
            std::string::npos);
  EXPECT_NE(read_error("banana detector=tester\n").find("expected a line starting with"),
            std::string::npos);
}

TEST(Repro, MalformedEdgeListsAreLoud) {
  const std::string line = "scenario contract=oracle detector=tester k=5\n";
  EXPECT_NE(read_error(line + "stream n=3 directed=0\n2\n0 1\n").find("unexpected end of file"),
            std::string::npos);
  EXPECT_NE(read_error(line + "stream n=3 directed=0\n1\n0 7\n").find("out of range"),
            std::string::npos);
  // A v1 edge-list body and a serve request transcript both fail naming the
  // v2 layout.
  for (const std::string& old : {line + "3 1\n0 1\n",
                                 std::string("# decycle_soak serve repro v1\n"
                                             "request create tenant=r n=4\n")}) {
    const std::string err = read_error(old);
    EXPECT_NE(err.find("repro v2 is a 'scenario contract="), std::string::npos) << err;
  }
}

TEST(Repro, ReplayRejectsUnknownDetectorsNamingTheRegistry) {
  ReproCase repro = sample_case();
  repro.detector = "quantum";
  try {
    (void)replay_repro(repro);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'quantum'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tester"), std::string::npos) << msg;
    EXPECT_NE(msg.find("color_coding"), std::string::npos) << msg;
  }
}

TEST(Repro, ReplayOfAConsistentCaseDoesNotReproduce) {
  // A healthy detector on a healthy instance: replay reports the observed
  // kind (none) and reproduced=false against the recorded mismatch.
  const ReproCase repro = sample_case();  // tester, recorded kMissedCycle
  const ReplayResult result = replay_repro(repro);
  EXPECT_EQ(result.observed, MismatchKind::kNone);
  EXPECT_FALSE(result.reproduced);
}

TEST(Repro, KindNonePrependedToAStreamFileIsAPrefixCheck) {
  incremental::StreamSpec spec;
  spec.n = 24;
  spec.inserts = 40;
  spec.seed = 3;
  std::ostringstream file;
  file << "scenario contract=prefix kind=none k=6\n";
  incremental::write_stream(file, incremental::generate_stream(spec));
  std::istringstream in(file.str());
  const ReproCase repro = read_repro(in);
  EXPECT_EQ(repro.stream.inserts.size(), 40u);
  const ReplayResult clean = replay_repro(repro);
  EXPECT_TRUE(clean.reproduced) << clean.detail;
  EXPECT_EQ(clean.observed, MismatchKind::kNone);
}

}  // namespace
}  // namespace decycle::soak
