/// \file soak_bridge_test.cpp
/// \brief The soak serve contract: client-path replies (first ask and
/// verdict-cache hit) must match direct engine runs byte-for-byte on drawn
/// soak instances, and serve cases must round-trip and replay.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/generators.hpp"
#include "soak/campaign.hpp"
#include "soak/serve_contract.hpp"
#include "util/check.hpp"

namespace decycle::soak {
namespace {

CampaignOptions small_campaign() {
  CampaignOptions options;
  options.contract = Contract::kServe;
  options.seed = 7;
  options.instances = 5;
  options.space.max_k = 7;
  options.space.max_n = 24;
  return options;
}

ReproCase serve_case(const graph::Graph& g, unsigned k) {
  ReproCase c;
  c.contract = Contract::kServe;
  c.kind = MismatchKind::kDiverged;
  c.scenario.k = k;
  c.scenario.seed = 3;
  c.stream.n = g.num_vertices();
  c.stream.inserts.assign(g.edges().begin(), g.edges().end());
  return c;
}

TEST(ServeSoak, SmallCampaignRunsClean) {
  const CampaignSummary summary = run_campaign(small_campaign());
  EXPECT_FALSE(summary.failed());
  EXPECT_EQ(summary.instances, 5u);
  EXPECT_GT(summary.detector_runs, 0u);
  EXPECT_NE(summary.jsonl.find("\"type\":\"meta\""), std::string::npos);
  EXPECT_NE(summary.jsonl.find("\"mode\":\"serve\""), std::string::npos);
  // Every query is asked twice; the second ask is a verdict-cache hit that
  // must still equal the direct run.
  EXPECT_NE(summary.jsonl.find("\"verdict_hits\":" + std::to_string(summary.detector_runs)),
            std::string::npos)
      << summary.jsonl;
}

TEST(ServeSoak, BudgetRequired) {
  CampaignOptions options;  // neither instances nor seconds
  options.contract = Contract::kServe;
  EXPECT_THROW((void)run_campaign(options), util::CheckError);
}

TEST(ServeSoak, ReproRoundTripsAndReplaysClean) {
  const ReproCase repro = serve_case(graph::cycle(6), 6);
  std::ostringstream first;
  write_repro(first, repro);
  std::istringstream back(first.str());
  const ReproCase parsed = read_repro(back);
  EXPECT_EQ(parsed.contract, Contract::kServe);
  EXPECT_EQ(parsed.stream.inserts, repro.stream.inserts);
  std::ostringstream second;
  write_repro(second, parsed);
  EXPECT_EQ(first.str(), second.str());

  // The server and the direct engine agree on this healthy instance, so the
  // recorded divergence must NOT reproduce, while the same case with
  // kind=none replays clean.
  const ReplayResult result = replay_repro(parsed);
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.observed, MismatchKind::kNone);
  ReproCase clean = parsed;
  clean.kind = MismatchKind::kNone;
  EXPECT_TRUE(replay_repro(clean).reproduced);
}

TEST(ServeSoak, CheckpointProbeReplaysTheHashField) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const ServeReport report = check_serve(serve_case(b.build(), 5).stream, SoakScenario{});
  EXPECT_TRUE(report.mismatches.empty());
  EXPECT_FALSE(report.hash.empty());
  EXPECT_GT(report.queries, 0u);
  EXPECT_EQ(report.verdict_hits, report.queries);
}

TEST(ServeSoak, ReproParserIsLoud) {
  const auto expect_loud = [](const std::string& text, const char* fragment) {
    std::istringstream in(text);
    try {
      (void)read_repro(in);
      FAIL() << "expected CheckError for:\n" << text;
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
  };
  // The retired request-transcript format fails naming the v2 layout.
  expect_loud(
      "# decycle_soak serve repro v1\n"
      "request create tenant=r n=4\n"
      "served x\ndirect y\n",
      "repro v2");
  // Directed streams were removed: a directed=1 insert list names that.
  expect_loud(
      "scenario contract=serve kind=none k=4\n"
      "stream n=4 directed=1 seed=1\n1\n0 1\n",
      "directed streams were removed");
}

TEST(ServeSoak, RerunIsReproducible) {
  const CampaignOptions options = small_campaign();
  EXPECT_EQ(run_campaign(options).jsonl, run_campaign(options).jsonl);
}

}  // namespace
}  // namespace decycle::soak
