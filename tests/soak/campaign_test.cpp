#include "soak/campaign.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>

#include "fault_injection.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace decycle::soak {
namespace {

std::size_t count_lines(const std::string& text, const std::string& type) {
  const std::string needle = "\"type\":\"" + type + "\"";
  std::size_t count = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(needle) != std::string::npos) ++count;
  }
  return count;
}

std::string repro_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::create_directories(dir);
  return dir;
}

/// The written repro reads back into the same case, re-serializes to the
/// same bytes, and replays to the recorded mismatch.
void expect_replayable_repro(const MismatchRecord& m, const core::DetectorRegistry& registry) {
  ASSERT_FALSE(m.repro_path.empty());
  std::ifstream in(m.repro_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << m.repro_path;
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::istringstream file(bytes);
  const ReproCase loaded = read_repro(file);
  std::ostringstream again;
  write_repro(again, loaded);
  EXPECT_EQ(again.str(), bytes) << m.repro_path;
  EXPECT_TRUE(replay_repro(loaded, registry).reproduced) << m.repro_path;
}

TEST(Campaign, RequiresABudget) {
  EXPECT_THROW((void)run_campaign(CampaignOptions{}), util::CheckError);
}

TEST(Campaign, LogIsByteIdenticalAcrossThreadCounts) {
  util::ThreadPool pool3(3);
  util::ThreadPool pool8(8);
  for (const Contract contract : {Contract::kOracle, Contract::kPrefix, Contract::kServe}) {
    CampaignOptions opts;
    opts.seed = 9;
    opts.contract = contract;
    opts.instances = contract == Contract::kOracle ? 40 : 16;
    const CampaignSummary serial = run_campaign(opts);
    EXPECT_FALSE(serial.failed()) << contract_name(contract);
    opts.pool = &pool3;
    EXPECT_EQ(serial.jsonl, run_campaign(opts).jsonl) << contract_name(contract);
    opts.pool = &pool8;
    EXPECT_EQ(serial.jsonl, run_campaign(opts).jsonl) << contract_name(contract);
  }
}

TEST(Campaign, BuiltinRegistryRunsCleanAndLogsEveryInstance) {
  CampaignOptions opts;
  opts.seed = 4;
  opts.instances = 60;
  const CampaignSummary summary = run_campaign(opts);
  EXPECT_EQ(summary.instances, 60u);
  EXPECT_TRUE(summary.mismatches.empty());
  EXPECT_FALSE(summary.failed());
  EXPECT_GT(summary.detector_runs, summary.instances);  // several detectors per instance
  EXPECT_EQ(count_lines(summary.jsonl, "meta"), 1u);
  EXPECT_EQ(count_lines(summary.jsonl, "instance"), 60u);
  EXPECT_EQ(count_lines(summary.jsonl, "mismatch"), 0u);
  EXPECT_EQ(count_lines(summary.jsonl, "summary"), 1u);
}

TEST(Campaign, SecondsBudgetStopsAfterABatch) {
  CampaignOptions opts;
  opts.seed = 2;
  opts.seconds = 0.05;
  const CampaignSummary summary = run_campaign(opts);
  EXPECT_GE(summary.instances, 16u);  // at least one batch ran
}

TEST(Campaign, PlantedFaultIsCaughtShrunkAndWrittenAsAReplayableRepro) {
  core::DetectorRegistry registry;
  registry.add(std::make_unique<soak_test::FaultyRejector>());

  CampaignOptions opts;
  opts.seed = 21;
  opts.instances = 12;
  opts.registry = &registry;
  opts.repro_dir = repro_dir("soak_campaign_repros");
  const CampaignSummary summary = run_campaign(opts);

  // Most random instances contain some cycle, so the fault fires a lot.
  ASSERT_FALSE(summary.mismatches.empty());
  EXPECT_TRUE(summary.failed());
  EXPECT_EQ(count_lines(summary.jsonl, "mismatch"), summary.mismatches.size());
  for (const MismatchRecord& m : summary.mismatches) {
    EXPECT_EQ(m.repro.kind, MismatchKind::kUnsound);
    // Shrunk: never larger than the original, and tiny in practice (the
    // fault only needs one cycle to fire).
    EXPECT_LE(m.repro.stream.n, m.original_vertices);
    EXPECT_LE(m.repro.stream.n, 12u);
    expect_replayable_repro(m, registry);
  }
}

TEST(Campaign, PlantedServeDivergenceShrinksToAReplayableRepro) {
  // The fault answers under the builtin name "threshold": the server runs
  // the builtin, the contract's direct side runs the fault, and the two
  // differ exactly on instances that contain a C_k.
  core::DetectorRegistry registry;
  registry.add(std::make_unique<soak_test::CycleMarkingDelegate>("threshold"));
  CampaignOptions opts;
  opts.seed = 3;
  opts.instances = 6;
  opts.contract = Contract::kServe;
  opts.space.max_n = 24;
  opts.registry = &registry;
  opts.repro_dir = repro_dir("soak_serve_repros");
  const CampaignSummary summary = run_campaign(opts);
  ASSERT_FALSE(summary.mismatches.empty());
  for (const MismatchRecord& m : summary.mismatches) {
    EXPECT_EQ(m.repro.contract, Contract::kServe);
    EXPECT_EQ(m.repro.detector, "threshold");
    EXPECT_EQ(m.repro.kind, MismatchKind::kDiverged);
    EXPECT_TRUE(m.shrink_stats.converged);
    EXPECT_LE(m.repro.stream.n, 2 * m.repro.scenario.k + 2) << m.repro_path;
    expect_replayable_repro(m, registry);
  }
}

TEST(Campaign, PlantedPrefixMissShrinksToAReplayableRepro) {
  // The sleepy acceptor advertises threshold knobs, so the prefix contract
  // queries it on every closure and its accept is a missed cycle.
  core::DetectorRegistry registry;
  registry.add(std::make_unique<soak_test::SleepyAcceptor>());
  CampaignOptions opts;
  opts.seed = 4;
  opts.instances = 4;
  opts.contract = Contract::kPrefix;
  opts.space.max_k = 6;
  opts.registry = &registry;
  opts.repro_dir = repro_dir("soak_prefix_repros");
  const CampaignSummary summary = run_campaign(opts);
  ASSERT_FALSE(summary.mismatches.empty());
  for (const MismatchRecord& m : summary.mismatches) {
    EXPECT_EQ(m.repro.contract, Contract::kPrefix);
    EXPECT_EQ(m.repro.detector, "sleepy_acceptor");
    EXPECT_EQ(m.repro.kind, MismatchKind::kMissedCycle);
    EXPECT_TRUE(m.shrink_stats.converged);
    EXPECT_LE(m.repro.stream.n, 2 * m.repro.scenario.k + 2) << m.repro_path;
    expect_replayable_repro(m, registry);
  }
}

TEST(Campaign, NonReplayableMismatchDegradesToAnUnshrunkRepro) {
  // A stateful detector (rejects exactly once) mismatches in the campaign
  // run but not on the shrinker's fresh replay. The campaign must keep the
  // evidence — original instance, annotated detail — not abort mid-flight.
  core::DetectorRegistry registry;
  registry.add(std::make_unique<soak_test::OneShotRejector>());
  CampaignOptions opts;
  opts.seed = 5;
  opts.instances = 8;
  opts.registry = &registry;
  const CampaignSummary summary = run_campaign(opts);
  EXPECT_EQ(summary.instances, 8u);  // the campaign completed
  ASSERT_EQ(summary.mismatches.size(), 1u);
  const MismatchRecord& m = summary.mismatches[0];
  EXPECT_EQ(m.repro.kind, MismatchKind::kUnsound);
  EXPECT_EQ(m.repro.stream.n, m.original_vertices);  // unshrunk
  EXPECT_FALSE(m.shrink_stats.converged);
  EXPECT_NE(m.detail.find("shrink skipped"), std::string::npos) << m.detail;
  EXPECT_NE(summary.jsonl.find("shrink skipped"), std::string::npos);
}

TEST(Campaign, RejectsAnInvalidSpaceUpFront) {
  CampaignOptions opts;
  opts.instances = 4;
  opts.space.max_n = 4;  // below the fixed minimum: would underflow the draw
  try {
    (void)run_campaign(opts);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("soak space"), std::string::npos) << msg;
    EXPECT_NE(msg.find("n bounds"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace decycle::soak
