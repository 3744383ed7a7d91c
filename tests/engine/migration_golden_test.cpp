/// Migration byte-identity: the engine-backed lab runner and soak campaign
/// must reproduce the checked-in goldens bit-for-bit.
///
/// These are the same documents nightly CI diffs through the CLIs
/// (ci/run_nightly_matrix.sh, decycle_soak) — regenerated here in-process so
/// the engine-backed runners are gated by `ctest` alone, at 1/3/8 threads,
/// with sessions shared across cells and with every cell on its own fresh
/// sessions. Any divergence in lane partitioning, session reuse, or seed
/// derivation shows up as a byte diff against ci/golden/.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lab/runner.hpp"
#include "lab/scenario.hpp"
#include "soak/campaign.hpp"
#include "util/thread_pool.hpp"

namespace decycle {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// First line of the first divergence, for a readable failure message.
std::string first_diff(const std::string& a, const std::string& b) {
  if (a == b) return "";
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t pos = 0;
  while (pos < n && a[pos] == b[pos]) ++pos;
  std::size_t line = 1;
  for (std::size_t i = 0; i < pos; ++i) line += a[i] == '\n' ? 1 : 0;
  std::ostringstream out;
  out << "first divergence at byte " << pos << " (line " << line << "), sizes " << a.size()
      << " vs " << b.size();
  return out.str();
}

/// The canonical nightly matrix — MUST stay in lockstep with
/// ci/run_nightly_matrix.sh, which is the only other place these arguments
/// are spelled out.
lab::ScenarioSpec nightly_spec() {
  return lab::ScenarioSpec::parse_tokens({
      "family=cycle,planted,layered,ckfree_highgirth,ckfree_forest",
      "k=4,5",
      "n=24",
      "eps=0.125",
      "adversary=none,uniform:0.25",
      "algo=tester,edge_checker,threshold,color_coding",
      "budget=8",
      "track=4",
      "trials=12",
      "seed=2026",
  });
}

/// \p runner_per_cell runs every cell on its own LabRunner, so no cell
/// sees a session that a sibling cell on the same topology warmed.
std::string run_nightly(std::size_t threads, bool runner_per_cell) {
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
  lab::LabOptions opts;
  opts.pool = pool.get();
  const lab::ScenarioSpec spec = nightly_spec();
  const std::vector<lab::ScenarioCell> cells = spec.expand();
  std::vector<lab::CellResult> results;
  if (runner_per_cell) {
    for (const lab::ScenarioCell& cell : cells) {
      results.push_back(lab::LabRunner(opts).run_cell(cell));
    }
  } else {
    results = lab::LabRunner(opts).run_matrix(cells);
  }
  return lab::matrix_jsonl(spec, results, /*include_timing=*/false);
}

std::string run_soak(std::size_t threads) {
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
  soak::CampaignOptions opts;  // seed=1, oracle contract: the golden's settings
  opts.instances = 200;
  opts.pool = pool.get();
  return soak::run_campaign(opts).jsonl;
}

class NightlyGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NightlyGolden, ByteIdenticalWithSessionReuse) {
  const std::string golden = read_file(DECYCLE_REPO_DIR "/ci/golden/nightly_matrix.jsonl");
  const std::string got = run_nightly(GetParam(), /*runner_per_cell=*/false);
  EXPECT_EQ(got, golden) << first_diff(got, golden);
}

TEST_P(NightlyGolden, ByteIdenticalWithFreshSimulators) {
  const std::string golden = read_file(DECYCLE_REPO_DIR "/ci/golden/nightly_matrix.jsonl");
  const std::string got = run_nightly(GetParam(), /*runner_per_cell=*/true);
  EXPECT_EQ(got, golden) << first_diff(got, golden);
}

class SoakGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SoakGolden, ByteIdenticalCampaignLog) {
  const std::string golden = read_file(DECYCLE_REPO_DIR "/ci/golden/soak_campaign_200.jsonl");
  const std::string got = run_soak(GetParam());
  EXPECT_EQ(got, golden) << first_diff(got, golden);
}

// ctest names each case by its printed thread count, e.g. ".../8".
INSTANTIATE_TEST_SUITE_P(Threads, NightlyGolden, ::testing::Values(1, 3, 8));
INSTANTIATE_TEST_SUITE_P(Threads, SoakGolden, ::testing::Values(1, 3, 8));

}  // namespace
}  // namespace decycle
