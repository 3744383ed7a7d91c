/// Seed-derivation regression pins.
///
/// Every lab cell, every trial, and every soak instance derives its
/// randomness from content-addressed 64-bit seeds: splitmix64 folds over a
/// canonical identity string (cell key, "soak/v1 ..." instance id) or over
/// (base seed, trial index). These derivations are *contracts*: the nightly
/// golden JSONL, every checked-in repro file, and the byte-replayability of
/// soak campaigns all assume they never move. A refactor that innocently
/// reorders a key=value field or retags a fold would silently shift every
/// cell and golden at once — this test pins golden hashes for fixed specs so
/// such a change fails loudly here first, where the intent is documented.
///
/// If one of these values changes INTENTIONALLY: regenerate
/// ci/golden/nightly_matrix.jsonl, expect every existing soak repro file and
/// campaign log to be invalidated, and update the pinned constants in the
/// same commit.
///
/// The derivations live in engine/lanes.hpp (trial_seed, fold_seed), the
/// one spelling every caller uses.
#include <gtest/gtest.h>

#include "engine/lanes.hpp"
#include "lab/scenario.hpp"
#include "soak/space.hpp"

namespace decycle {
namespace {

TEST(SeedStability, LabCellKeyFormatIsPinned) {
  // cell_seed folds the key string, so the key format IS the seed contract.
  const lab::ScenarioCell dflt;
  EXPECT_EQ(dflt.key(), "family=planted k=5 eps=0.1 n=64 adversary=none algo=tester");

  const lab::ScenarioSpec spec = lab::ScenarioSpec::parse_tokens(
      {"family=planted", "k=5", "eps=0.125", "n=24", "adversary=uniform:0.25",
       "algo=threshold", "seed=2026"});
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].key(),
            "family=planted k=5 eps=0.125 n=24 adversary=uniform:0.25 algo=threshold");
}

TEST(SeedStability, LabCellSeedsArePinned) {
  const lab::ScenarioCell dflt;  // base_seed 1
  EXPECT_EQ(dflt.cell_seed(), 0x1ecba27137162d62ULL);

  const lab::ScenarioSpec spec = lab::ScenarioSpec::parse_tokens(
      {"family=planted", "k=5", "eps=0.125", "n=24", "adversary=uniform:0.25",
       "algo=threshold", "seed=2026"});
  EXPECT_EQ(spec.expand()[0].cell_seed(), 0xba67d8b3c254fc2cULL);
}

TEST(SeedStability, TrialSeedsArePinned) {
  // Shared by both harness estimators and the lab runner — the reason their
  // estimates are bit-compatible.
  EXPECT_EQ(engine::trial_seed(1, 0), 0xe9fd6049d65af21eULL);
  EXPECT_EQ(engine::trial_seed(0xDEADBEEFULL, 41), 0x89c396a89a1c5738ULL);
}

TEST(SeedStability, FoldSeedIsPinned) {
  // The one byte-fold both cell_seed and instance_seed go through. Pinned
  // directly so a refactor of either caller can't quietly change the fold.
  EXPECT_EQ(engine::fold_seed(0, ""), 0u);
  EXPECT_EQ(engine::fold_seed(util::splitmix64(1 ^ 0x6c61625f63656c6cULL),
                              "family=planted k=5 eps=0.1 n=64 adversary=none algo=tester"),
            0x1ecba27137162d62ULL);
}

TEST(SeedStability, SoakInstanceSeedsArePinned) {
  // "soak/v1 seed=<S> instance=<I>" folded under the soak tag: the contract
  // that makes a campaign byte-replayable from (seed, index) alone and
  // keeps repro files valid across refactors.
  EXPECT_EQ(soak::SoakSpace::instance_seed(1, 0), 0x27fb06023535bef2ULL);
  EXPECT_EQ(soak::SoakSpace::instance_seed(1, 499), 0x289aff775d8dba00ULL);
  EXPECT_EQ(soak::SoakSpace::instance_seed(2026, 7), 0xae26d3f24606c829ULL);
}

}  // namespace
}  // namespace decycle
