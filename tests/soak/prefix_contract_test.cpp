/// soak/prefix_contract.hpp — the insertion-prefix contract.
///
/// The acceptance suite: across seeded streams totalling well over 500
/// prefixes, the incremental verdicts, the BFS/DFS oracle, and the
/// exact-regime batch detectors (run through the IncrementalSession
/// epoch/purge bridge) must agree with zero mismatches — dense and sparse —
/// and planted faults in the batch detectors must surface.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>

#include "fault_injection.hpp"
#include "incremental/stream.hpp"
#include "soak/prefix_contract.hpp"

namespace decycle::soak {
namespace {

/// Exact C_k scans grow exponentially in k, so these streams stop at k=8.
SoakScenario exact_k8() {
  SoakScenario s;
  s.k = 8;
  return s;
}

incremental::InsertStream stream(graph::Vertex n, std::size_t inserts, std::uint64_t seed) {
  incremental::StreamSpec spec;
  spec.n = n;
  spec.inserts = inserts;
  spec.seed = seed;
  return incremental::generate_stream(spec);
}

TEST(PrefixDifferential, UndirectedStreamsAgreeEverywhere) {
  // Every insert checked: verdicts, witnesses, DFS oracle, and both batch
  // detectors, over several seeds (520 prefixes).
  std::size_t total_batch_queries = 0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const PrefixReport report = check_prefixes(stream(40, 130, seed), exact_k8());
    EXPECT_FALSE(report.failed()) << "seed " << seed << ": "
                                  << (report.mismatches.empty()
                                          ? ""
                                          : report.mismatches.front().detail);
    EXPECT_GT(report.closures, 0u);
    total_batch_queries += report.batch_queries;
  }
  EXPECT_GT(total_batch_queries, 0u);
}

TEST(PrefixDifferential, SparseForestStreamExercisesTheAcceptPath) {
  // More vertices than inserts: long forest stretches, so the batch
  // detectors spend most prefixes on the must-accept side.
  const PrefixReport report = check_prefixes(stream(120, 80, 31), exact_k8());
  EXPECT_FALSE(report.failed());
  EXPECT_GT(report.batch_queries, 100u);
}

TEST(PrefixDifferential, ForgedBatchWitnessesAreUnsound) {
  // A detector that rejects every closure, but with a witness of k copies
  // of vertex 0: checking the verdict alone passes it; the shared
  // classification's witness validation must not.
  core::DetectorRegistry registry;
  registry.add(std::make_unique<soak_test::WitnessForger>());
  const PrefixReport report = check_prefixes(stream(40, 130, 1), exact_k8(), registry);
  EXPECT_GT(report.closures, 0u);
  ASSERT_EQ(report.mismatches.size(), 1u);
  EXPECT_EQ(report.mismatches[0].detector, "witness_forger");
  EXPECT_EQ(report.mismatches[0].kind, MismatchKind::kUnsound);
  EXPECT_NE(report.mismatches[0].detail.find("witness"), std::string::npos)
      << report.mismatches[0].detail;
}

TEST(PrefixDifferential, BatchDetectorsArePickedByTheExactRegime) {
  // A capped budget takes a threshold-knob detector out of the exact
  // regime, so the same planted miss is no longer queried.
  core::DetectorRegistry registry;
  registry.add(std::make_unique<soak_test::SleepyAcceptor>());
  const incremental::InsertStream s = stream(40, 130, 2);
  EXPECT_TRUE(check_prefixes(s, exact_k8(), registry).failed());
  SoakScenario capped = exact_k8();
  capped.budget = core::threshold::BudgetSchedule::constant(4);
  const PrefixReport lenient = check_prefixes(s, capped, registry);
  EXPECT_FALSE(lenient.failed());
  EXPECT_EQ(lenient.batch_queries, 0u);
}

}  // namespace
}  // namespace decycle::soak
