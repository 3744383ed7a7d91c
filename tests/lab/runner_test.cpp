#include "lab/runner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lab/json.hpp"
#include "lab/scenario.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace decycle::lab {
namespace {

std::string run_matrix_jsonl(const std::vector<std::string>& tokens, util::ThreadPool* pool) {
  const ScenarioSpec spec = ScenarioSpec::parse_tokens(tokens);
  LabOptions opts;
  opts.pool = pool;
  const LabRunner runner(opts);
  const auto results = runner.run_matrix(spec.expand());
  return matrix_jsonl(spec, results, /*include_timing=*/false);
}

// The acceptance-criterion matrix: families with opposite ground truths,
// core algorithms plus a registry baseline (color_coding spans k=4,5), and
// a lossy adversary, kept small enough for CI.
const std::vector<std::string> kMatrix = {
    "family=planted,ckfree_highgirth",                 "k=4,5",     "n=20",
    "eps=0.15",                                        "trials=10", "seed=33",
    "algo=tester,edge_checker,threshold,color_coding", "adversary=none,uniform:0.3"};

/// The lab determinism contract: byte-identical JSON for the same matrix at
/// 1, 3 and 8 threads — lane counts change which trials share a reused
/// simulator, never the bytes.
TEST(LabRunner, ByteIdenticalAcrossThreadsAndReuse) {
  const std::string serial = run_matrix_jsonl(kMatrix, nullptr);
  util::ThreadPool pool8(8);
  EXPECT_EQ(serial, run_matrix_jsonl(kMatrix, &pool8)) << "8 threads changed the bytes";
  util::ThreadPool pool3(3);
  EXPECT_EQ(serial, run_matrix_jsonl(kMatrix, &pool3)) << "3 threads changed the bytes";
}

/// Registry dispatch determinism for the baseline algorithms at their fixed
/// k: the same 1/3/8-thread byte-identity contract the core algorithms
/// honor, with c4 and triangle resetting the lanes' reused simulators.
TEST(LabRunner, BaselineAlgosByteIdenticalAcrossThreadsAndReuse) {
  const std::vector<std::vector<std::string>> matrices = {
      {"family=planted,ckfree_highgirth", "k=4", "n=20", "trials=10", "seed=44",
       "algo=c4,color_coding", "adversary=none,uniform:0.3"},
      {"family=planted,ckfree_bipartite", "k=3", "n=20", "trials=10", "seed=44",
       "algo=triangle", "adversary=none,uniform:0.3"},
  };
  util::ThreadPool pool8(8);
  util::ThreadPool pool3(3);
  for (const auto& tokens : matrices) {
    const std::string serial = run_matrix_jsonl(tokens, nullptr);
    EXPECT_EQ(serial, run_matrix_jsonl(tokens, &pool8)) << "8 threads changed the bytes";
    EXPECT_EQ(serial, run_matrix_jsonl(tokens, &pool3)) << "3 threads changed the bytes";
  }
}

/// Baseline cells are full lab citizens: detection on instances their
/// technique covers, soundness (validated witnesses) on free ones, and the
/// generic counter pipeline for algorithm-specific instrumentation.
TEST(LabRunner, BaselineAlgosDetectAndStaySound) {
  const ScenarioSpec spec = ScenarioSpec::parse_tokens(
      {"family=wheel", "k=3", "n=12", "trials=8", "seed=6", "algo=triangle", "reps=128"});
  const LabRunner runner{LabOptions{}};
  const auto results = runner.run_matrix(spec.expand());
  ASSERT_EQ(results.size(), 1u);
  // Every wheel vertex has a triangle through the hub; 128 sampling
  // iterations make a miss vanishingly unlikely.
  EXPECT_EQ(results[0].rejections, 8u);
  EXPECT_EQ(results[0].repetitions, 128u);

  const ScenarioSpec cc = ScenarioSpec::parse_tokens(
      {"family=planted,ckfree_highgirth", "k=5", "n=20", "trials=6", "seed=9",
       "algo=color_coding"});
  for (const CellResult& res : runner.run_matrix(cc.expand())) {
    if (res.truth == GroundTruth::kCkFree) {
      EXPECT_EQ(res.rejections, 0u) << res.cell.key();
      EXPECT_FALSE(res.soundness_violation);
    } else {
      EXPECT_EQ(res.rejections, res.trials) << res.cell.key();  // ⌈e^k·ln3⌉ auto iterations
    }
    EXPECT_GT(res.counter("iterations_total"), 0u);
    EXPECT_NE(res.to_json(false).find("\"iterations_total\":"), std::string::npos);
  }
}

/// The model axis end-to-end: clique cells run the clique-only detector,
/// stay exact on both ground truths, tag every JSONL line with the model
/// column, and honor the same byte-identity contract as congest cells.
TEST(LabRunner, CliqueCellsRunExactAndTagTheModelColumn) {
  const std::vector<std::string> tokens = {
      "family=planted,ckfree_highgirth", "k=5", "n=24", "trials=6", "seed=12",
      "model=clique", "algo=clique_hcycle"};
  const std::string serial = run_matrix_jsonl(tokens, nullptr);
  EXPECT_NE(serial.find("\"model\":\"clique\""), std::string::npos);
  util::ThreadPool pool8(8);
  EXPECT_EQ(serial, run_matrix_jsonl(tokens, &pool8)) << "8 threads changed the bytes";

  const ScenarioSpec spec = ScenarioSpec::parse_tokens(tokens);
  const LabRunner runner{LabOptions{}};
  for (const CellResult& res : runner.run_matrix(spec.expand())) {
    // Drop-free clique runs are exact: every planted trial rejects with a
    // validated witness, every Ck-free trial accepts.
    if (res.truth == GroundTruth::kCkFree) {
      EXPECT_EQ(res.rejections, 0u) << res.cell.key();
    } else {
      EXPECT_EQ(res.rejections, res.trials) << res.cell.key();
    }
    EXPECT_FALSE(res.soundness_violation);
    EXPECT_GT(res.counter("sampled_vertices_total"), 0u);
    EXPECT_NE(res.to_json(false).find("\"phases_total\":"), std::string::npos);
  }

  // Default cells tag congest — the column is unconditional even though
  // key() (and thus cell seeds) only change for non-congest models.
  const std::string congest =
      run_matrix_jsonl({"family=planted", "k=5", "n=16", "trials=2", "seed=3"}, nullptr);
  EXPECT_NE(congest.find("\"model\":\"congest\""), std::string::npos);
}

TEST(LabRunner, FreshGraphModeIsDeterministicToo) {
  const std::vector<std::string> tokens = {"family=planted", "k=5",       "n=20",
                                           "eps=0.15",       "trials=8",  "seed=5",
                                           "seed_mode=fresh"};
  const std::string serial = run_matrix_jsonl(tokens, nullptr);
  util::ThreadPool pool8(8);
  EXPECT_EQ(serial, run_matrix_jsonl(tokens, &pool8));
  EXPECT_NE(serial.find("\"seed_mode\":\"fresh\""), std::string::npos);
  EXPECT_NE(serial.find("mean_vertices"), std::string::npos);
}

TEST(LabRunner, SoundnessHoldsOnCkFreeCells) {
  const ScenarioSpec spec = ScenarioSpec::parse_tokens(
      {"family=ckfree_forest,ckfree_highgirth", "k=4,5", "n=24", "trials=12", "seed=11"});
  const LabRunner runner{LabOptions{}};
  for (const CellResult& res : runner.run_matrix(spec.expand())) {
    EXPECT_EQ(res.truth, GroundTruth::kCkFree) << res.cell.key();
    EXPECT_EQ(res.rejections, 0u) << res.cell.key();
    EXPECT_FALSE(res.soundness_violation);
    EXPECT_EQ(res.reject_interval.estimate, 0.0);
  }
}

TEST(LabRunner, DetectsPlantedCyclesAtTheoremRate) {
  // eps below the planted certificate (4 cycles / 23 edges ~ 0.17), so
  // Theorem 1's >= 2/3 detection bound applies.
  const ScenarioSpec spec =
      ScenarioSpec::parse_tokens({"family=planted", "k=5", "n=20", "eps=0.15", "trials=24",
                                  "seed=99"});
  const LabRunner runner{LabOptions{}};
  const auto results = runner.run_matrix(spec.expand());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].truth, GroundTruth::kFar);
  EXPECT_GT(results[0].certified_epsilon, 0.15);
  EXPECT_GE(results[0].reject_interval.estimate, 2.0 / 3.0);
  EXPECT_GT(results[0].repetitions, 0u);
  EXPECT_GE(results[0].max_bundle, 1u);  // Lemma-3 instrumentation flows through
}

TEST(LabRunner, EdgeCheckerFindsCyclesOnWheel) {
  // Every wheel edge lies on a triangle through the hub, so the
  // deterministic checker with k=3 must fire on every trial.
  const ScenarioSpec spec = ScenarioSpec::parse_tokens(
      {"family=wheel", "k=3", "n=16", "trials=10", "seed=3", "algo=edge_checker"});
  const LabRunner runner{LabOptions{}};
  const auto results = runner.run_matrix(spec.expand());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].rejections, 10u);
  EXPECT_EQ(results[0].repetitions, 0u);  // edge checker has no repetitions
}

TEST(LabRunner, ThresholdCellsDetectPlantedAndReportBudgetStats) {
  const ScenarioSpec spec = ScenarioSpec::parse_tokens(
      {"family=planted", "k=5", "n=20", "trials=12", "seed=4", "algo=threshold",
       "budget=8", "track=4"});
  const LabRunner runner{LabOptions{}};
  const auto results = runner.run_matrix(spec.expand());
  ASSERT_EQ(results.size(), 1u);
  const CellResult& r = results[0];
  EXPECT_EQ(r.truth, GroundTruth::kFar);
  EXPECT_EQ(r.repetitions, 1u);  // one sweep by default
  EXPECT_GE(r.reject_interval.estimate, 2.0 / 3.0);
  EXPECT_GT(r.counter("seeded_total"), 0u);
  EXPECT_EQ(r.counter("nonexistent_counter"), 0u);
  EXPECT_EQ(r.truncated_trials, 0u);
  const std::string json = r.to_json(false);
  EXPECT_NE(json.find("\"algo\":\"threshold\""), std::string::npos);
  EXPECT_NE(json.find("\"budget\":\"8\""), std::string::npos);
  EXPECT_NE(json.find("\"track\":4"), std::string::npos);
  EXPECT_NE(json.find("\"seeded_total\":"), std::string::npos);
  EXPECT_NE(json.find("\"budget_truncated_total\":"), std::string::npos);
  EXPECT_NE(json.find("\"peak_tracked\":"), std::string::npos);
}

TEST(LabRunner, ThresholdSoundnessUnderTightBudgets) {
  const ScenarioSpec spec = ScenarioSpec::parse_tokens(
      {"family=ckfree_forest,ckfree_highgirth", "k=5", "n=24", "trials=8", "seed=13",
       "algo=threshold", "budget=1", "track=1"});
  const LabRunner runner{LabOptions{}};
  for (const CellResult& res : runner.run_matrix(spec.expand())) {
    EXPECT_EQ(res.rejections, 0u) << res.cell.key();
    EXPECT_FALSE(res.soundness_violation) << res.cell.key();
  }
}

TEST(LabRunner, AdversaryDropsAreCountedAndSoundnessSurvives) {
  const ScenarioSpec spec = ScenarioSpec::parse_tokens(
      {"family=ckfree_highgirth", "k=5", "n=24", "trials=6", "seed=8",
       "adversary=uniform:0.5"});
  const LabRunner runner{LabOptions{}};
  const auto results = runner.run_matrix(spec.expand());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].dropped_total, 0u);
  EXPECT_EQ(results[0].rejections, 0u);  // loss can only suppress detections
}

TEST(LabRunner, EdgeCheckerAcceptsEdgelessInstances) {
  // tree with n=1 builds a 0-edge graph: there is no target edge to draw,
  // and no C_k, so the 1-sided checker accepts instead of reading out of
  // bounds.
  const ScenarioSpec spec = ScenarioSpec::parse_tokens(
      {"family=tree", "k=4", "n=1", "trials=2", "algo=edge_checker"});
  const LabRunner runner{LabOptions{}};
  const std::vector<CellResult> results = runner.run_matrix(spec.expand());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].rejections, 0u);
}

TEST(LabRunner, MetaRecordEchoesTheSpec) {
  const ScenarioSpec spec = ScenarioSpec::parse_tokens(
      {"family=cycle", "k=3,4", "n=8", "eps=0.5", "trials=2", "seed=77"});
  const std::string meta = meta_record(spec, spec.expand().size());
  EXPECT_EQ(meta,
            "{\"type\":\"meta\",\"tool\":\"decycle_lab\",\"format\":1,\"seed\":77,"
            "\"trials\":2,\"reps\":0,\"budget\":\"16\",\"track\":8,"
            "\"seed_mode\":\"shared\",\"delivery\":\"arena\","
            "\"cells\":2,\"axes\":{\"family\":[\"cycle\"],\"k\":[3,4],\"eps\":[0.5],"
            "\"n\":[8],\"adversary\":[\"none\"],\"model\":[\"congest\"],"
            "\"algo\":[\"tester\"]}}");
}

TEST(JsonWriter, EscapesAndFormats) {
  JsonWriter w;
  w.begin_object()
      .field("s", "a\"b\\c\nd")
      .field("f", 0.125)
      .field("neg", std::int64_t{-3})
      .field("flag", true);
  w.key("arr").begin_array().value(1u).value(2u).end_array();
  w.end_object();
  EXPECT_EQ(std::move(w).str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"f\":0.125,\"neg\":-3,\"flag\":true,"
            "\"arr\":[1,2]}");
  EXPECT_EQ(json_double(0.1), "0.1");  // shortest round-trip form
}

}  // namespace
}  // namespace decycle::lab
