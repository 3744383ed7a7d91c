/// Unit tests for the unified Detector interface and registry: fixed
/// registration order, capability metadata, loud lookup errors, counter
/// tables, and custom-registry registration rules.
#include "core/detector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "util/check.hpp"

namespace decycle::core {
namespace {

TEST(DetectorRegistry, BuiltinRegistersAllSevenInFixedOrder) {
  const DetectorRegistry& registry = DetectorRegistry::builtin();
  ASSERT_EQ(registry.size(), 7u);
  const char* expected[] = {"tester",
                            "edge_checker",
                            "threshold",
                            "c4",
                            "triangle",
                            "color_coding",
                            "clique_hcycle"};
  const auto detectors = registry.detectors();
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(detectors[i]->name(), expected[i]) << "registration order drifted at " << i;
  }
  EXPECT_EQ(registry.known_names(),
            "tester, edge_checker, threshold, c4, triangle, color_coding, clique_hcycle");
}

TEST(DetectorRegistry, FindAndRequire) {
  const DetectorRegistry& registry = DetectorRegistry::builtin();
  EXPECT_EQ(registry.find("tester"), &registry.require("tester"));
  EXPECT_EQ(registry.find("nope"), nullptr);
  try {
    (void)registry.require("nope");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown detection algorithm 'nope'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("color_coding"), std::string::npos) << msg;
  }
}

TEST(DetectorRegistry, CapabilitiesMatchTheAlgorithms) {
  const DetectorRegistry& registry = DetectorRegistry::builtin();

  const DetectorCapabilities& tester = registry.require("tester").capabilities();
  EXPECT_TRUE(tester.uses_epsilon);
  EXPECT_TRUE(tester.has_repetitions);
  EXPECT_TRUE(tester.distributed);

  const DetectorCapabilities& edge = registry.require("edge_checker").capabilities();
  EXPECT_FALSE(edge.has_repetitions);
  EXPECT_TRUE(edge.draws_edge);

  const DetectorCapabilities& threshold = registry.require("threshold").capabilities();
  EXPECT_TRUE(threshold.uses_threshold_knobs);

  const DetectorCapabilities& c4 = registry.require("c4").capabilities();
  EXPECT_EQ(c4.min_k, 4u);
  EXPECT_EQ(c4.max_k, 4u);

  const DetectorCapabilities& triangle = registry.require("triangle").capabilities();
  EXPECT_EQ(triangle.min_k, 3u);
  EXPECT_EQ(triangle.max_k, 3u);

  const DetectorCapabilities& cc = registry.require("color_coding").capabilities();
  EXPECT_FALSE(cc.distributed);
  EXPECT_EQ(cc.models, congest::kModelAll);  // centralized: reads topology only

  const DetectorCapabilities& chc = registry.require("clique_hcycle").capabilities();
  EXPECT_EQ(chc.models, congest::kModelClique);
  EXPECT_TRUE(chc.exact_when_lossless);
  EXPECT_FALSE(chc.has_repetitions);
  EXPECT_EQ(chc.min_k, 3u);
}

TEST(DetectorRegistry, ModelCapabilitiesAndValidation) {
  const DetectorRegistry& registry = DetectorRegistry::builtin();
  const Detector& tester = registry.require("tester");
  const Detector& chc = registry.require("clique_hcycle");

  // Defaults: classic detectors are congest-only and run_fresh builds
  // congest (the historical behaviour); clique_hcycle defaults to clique.
  EXPECT_TRUE(supports_model(tester.capabilities(), congest::CommModelKind::kCongest));
  EXPECT_FALSE(supports_model(tester.capabilities(), congest::CommModelKind::kClique));
  EXPECT_EQ(&default_comm_model(tester.capabilities()), &congest::CommModel::congest());
  EXPECT_EQ(&default_comm_model(chc.capabilities()), &congest::CommModel::clique());

  EXPECT_EQ(registry.validate_model(tester, congest::CommModel::congest()), "");
  EXPECT_EQ(registry.validate_model(chc, congest::CommModel::clique()), "");

  const std::string err = registry.validate_model(tester, congest::CommModel::clique());
  EXPECT_NE(err.find("algorithm 'tester' runs under models [congest]"), std::string::npos)
      << err;
  EXPECT_NE(err.find("got model 'clique'"), std::string::npos) << err;
  EXPECT_NE(err.find("clique_hcycle"), std::string::npos) << err;  // named alternative
  EXPECT_NE(err.find("color_coding"), std::string::npos) << err;   // kModelAll qualifies

  EXPECT_EQ(registry.names_supporting_model(congest::CommModelKind::kClique),
            "color_coding, clique_hcycle");
}

TEST(DetectorRegistry, ValidateKNamesRangeAndAlternatives) {
  const DetectorRegistry& registry = DetectorRegistry::builtin();
  EXPECT_EQ(registry.validate_k(registry.require("tester"), 5), "");
  EXPECT_EQ(registry.validate_k(registry.require("c4"), 4), "");

  const std::string err = registry.validate_k(registry.require("c4"), 5);
  EXPECT_NE(err.find("algorithm 'c4' supports k in [4, 4]"), std::string::npos) << err;
  EXPECT_NE(err.find("got k=5"), std::string::npos) << err;
  EXPECT_NE(err.find("tester"), std::string::npos) << err;
  EXPECT_NE(err.find("edge_checker"), std::string::npos) << err;
  EXPECT_EQ(err.find("triangle"), std::string::npos) << err;  // k=3 only, not an alternative

  EXPECT_EQ(registry.names_supporting_k(3),
            "tester, edge_checker, threshold, triangle, color_coding, clique_hcycle");
  EXPECT_EQ(registry.names_supporting_k(64), "tester, edge_checker, threshold");
}

TEST(DetectorRegistry, ThresholdCounterTableIsTheJsonContract) {
  // Names and order are what algo=threshold JSONL cells emit — changing
  // them breaks the nightly golden diff.
  const auto defs = DetectorRegistry::builtin().require("threshold").counters();
  ASSERT_EQ(defs.size(), 6u);
  const char* names[] = {"seeded_total",         "seed_capped_total",
                         "evictions_total",      "discarded_seqs_total",
                         "budget_truncated_total", "peak_tracked"};
  for (std::size_t i = 0; i < std::size(names); ++i) {
    EXPECT_EQ(defs[i].name, names[i]);
    EXPECT_TRUE(defs[i].emit);
    EXPECT_EQ(defs[i].kind, i + 1 == std::size(names) ? CounterKind::kMax : CounterKind::kSum);
  }
}

TEST(DetectorRegistry, TesterCountersAggregateWithoutEmission) {
  // switches/discards are reachable programmatically but must not appear in
  // JSONL: pre-registry tester cells carry no counter fields and their
  // bytes are pinned by golden CI.
  const auto defs = DetectorRegistry::builtin().require("tester").counters();
  ASSERT_EQ(defs.size(), 2u);
  EXPECT_EQ(defs[0].name, "switches_total");
  EXPECT_EQ(defs[1].name, "discarded_total");
  for (const CounterDef& def : defs) EXPECT_FALSE(def.emit);
}

TEST(DetectorRegistry, CapabilityLineDescribesEachDetector) {
  const DetectorRegistry& registry = DetectorRegistry::builtin();
  const std::string tester = capability_line(registry.require("tester"));
  EXPECT_NE(tester.find("tester: k in [3, 64]"), std::string::npos) << tester;
  EXPECT_NE(tester.find("eps"), std::string::npos) << tester;
  EXPECT_NE(tester.find("distributed"), std::string::npos) << tester;

  const std::string threshold = capability_line(registry.require("threshold"));
  EXPECT_NE(threshold.find("budget, track"), std::string::npos) << threshold;

  const std::string cc = capability_line(registry.require("color_coding"));
  EXPECT_NE(cc.find("centralized"), std::string::npos) << cc;
  EXPECT_NE(cc.find("; models: congest, clique — "), std::string::npos) << cc;

  const std::string edge = capability_line(registry.require("edge_checker"));
  EXPECT_NE(edge.find("knobs: none"), std::string::npos) << edge;
  EXPECT_NE(edge.find("target edge"), std::string::npos) << edge;
}

/// Minimal stub for registration-rule tests.
class StubDetector final : public Detector {
 public:
  explicit StubDetector(std::string name, unsigned min_k = 3, unsigned max_k = 8)
      : name_(std::move(name)) {
    caps_.min_k = min_k;
    caps_.max_k = max_k;
    caps_.summary = "stub";
  }
  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] const DetectorCapabilities& capabilities() const noexcept override {
    return caps_;
  }
  [[nodiscard]] Verdict run(congest::Simulator&, const DetectorOptions&) const override {
    return {};
  }

 private:
  std::string name_;
  DetectorCapabilities caps_;
};

TEST(DetectorRegistry, AddRejectsDuplicatesNullsAndEmptyRanges) {
  DetectorRegistry registry;
  registry.add(std::make_unique<StubDetector>("alpha"));
  EXPECT_NE(registry.find("alpha"), nullptr);
  EXPECT_THROW(registry.add(std::make_unique<StubDetector>("alpha")), util::CheckError);
  EXPECT_THROW(registry.add(nullptr), util::CheckError);
  EXPECT_THROW(registry.add(std::make_unique<StubDetector>("")), util::CheckError);
  EXPECT_THROW(registry.add(std::make_unique<StubDetector>("beta", 6, 4)), util::CheckError);
  // A failed registration leaves the registry usable and unchanged.
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.known_names(), "alpha");
}

}  // namespace
}  // namespace decycle::core
