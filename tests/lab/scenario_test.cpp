#include "lab/scenario.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::lab {
namespace {

/// Parses tokens and returns the CheckError message (empty = no throw).
std::string parse_error(std::vector<std::string> tokens) {
  try {
    (void)ScenarioSpec::parse_tokens(tokens);
  } catch (const util::CheckError& e) {
    return e.what();
  }
  return {};
}

TEST(ScenarioSpec, DefaultsAreRunnable) {
  const ScenarioSpec spec = ScenarioSpec::parse_tokens({});
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].family, "planted");
  EXPECT_EQ(cells[0].k, 5u);
  ASSERT_NE(cells[0].algo, nullptr);
  EXPECT_EQ(cells[0].algo->name(), "tester");
}

TEST(ScenarioSpec, CommaListsAndRangesExpand) {
  const std::vector<std::string> tokens = {"family=cycle,planted", "k=3,5", "n=8..16:4",
                                           "eps=0.1,0.2", "trials=7"};
  const ScenarioSpec spec = ScenarioSpec::parse_tokens(tokens);
  EXPECT_EQ(spec.sizes, (std::vector<std::uint64_t>{8, 12, 16}));
  const auto cells = spec.expand();
  // 2 families x 2 k x 2 eps x 3 n = 24 cells, indexes sequential.
  ASSERT_EQ(cells.size(), 24u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].trials, 7u);
  }
  // Fixed nesting order: family outermost, algo innermost.
  EXPECT_EQ(cells[0].family, "cycle");
  EXPECT_EQ(cells[12].family, "planted");
  EXPECT_EQ(cells[0].k, 3u);
  EXPECT_EQ(cells[6].k, 5u);
}

TEST(ScenarioSpec, RangeWithoutStepAndSingletons) {
  const ScenarioSpec spec = ScenarioSpec::parse_tokens({"n=3..5", "k=4"});
  EXPECT_EQ(spec.sizes, (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(spec.ks, (std::vector<unsigned>{4}));
}

TEST(ScenarioSpec, UnknownKeyNamesItselfAndTheAlternatives) {
  const std::string err = parse_error({"famly=cycle"});
  EXPECT_NE(err.find("famly: unknown scenario key"), std::string::npos) << err;
  EXPECT_NE(err.find("family"), std::string::npos) << err;
}

TEST(ScenarioSpec, UnknownFamilyListsKnownOnes) {
  const std::string err = parse_error({"family=petersen"});
  EXPECT_NE(err.find("unknown graph family 'petersen'"), std::string::npos) << err;
  EXPECT_NE(err.find("planted"), std::string::npos) << err;
  EXPECT_NE(err.find("ckfree_highgirth"), std::string::npos) << err;
}

TEST(ScenarioSpec, BadValuesAreRejectedWithClearMessages) {
  EXPECT_NE(parse_error({"k=abc"}).find("expected unsigned integer"), std::string::npos);
  EXPECT_NE(parse_error({"k=2"}).find("k: 2 out of range 3..64"), std::string::npos);
  EXPECT_NE(parse_error({"eps=0"}).find("(0, 1]"), std::string::npos);
  EXPECT_NE(parse_error({"eps=1.5"}).find("(0, 1]"), std::string::npos);
  EXPECT_NE(parse_error({"trials=0"}).find("trials: 0 out of range 1.."), std::string::npos);
  EXPECT_NE(parse_error({"n=0"}).find("n: 0 out of range 1.."), std::string::npos);
  EXPECT_NE(parse_error({"algo=quantum"}).find("unknown algorithm 'quantum'"),
            std::string::npos);
  EXPECT_NE(parse_error({"seed_mode=both"}).find("shared or fresh"), std::string::npos);
}

TEST(ScenarioSpec, RetiredExecutionKnobsAreUnknownKeys) {
  // The simulator has one delivery path and the lab always reuses sessions:
  // `delivery=` and decycle_lab's former `--reuse` flag (which the CLI now
  // forwards to this parser) fail like any typo, listing the live keys.
  const std::pair<std::string, std::string> retired[] = {{"delivery=legacy", "delivery"},
                                                          {"reuse=0", "reuse"}};
  for (const auto& [token, key] : retired) {
    const std::string err = parse_error({token});
    EXPECT_NE(err.find(key + ": unknown scenario key"), std::string::npos) << err;
    EXPECT_NE(err.find("seed_mode, budget, track"), std::string::npos) << err;
    EXPECT_EQ(err.find("delivery", err.find("(accepted:")), std::string::npos) << err;
  }
}

TEST(ScenarioSpec, ThresholdAlgoAndKnobsParse) {
  const ScenarioSpec spec = ScenarioSpec::parse_tokens(
      {"family=planted", "algo=threshold", "budget=4,8", "track=3"});
  ASSERT_EQ(spec.algos.size(), 1u);
  ASSERT_NE(spec.algos[0], nullptr);
  EXPECT_EQ(spec.algos[0]->name(), "threshold");
  EXPECT_EQ(spec.budget.name(), "4,8");
  EXPECT_EQ(spec.track, 3u);
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].budget.name(), "4,8");
  EXPECT_EQ(cells[0].track, 3u);
  EXPECT_NE(cells[0].key().find("algo=threshold"), std::string::npos);

  // Unknown-algo errors now advertise the threshold family too.
  EXPECT_NE(parse_error({"algo=quantum"}).find("threshold"), std::string::npos);
  EXPECT_NE(parse_error({"budget=bogus"}).find("budget: expected unsigned integer"),
            std::string::npos);
  EXPECT_NE(parse_error({"budget=4,0"}).find("budget: 0 out of range 1..1048576"),
            std::string::npos);
}

TEST(ScenarioSpec, RejectsSizesBeyondVertexWidth) {
  // Builders take 32-bit Vertex ids; truncation would silently build a
  // different instance than the JSON record claims.
  EXPECT_NE(parse_error({"n=4294967299"}).find("n: 4294967299 out of range 1..4294967294"),
            std::string::npos);
  EXPECT_NE(validate_family("grid", 4, 70000).find("overflow"), std::string::npos);
}

TEST(ScenarioSpec, BadRangesAreRejected) {
  EXPECT_NE(parse_error({"n=9..3"}).find("empty (lo > hi)"), std::string::npos);
  EXPECT_NE(parse_error({"n=3..9:0"}).find("step must be positive"), std::string::npos);
}

TEST(ScenarioSpec, ExpandRefusesMatricesOverTheCellCap) {
  // 17 cycle lengths x 4096 sizes: each list is within the list cap, the
  // product (69632 cells) is not.
  const ScenarioSpec spec =
      ScenarioSpec::parse_tokens({"family=cycle", "k=3..19", "n=3..4098"});
  try {
    (void)spec.expand();
    FAIL() << "a 69632-cell matrix expanded";
  } catch (const util::CheckError& e) {
    EXPECT_STREQ(e.what(),
                 "scenario matrix has 69632 cells; the limit is 65536 (split it into several "
                 "runs)");
  }
}

TEST(ScenarioSpec, MalformedRangeNamesTheKeyAndTheOffendingRange) {
  // The error must carry enough to fix the command line: the key it was
  // parsed under and the literal range that is empty.
  const std::string err = parse_error({"n=100..10"});
  EXPECT_NE(err.find("n: "), std::string::npos) << err;
  EXPECT_NE(err.find("100..10"), std::string::npos) << err;
  EXPECT_NE(err.find("empty (lo > hi)"), std::string::npos) << err;
}

TEST(ScenarioSpec, DuplicateKeysAreRejectedWithTheMergeHint) {
  // parse() consumes (key, value) pairs; a repeated key would silently
  // override half the matrix. The message names the key and the accepted
  // alternative (one comma list).
  const std::string err = parse_error({"k=4", "k=5"});
  EXPECT_NE(err.find("k: scenario key given twice"), std::string::npos) << err;
  EXPECT_NE(err.find("comma-separated"), std::string::npos) << err;
  // Any key, not just axes.
  EXPECT_NE(parse_error({"trials=2", "trials=3"}).find("given twice"), std::string::npos);
  // Distinct keys still parse.
  EXPECT_EQ(parse_error({"k=4", "n=16"}), "");
}

TEST(ScenarioSpec, UnknownAdversaryNamesTheAcceptedOnes) {
  const std::string err = parse_error({"adversary=gamma:0.1"});
  EXPECT_NE(err.find("unknown adversary 'gamma'"), std::string::npos) << err;
  for (const char* accepted : {"none", "uniform:R", "oneway:R", "late:R"}) {
    EXPECT_NE(err.find(accepted), std::string::npos) << err;
  }
}

TEST(ScenarioSpec, CapabilityViolationNamesTheAcceptingAlternatives) {
  // algo=triangle is k=3 only; the k=5 cell must die at expand() naming the
  // detector's range and every registered algorithm that does accept k=5.
  const ScenarioSpec spec =
      ScenarioSpec::parse_tokens({"family=planted", "k=5", "algo=triangle"});
  try {
    (void)spec.expand();
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'triangle'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("k in [3, 3]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("algorithms accepting k=5"), std::string::npos) << msg;
    for (const char* accepted : {"tester", "edge_checker", "threshold"}) {
      EXPECT_NE(msg.find(accepted), std::string::npos) << msg;
    }
    EXPECT_EQ(msg.find("c4"), std::string::npos) << msg;  // k=4 only: not suggested
  }
}

TEST(ScenarioSpec, TokensMustBeKeyValue) {
  EXPECT_NE(parse_error({"--family"}).find("not of the form key=value"), std::string::npos);
}

TEST(ScenarioSpec, ExpandRejectsUnbuildableCells) {
  // ckfree_bipartite is only Ck-free for odd k; the matrix must refuse the
  // k=4 cell loudly instead of running a meaningless soundness experiment.
  const ScenarioSpec spec = ScenarioSpec::parse_tokens({"family=ckfree_bipartite", "k=4,5"});
  try {
    (void)spec.expand();
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("odd k"), std::string::npos) << e.what();
  }
}

TEST(ScenarioSpec, BaselineAlgosParseFromTheRegistry) {
  // The baselines are ordinary algo= axis values — parsed by registry
  // lookup, not a hand-maintained list.
  const ScenarioSpec spec =
      ScenarioSpec::parse_tokens({"family=planted", "k=4", "algo=tester,c4,color_coding"});
  ASSERT_EQ(spec.algos.size(), 3u);
  EXPECT_EQ(spec.algos[1]->name(), "c4");
  EXPECT_EQ(spec.algos[2]->name(), "color_coding");
  EXPECT_EQ(spec.expand().size(), 3u);

  // Unknown-algo errors name every registered detector.
  const std::string err = parse_error({"algo=quantum"});
  for (const char* known : {"tester", "edge_checker", "threshold", "c4", "triangle",
                            "color_coding"}) {
    EXPECT_NE(err.find(known), std::string::npos) << err;
  }
}

TEST(ScenarioSpec, ExpandRejectsCapabilityViolations) {
  // The FRST C4 technique provably fails for k >= 5; a matrix pairing
  // algo=c4 with k=5 must fail loudly, naming the range and the registered
  // alternatives that do accept k=5 — not silently run meaningless cells.
  const ScenarioSpec spec = ScenarioSpec::parse_tokens({"family=planted", "k=5", "algo=c4"});
  try {
    (void)spec.expand();
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'c4'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("k in [4, 4]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("got k=5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tester"), std::string::npos) << msg;      // an accepted alternative
    EXPECT_NE(msg.find("threshold"), std::string::npos) << msg;   // another one
    EXPECT_EQ(msg.find("triangle"), std::string::npos) << msg;    // k=3 only: not suggested
  }
  // Only the k values actually out of range are rejected: triangle at k=3
  // together with k=4 fails, alone it expands.
  const ScenarioSpec ok = ScenarioSpec::parse_tokens({"family=planted", "k=3", "algo=triangle"});
  EXPECT_EQ(ok.expand().size(), 1u);
  const ScenarioSpec bad =
      ScenarioSpec::parse_tokens({"family=planted", "k=3,4", "algo=triangle"});
  EXPECT_THROW((void)bad.expand(), util::CheckError);
}

TEST(ScenarioSpec, ModelAxisParsesExpandsAndTagsKeys) {
  // Default: the congest singleton, and key() carries no model suffix so
  // every pre-model cell seed (and the golden nightly bytes) is unchanged.
  const ScenarioSpec def = ScenarioSpec::parse_tokens({"family=cycle", "k=5", "n=10"});
  ASSERT_EQ(def.models.size(), 1u);
  EXPECT_EQ(def.models[0], &congest::CommModel::congest());
  EXPECT_EQ(def.expand()[0].key().find("model="), std::string::npos);

  const ScenarioSpec spec = ScenarioSpec::parse_tokens(
      {"family=planted", "k=5", "n=20", "model=clique", "algo=clique_hcycle"});
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].model, &congest::CommModel::clique());
  EXPECT_NE(cells[0].key().find(" model=clique"), std::string::npos) << cells[0].key();

  // model expands as an axis like any other; nesting puts it between
  // adversary and algo.
  const ScenarioSpec multi = ScenarioSpec::parse_tokens(
      {"family=planted", "k=5", "model=congest,clique", "algo=color_coding"});
  const auto mcells = multi.expand();
  ASSERT_EQ(mcells.size(), 2u);
  EXPECT_EQ(mcells[0].model->name(), "congest");
  EXPECT_EQ(mcells[1].model->name(), "clique");
  EXPECT_NE(mcells[0].cell_seed(), mcells[1].cell_seed());
}

TEST(ScenarioSpec, UnknownModelListsKnownOnes) {
  const std::string err = parse_error({"model=quantum"});
  EXPECT_NE(err.find("unknown communication model 'quantum'"), std::string::npos) << err;
  EXPECT_NE(err.find("(known: congest, clique)"), std::string::npos) << err;
  // The broadcast model was removed: its name is as unknown as any other.
  EXPECT_EQ(parse_error({"model=broadcast"}),
            "model: unknown communication model 'broadcast' (known: congest, clique)");
}

TEST(ScenarioSpec, ExpandRejectsModelCapabilityViolations) {
  // The FO17 tester is a CONGEST algorithm; pairing it with model=clique
  // must die loudly at expand(), naming the models it does run under and
  // every registered algorithm that accepts the clique — not silently run
  // the wrong model.
  const ScenarioSpec spec = ScenarioSpec::parse_tokens(
      {"family=planted", "k=5", "model=clique", "algo=tester"});
  try {
    (void)spec.expand();
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("scenario matrix contains an unsupported cell"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("algorithm 'tester' runs under models [congest]"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("got model 'clique'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("algorithms accepting model=clique"), std::string::npos) << msg;
    EXPECT_NE(msg.find("clique_hcycle"), std::string::npos) << msg;
    EXPECT_NE(msg.find("color_coding"), std::string::npos) << msg;
  }
  // And the symmetric direction: the clique detector refuses congest cells.
  const ScenarioSpec rev = ScenarioSpec::parse_tokens(
      {"family=planted", "k=5", "algo=clique_hcycle"});
  EXPECT_THROW((void)rev.expand(), util::CheckError);
  const ScenarioSpec ok = ScenarioSpec::parse_tokens(
      {"family=planted", "k=5", "model=clique", "algo=clique_hcycle"});
  EXPECT_EQ(ok.expand().size(), 1u);
}

TEST(Adversary, ParseAndValidate) {
  EXPECT_EQ(parse_adversary("none").kind, AdversarySpec::Kind::kNone);
  const AdversarySpec uni = parse_adversary("uniform:0.25");
  EXPECT_EQ(uni.kind, AdversarySpec::Kind::kUniform);
  EXPECT_DOUBLE_EQ(uni.rate, 0.25);
  EXPECT_EQ(uni.name(), "uniform:0.25");
  EXPECT_EQ(parse_adversary("oneway:0.5").kind, AdversarySpec::Kind::kOneWay);
  EXPECT_EQ(parse_adversary("late:1").kind, AdversarySpec::Kind::kLate);

  EXPECT_THROW((void)parse_adversary("gamma:0.1"), util::CheckError);
  EXPECT_THROW((void)parse_adversary("uniform"), util::CheckError);
  EXPECT_THROW((void)parse_adversary("uniform:1.5"), util::CheckError);
  EXPECT_THROW((void)parse_adversary("none:0.1"), util::CheckError);
  EXPECT_THROW((void)parse_adversary("none:"), util::CheckError);  // truncated token, still loud
}

TEST(Adversary, DropFilterIsPureAndRespectsKind) {
  const auto filter = make_drop_filter(parse_adversary("late:1"), 99);
  ASSERT_TRUE(filter != nullptr);
  EXPECT_FALSE(filter(0, 1, 2));  // early rounds protected
  EXPECT_FALSE(filter(1, 1, 2));
  EXPECT_TRUE(filter(2, 1, 2));  // rate 1: every late message drops
  EXPECT_EQ(filter(5, 3, 4), filter(5, 3, 4));  // pure

  const auto oneway = make_drop_filter(parse_adversary("oneway:1"), 99);
  EXPECT_TRUE(oneway(0, 1, 2));
  EXPECT_FALSE(oneway(0, 2, 1));  // higher -> lower never dropped

  EXPECT_TRUE(make_drop_filter(AdversarySpec{}, 1) == nullptr);  // none: no filter at all
}

TEST(ScenarioCell, SeedIsContentAddressed) {
  const ScenarioSpec one = ScenarioSpec::parse_tokens({"family=cycle", "k=5", "n=10"});
  const ScenarioSpec many =
      ScenarioSpec::parse_tokens({"family=path,cycle", "k=4,5", "n=10"});
  const auto cells_one = one.expand();
  const auto cells_many = many.expand();
  // The cycle/k=5 cell keeps its seed when other axis values are added, so
  // growing a matrix never silently reshuffles existing cells' trials.
  const ScenarioCell* same = nullptr;
  for (const ScenarioCell& c : cells_many) {
    if (c.family == "cycle" && c.k == 5) same = &c;
  }
  ASSERT_NE(same, nullptr);
  EXPECT_EQ(cells_one[0].cell_seed(), same->cell_seed());
  EXPECT_NE(cells_one[0].cell_seed(), cells_many[0].cell_seed());
}

TEST(FamilyRegistry, BuildsEveryFamilyAndHonorsGroundTruth) {
  for (const FamilyInfo& info : known_families()) {
    ScenarioCell cell;
    cell.family = std::string(info.name);
    cell.k = 5;
    cell.n = info.name == "hypercube" ? 4 : 24;
    ASSERT_EQ(validate_family(cell.family, cell.k, cell.n), "") << info.name;
    util::Rng rng(3);
    const BuiltTopology topo = build_topology(cell, rng);
    EXPECT_GE(topo.graph.num_vertices(), 2u) << info.name;
    if (topo.truth == GroundTruth::kFar) {
      EXPECT_GT(topo.certified_epsilon, 0.0) << info.name;
    }
  }
}

TEST(FamilyRegistry, ValidateExplainsConstraints) {
  EXPECT_NE(validate_family("cycle", 5, 2).find("n >= 3"), std::string::npos);
  EXPECT_NE(validate_family("regular", 5, 4).find("n >= 6"), std::string::npos);
  EXPECT_NE(validate_family("hypercube", 5, 30).find("n > 20"), std::string::npos);
  EXPECT_NE(validate_family("noisy", 8, 10).find("2k"), std::string::npos);
  EXPECT_NE(validate_family("nope", 5, 10).find("unknown graph family"), std::string::npos);
}

TEST(FamilyRegistry, EveryFamilyRefusesCycleLengthsOutsideTheLabRange) {
  // The daemon's create verb reaches validate_family without the scenario
  // parser's k bound: planted k=0 divides by zero and layered k=1 never
  // finds a coprime layer size unless the family check refuses them.
  for (const FamilyInfo& info : known_families()) {
    for (const unsigned k : {0u, 1u, 2u, 65u}) {
      const std::string err = validate_family(info.name, k, 16);
      EXPECT_NE(err.find("k=" + std::to_string(k)), std::string::npos) << info.name << " " << err;
      EXPECT_NE(err.find("needs k in 3..64"), std::string::npos) << info.name << " " << err;
    }
    EXPECT_EQ(validate_family(info.name, 3, 1).find("needs k"), std::string::npos) << info.name;
  }
}

}  // namespace
}  // namespace decycle::lab
