/// Regression tests for the two pseudocode errata documented in DESIGN.md §2.
///
/// E-A: Instruction 35's round index. As printed, the even-k final check
/// pairs sequences whose lengths can only sum to k-1, so no even cycle could
/// ever be reported. The corrected check (S ∪ received-at-⌊k/2⌋) is what
/// Lemma 2's proof uses; the first tests confirm even-k detection works at
/// all, which is itself the regression test for E-A.
///
/// E-B: with the corrected round index, the *raw* condition
/// "∃L1,L2 ∈ R: |L1∪L2∪{myid}| = k" admits false rejections. The two
/// counterexample graphs below make the raw condition fire at a node even
/// though no C6 exists; the implementation must accept (1-sided error).
#include <gtest/gtest.h>

#include "core/cycle_detector.hpp"
#include "core/detect_state.hpp"
#include "core/sequence.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"

namespace decycle::core {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::IdAssignment;

Verdict run_detector(const Graph& g, unsigned k, graph::Edge e) {
  const IdAssignment ids = IdAssignment::identity(g.num_vertices());
  DetectorOptions opt;
  opt.k = k;
  opt.edge = e;
  return DetectorRegistry::builtin().require("edge_checker").run_fresh(g, ids, opt);
}

TEST(ErratumEA, EvenCyclesAreDetectedAtAll) {
  // With the paper's literal Instruction 35 this would be impossible.
  for (const unsigned k : {4u, 6u, 8u, 10u}) {
    const Graph g = graph::cycle(k);
    const auto result = run_detector(g, k, {0, 1});
    EXPECT_FALSE(result.accepted) << "k=" << k;
    EXPECT_EQ(result.witness.size(), k);
  }
}

TEST(ErratumEA, LiteralPairLengthsCannotReachK) {
  // Documents the arithmetic: |S member| = k/2 and |received at k/2-1| =
  // k/2-1 give |L1 ∪ L2 ∪ {myid}| <= k-1 < k.
  const unsigned k = 6;
  const std::size_t own_len = k / 2;
  const std::size_t recv_len = k / 2 - 1;
  EXPECT_LT(own_len + recv_len, static_cast<std::size_t>(k));
}

// Counterexample 1 (DESIGN.md E-B(i)): a received sequence containing myid.
// Graph: u=0, v=1, w=2, a=3, b=4, c=5 with edges
// {u,v},{u,w},{w,a},{v,b},{b,c},{c,w}. At round 3, w receives (u,w,a) from a
// and (v,b,c) from c; |(u,w,a) ∪ (v,b,c) ∪ {w}| = 6, yet vertex a has
// degree 1, so no C6 exists anywhere.
Graph counterexample_myid_interior() {
  GraphBuilder b;
  b.add_edge(0, 1);  // u-v
  b.add_edge(0, 2);  // u-w
  b.add_edge(2, 3);  // w-a
  b.add_edge(1, 4);  // v-b
  b.add_edge(4, 5);  // b-c
  b.add_edge(5, 2);  // c-w
  return b.build();
}

TEST(ErratumEB, MyidInteriorSequenceMustNotFire) {
  const Graph g = counterexample_myid_interior();
  ASSERT_FALSE(graph::has_cycle(g, 6));  // ground truth: no C6 at all

  // The raw union condition *does* fire on w's round-3 receipts:
  EXPECT_EQ(union_size(IdSeq{0, 2, 3}, IdSeq{1, 4, 5}, 2), 6u);

  // ...but the implementation stays sound on every edge.
  for (const auto& [x, y] : g.edges()) {
    const auto result = run_detector(g, 6, {x, y});
    EXPECT_TRUE(result.accepted) << "false C6 through edge (" << x << "," << y << ")";
  }
}

// Counterexample 2 (DESIGN.md E-B(ii)): two received halves sharing an
// interior vertex. Graph: u=0, v=1, s=2, z1=3, z2=4, w=5 with edges
// {u,v},{u,s},{v,s},{s,z1},{s,z2},{z1,w},{z2,w}. At round 3, w receives
// (u,s,z1) and (v,s,z2): union with myid has size 6, but s is a cut vertex
// separating {u,v} from w, so no cycle contains both u and w.
Graph counterexample_shared_interior() {
  GraphBuilder b;
  b.add_edge(0, 1);  // u-v
  b.add_edge(0, 2);  // u-s
  b.add_edge(1, 2);  // v-s
  b.add_edge(2, 3);  // s-z1
  b.add_edge(2, 4);  // s-z2
  b.add_edge(3, 5);  // z1-w
  b.add_edge(4, 5);  // z2-w
  return b.build();
}

TEST(ErratumEB, SharedInteriorHalvesMustNotFire) {
  const Graph g = counterexample_shared_interior();
  ASSERT_FALSE(graph::has_cycle(g, 6));

  EXPECT_EQ(union_size(IdSeq{0, 2, 3}, IdSeq{1, 2, 4}, 5), 6u);  // raw condition fires

  for (const auto& [x, y] : g.edges()) {
    const auto result = run_detector(g, 6, {x, y});
    EXPECT_TRUE(result.accepted) << "false C6 through edge (" << x << "," << y << ")";
  }
}

TEST(ErratumEB, StateLevelFilterDropsMyidSequences) {
  // Direct state-machine check mirroring counterexample 1: the sequence
  // containing myid is filtered, so no pair remains.
  DetectParams p;
  p.k = 6;
  EdgeDetectState w(p, /*my=*/2, /*u=*/0, /*v=*/1);
  (void)w.step(3, {IdSeq{0, 2, 3}, IdSeq{1, 4, 5}});
  EXPECT_FALSE(w.rejected());
}

TEST(ErratumEB, GenuineC6StillDetected) {
  // The soundness fixes must not cost completeness: a real C6 with chords
  // and decoys attached is still found through every cycle edge.
  GraphBuilder b;
  for (unsigned i = 0; i < 6; ++i) b.add_edge(i, (i + 1) % 6);
  b.add_edge(0, 6);  // pendant decoys
  b.add_edge(6, 7);
  b.add_edge(2, 8);
  const Graph g = b.build();
  for (unsigned i = 0; i < 6; ++i) {
    const auto result =
        run_detector(g, 6, {static_cast<graph::Vertex>(i), static_cast<graph::Vertex>((i + 1) % 6)});
    EXPECT_FALSE(result.accepted) << "edge " << i;
    EXPECT_TRUE(graph::validate_cycle(g, result.witness));
  }
}

}  // namespace
}  // namespace decycle::core
