#include "graph/far_generators.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/analysis.hpp"
#include "graph/subgraph.hpp"
#include "util/check.hpp"

namespace decycle::graph {
namespace {

void expect_planted_edge_disjoint(const FarInstance& inst, unsigned k) {
  std::set<EdgeId> used;
  for (const auto& cyc : inst.planted) {
    ASSERT_EQ(cyc.size(), k);
    ASSERT_TRUE(validate_cycle(inst.graph, cyc));
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      const EdgeId id = inst.graph.edge_id(cyc[i], cyc[(i + 1) % cyc.size()]);
      ASSERT_NE(id, kInvalidEdge);
      EXPECT_TRUE(used.insert(id).second) << "planted cycles share an edge";
    }
  }
}

TEST(PlantedInstance, StructureAndCertificate) {
  util::Rng rng(1);
  PlantedOptions opt;
  opt.k = 5;
  opt.num_cycles = 8;
  opt.padding_leaves = 10;
  const FarInstance inst = planted_cycles_instance(opt, rng);
  EXPECT_EQ(inst.planted.size(), 8u);
  EXPECT_EQ(inst.graph.num_edges(), 8 * 5 + 7 + 10u);  // cycles + bridges + pads
  expect_planted_edge_disjoint(inst, 5);
  EXPECT_NEAR(inst.certified_epsilon(), 8.0 / 57.0, 1e-12);
  EXPECT_TRUE(is_connected(inst.graph));
}

TEST(PlantedInstance, ExactlyPlantedCyclesNoMore) {
  util::Rng rng(2);
  PlantedOptions opt;
  opt.k = 4;
  opt.num_cycles = 5;
  opt.shuffle = false;
  const FarInstance inst = planted_cycles_instance(opt, rng);
  EXPECT_EQ(count_cycles(inst.graph, 4), 5u);
  // No other cycle lengths exist either (bridges/pads are cut edges).
  EXPECT_EQ(count_cycles(inst.graph, 3), 0u);
  EXPECT_EQ(count_cycles(inst.graph, 5), 0u);
}

TEST(PlantedInstance, ShuffleKeepsInvariants) {
  util::Rng rng(3);
  PlantedOptions opt;
  opt.k = 7;
  opt.num_cycles = 4;
  opt.shuffle = true;
  const FarInstance inst = planted_cycles_instance(opt, rng);
  expect_planted_edge_disjoint(inst, 7);
}

TEST(PlantedInstance, DisconnectedWhenRequested) {
  util::Rng rng(4);
  PlantedOptions opt;
  opt.k = 3;
  opt.num_cycles = 3;
  opt.connect = false;
  opt.shuffle = false;
  const FarInstance inst = planted_cycles_instance(opt, rng);
  EXPECT_EQ(connected_components(inst.graph).count, 3u);
}

TEST(HighGirth, GirthExceedsK) {
  util::Rng rng(5);
  for (const unsigned k : {3u, 5u, 7u}) {
    const Graph g = high_girth_graph(120, 150, k, rng);
    const auto gg = girth(g);
    if (gg.has_value()) {
      EXPECT_GT(*gg, k) << "k=" << k;
    }
    for (unsigned len = 3; len <= k; ++len) EXPECT_FALSE(has_cycle(g, len));
  }
}

TEST(NoisyInstance, CertificateHolds) {
  util::Rng rng(6);
  NoisyFarOptions opt;
  opt.k = 5;
  opt.num_cycles = 6;
  opt.background_n = 80;
  opt.background_m = 120;
  const FarInstance inst = noisy_far_instance(opt, rng);
  EXPECT_EQ(inst.planted.size(), 6u);
  expect_planted_edge_disjoint(inst, 5);
  EXPECT_GT(inst.certified_epsilon(), 0.0);
}

TEST(LayeredInstance, EdgeDisjointPackingAtScale) {
  util::Rng rng(7);
  const FarInstance inst = layered_instance(5, 9, 3, rng);
  EXPECT_EQ(inst.planted.size(), 9u * 3);
  EXPECT_EQ(inst.graph.num_edges(), 5u * 9 * 3);
  expect_planted_edge_disjoint(inst, 5);
  // Every vertex carries `shifts` cycles: degree 2*shifts.
  for (Vertex v = 0; v < inst.graph.num_vertices(); ++v) {
    EXPECT_EQ(inst.graph.degree(v), 6u);
  }
  EXPECT_NEAR(inst.certified_epsilon(), 1.0 / 5.0, 1e-12);
}

TEST(LayeredInstance, WorksForEvenK) {
  util::Rng rng(8);
  const FarInstance inst = layered_instance(6, 8, 2, rng);  // gcd(8, 5) = 1
  expect_planted_edge_disjoint(inst, 6);
}

TEST(LayeredInstance, RejectsNonCoprimeLayerSize) {
  util::Rng rng(9);
  EXPECT_THROW((void)layered_instance(5, 8, 2, rng), util::CheckError);  // gcd(8,4)=4
}

TEST(LayeredInstance, CoprimeLayerSizeIsTheSmallestAcceptedSize) {
  EXPECT_EQ(coprime_layer_size(9, 5), 9u);    // gcd(9, 4) = 1
  EXPECT_EQ(coprime_layer_size(8, 5), 9u);    // 8 shares 2 with k-1 = 4
  EXPECT_EQ(coprime_layer_size(12, 4), 13u);  // 12 shares 3 with k-1 = 3
  EXPECT_EQ(coprime_layer_size(1, 7), 5u);    // floor 2; 2, 3, 4 share a factor with 6
  EXPECT_EQ(coprime_layer_size(0, 3), 3u);
  // k - 1 = 0 would never reach gcd 1: every k below 3 is refused up front.
  for (const unsigned k : {0U, 1U, 2U}) {
    EXPECT_THROW((void)coprime_layer_size(10, k), util::CheckError) << "k=" << k;
  }
  util::Rng rng(10);
  for (unsigned k = 3; k <= 8; ++k) {
    EXPECT_NO_THROW((void)layered_instance(k, coprime_layer_size(10, k), 2, rng)) << "k=" << k;
  }
}

TEST(CkFreeFamilies, ListDependsOnParity) {
  const auto odd = ck_free_families_for(5);
  const auto even = ck_free_families_for(6);
  EXPECT_TRUE(std::find(odd.begin(), odd.end(), CkFreeFamily::kBipartite) != odd.end());
  EXPECT_TRUE(std::find(even.begin(), even.end(), CkFreeFamily::kBipartite) == even.end());
}

TEST(CkFreeFamilies, InstancesAreCkFree) {
  util::Rng rng(10);
  for (const unsigned k : {3u, 4u, 5u, 6u, 7u}) {
    for (const CkFreeFamily family : ck_free_families_for(k)) {
      const Graph g = ck_free_instance(family, k, 60, rng);
      EXPECT_FALSE(has_cycle(g, k)) << "family=" << family_name(family) << " k=" << k;
      EXPECT_GE(g.num_vertices(), 4u);
    }
  }
}

TEST(CkFreeFamilies, CliqueBlowupKeepsShorterCycles) {
  util::Rng rng(11);
  const Graph g = ck_free_instance(CkFreeFamily::kCliqueBlowup, 6, 60, rng);
  EXPECT_TRUE(has_cycle(g, 3));  // K5 components are rich in shorter cycles
  EXPECT_TRUE(has_cycle(g, 5));
  EXPECT_FALSE(has_cycle(g, 6));
}

TEST(CkFreeFamilies, SubdividedCliqueFreeForManyK) {
  util::Rng rng(12);
  for (const unsigned k : {4u, 6u, 9u}) {
    const Graph g = ck_free_instance(CkFreeFamily::kSubdividedClique, k, 80, rng);
    EXPECT_FALSE(has_cycle(g, k)) << "k=" << k;
    EXPECT_TRUE(girth(g).has_value());  // it does contain (longer) cycles
  }
}

TEST(CkFreeFamilies, BipartiteRejectsEvenK) {
  util::Rng rng(13);
  EXPECT_THROW((void)ck_free_instance(CkFreeFamily::kBipartite, 4, 40, rng), util::CheckError);
}

TEST(FamilyNames, AllDistinct) {
  std::set<std::string> names;
  for (const CkFreeFamily f :
       {CkFreeFamily::kForest, CkFreeFamily::kBipartite, CkFreeFamily::kHighGirth,
        CkFreeFamily::kCliqueBlowup, CkFreeFamily::kSubdividedClique}) {
    names.insert(family_name(f));
  }
  EXPECT_EQ(names.size(), 5u);
}

}  // namespace
}  // namespace decycle::graph
