/// \file comm_model_test.cpp
/// \brief CommModel layer: the two instances and their lookup, the
/// kind/mask correspondence, link-topology construction (clique = K_n while
/// graph() stays the input), and byte-identity of the factory constructor
/// with a topology-only congest build plus reset().
#include "congest/comm_model.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "congest/simulator.hpp"
#include "graph/generators.hpp"

namespace decycle::congest {
namespace {

using graph::Graph;
using graph::IdAssignment;
using graph::Vertex;

TEST(CommModel, InstancesExposeNamesAndKinds) {
  EXPECT_EQ(CommModel::congest().name(), "congest");
  EXPECT_EQ(CommModel::clique().name(), "clique");
  EXPECT_EQ(CommModel::congest().kind(), CommModelKind::kCongest);
  EXPECT_EQ(CommModel::clique().kind(), CommModelKind::kClique);
}

TEST(CommModel, FindAndKnownNames) {
  EXPECT_EQ(CommModel::find("congest"), &CommModel::congest());
  EXPECT_EQ(CommModel::find("clique"), &CommModel::clique());
  EXPECT_EQ(CommModel::find("CLIQUE"), nullptr);  // names are exact
  EXPECT_EQ(CommModel::find(""), nullptr);
  EXPECT_EQ(CommModel::find("broadcast"), nullptr);  // removed, like any unknown name
  EXPECT_EQ(CommModel::known_names(), "congest, clique");
}

TEST(CommModel, KindBitsAndMaskNames) {
  // The enum values ARE the mask bit positions — the static mask constants
  // and model_bit() can never drift apart.
  EXPECT_EQ(model_bit(CommModelKind::kCongest), kModelCongest);
  EXPECT_EQ(model_bit(CommModelKind::kClique), kModelClique);
  EXPECT_EQ(kModelCongest | kModelClique, kModelAll);

  EXPECT_EQ(model_mask_names(kModelAll), "congest, clique");
  EXPECT_EQ(model_mask_names(kModelClique), "clique");
  EXPECT_EQ(model_mask_names(kModelCongest), "congest");
  EXPECT_EQ(model_mask_names(0), "");
}

TEST(CommModel, CliqueBuildsCompleteLinksWhileGraphStaysInput) {
  const Graph input = graph::path(6);  // 5 edges
  const IdAssignment ids = IdAssignment::identity(6);
  Simulator sim(input, ids, CommModel::clique());
  // The object under test is untouched...
  EXPECT_EQ(&sim.graph(), &input);
  EXPECT_EQ(sim.graph().num_edges(), 5u);
  // ...but the link topology is K_6: every pair, degree n-1 everywhere.
  EXPECT_NE(&sim.comm_graph(), &input);
  EXPECT_EQ(sim.comm_graph().num_vertices(), 6u);
  EXPECT_EQ(sim.comm_graph().num_edges(), 15u);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(sim.comm_graph().degree(v), 5u);
  EXPECT_EQ(&sim.model(), &CommModel::clique());
}

TEST(CommModel, CongestCommunicatesOnTheInputGraph) {
  const Graph input = graph::cycle(7);
  const IdAssignment ids = IdAssignment::identity(7);
  Simulator congest_sim(input, ids);
  // No copy: the simulator communicates on the input graph itself.
  EXPECT_EQ(&congest_sim.comm_graph(), &input);
  EXPECT_EQ(&congest_sim.model(), &CommModel::congest());
}

/// Round 0: send one small message on every port; afterwards count what
/// arrives.
class Announcer final : public NodeProgram {
 public:
  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    if (ctx.round() == 0) {
      MessageWriter w;
      w.put_u64(ctx.my_id());
      ctx.send_all(w.finish());
      return;
    }
    heard_ += inbox.size();
  }
  std::size_t heard_ = 0;
};

TEST(CommModel, FactoryConstructorMatchesTopologyOnlyBuildPlusReset) {
  const Graph g = graph::cycle(9);
  const IdAssignment ids = IdAssignment::identity(9);
  const auto factory = [](Vertex) { return std::make_unique<Announcer>(); };
  Simulator with_factory(g, ids, factory);
  Simulator explicit_model(g, ids, CommModel::congest());
  explicit_model.reset(factory);
  const RunStats a = with_factory.run();
  const RunStats b = explicit_model.run();
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.max_link_bits, b.max_link_bits);
  EXPECT_EQ(a.halted, b.halted);
  for (Vertex v = 0; v < 9; ++v) {
    EXPECT_EQ(static_cast<const Announcer&>(with_factory.program(v)).heard_, 2u);
    EXPECT_EQ(static_cast<const Announcer&>(explicit_model.program(v)).heard_, 2u);
  }
}

}  // namespace
}  // namespace decycle::congest
