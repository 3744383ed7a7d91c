/// \file deadlock_detection.cpp
/// \brief Distributed deadlock detection as k-cycle detection.
///
/// The paper's introduction points at deadlock detection in routing and
/// databases as the classical application of distributed cycle detection
/// (§1.3.4). This example models a lock manager: transactions and resources
/// form a wait-for network, and a deadlock involving j transactions shows up
/// as a 2j-cycle in the (bipartite) transaction-resource graph.
///
/// We build a random wait-for graph, optionally plant a deadlock ring of
/// configurable size, and let every lock-manager node run the paper's
/// tester; the witness cycle is then decoded back into "transaction T waits
/// for resource R held by ..." form.
///
///   ./deadlock_detection [--transactions=40] [--resources=40] [--waits=70]
///                        [--ring=4] [--seed=3]
#include <cstdio>
#include <string>

#include "core/detector.hpp"
#include "graph/graph.hpp"
#include "graph/subgraph.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using decycle::graph::Vertex;

std::string entity_name(Vertex v, Vertex transactions) {
  std::string name(v < transactions ? "T" : "R");
  name.append(std::to_string(v < transactions ? v : v - transactions));
  return name;
}

}  // namespace

int run(const decycle::util::Args& args) {
  using namespace decycle;
  const auto transactions = args.get<Vertex>("transactions", 40);
  const auto resources = args.get<Vertex>("resources", 40);
  const std::size_t waits = args.get<std::size_t>("waits", 70);
  const auto ring = args.get<unsigned>("ring", 4);  // deadlocked txns
  const std::uint64_t seed = args.get<std::uint64_t>("seed", 3);
  args.reject_unknown();

  util::Rng rng(seed);
  graph::GraphBuilder b(transactions + resources);

  // Random wait-for edges: transaction <-> resource relationships. A
  // bipartite graph like this only has even cycles; a cycle of length 2j is
  // exactly a deadlock among j transactions.
  for (std::size_t i = 0; i < waits; ++i) {
    const auto t = static_cast<Vertex>(rng.next_below(transactions));
    const auto r = static_cast<Vertex>(transactions + rng.next_below(resources));
    if (t + 1 == r) continue;  // keep planted ring edges unambiguous below
    b.add_edge(t, r);
  }

  // Plant a deadlock ring among the first `ring` transactions/resources:
  // T0 -> R0 -> T1 -> R1 -> ... -> T(ring-1) -> R(ring-1) -> T0.
  if (ring >= 2) {
    for (unsigned i = 0; i < ring; ++i) {
      b.add_edge(static_cast<Vertex>(i), static_cast<Vertex>(transactions + i));
      b.add_edge(static_cast<Vertex>((i + 1) % ring), static_cast<Vertex>(transactions + i));
    }
  }
  const graph::Graph g = b.build();
  const graph::IdAssignment ids = graph::IdAssignment::identity(g.num_vertices());

  const unsigned k = 2 * ring;  // deadlock among `ring` transactions = C_{2 ring}
  std::printf("wait-for graph: %u transactions, %u resources, %zu edges\n", transactions,
              resources, g.num_edges());
  std::printf("searching for deadlocks of %u transactions (C%u in the wait-for graph)\n", ring, k);

  core::DetectorOptions topt;
  topt.k = k;
  topt.epsilon = 0.05;
  topt.seed = seed;
  const auto verdict = core::DetectorRegistry::builtin().require("tester").run_fresh(g, ids, topt);

  if (verdict.accepted) {
    std::printf("no C%u deadlock detected (tester accepted; 1-sided: a real deadlock of this size "
                "would have been reported with its ring)\n", k);
    const bool truly_free = !graph::has_cycle(g, k);
    std::printf("exact oracle agrees: %s\n", truly_free ? "yes (C%u-free)" : "no (tester missed)");
    return 0;
  }

  std::printf("DEADLOCK: %zu lock managers raised alarms; validated ring:\n",
              verdict.rejecting_nodes);
  for (std::size_t i = 0; i < verdict.witness.size(); ++i) {
    const Vertex cur = verdict.witness[i];
    const Vertex next = verdict.witness[(i + 1) % verdict.witness.size()];
    std::printf("  %s waits on %s\n", entity_name(cur, transactions).c_str(),
                entity_name(next, transactions).c_str());
  }
  std::printf("(%llu CONGEST rounds, %zu messages)\n",
              static_cast<unsigned long long>(verdict.stats.rounds_executed),
              verdict.stats.total_messages);
  return 0;
}

int main(int argc, char** argv) {
  return decycle::util::run_main("example_deadlock_detection", argc, argv, run);
}
