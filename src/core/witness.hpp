/// \file witness.hpp
/// \brief Witness-cycle validation: 1-sided error as a runtime invariant.
///
/// The paper's tester is 1-sided: a rejection must imply a real k-cycle. The
/// harness enforces this mechanically — every rejecting node's witness pair
/// is assembled into an explicit cycle and checked edge-by-edge against the
/// input graph. A failed validation throws, so a soundness bug can never
/// masquerade as a successful detection in any test or experiment table.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ids.hpp"

namespace decycle::core {

/// Maps a cyclic ID sequence onto vertices and verifies it is a genuine
/// simple cycle of g: k distinct vertices, all k closing edges present.
/// Throws util::CheckError when the witness is bogus.
[[nodiscard]] std::vector<graph::Vertex> validated_witness_vertices(
    const graph::Graph& g, const graph::IdAssignment& ids, std::span<const graph::NodeId> cycle_ids);

}  // namespace decycle::core
