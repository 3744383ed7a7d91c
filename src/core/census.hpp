/// \file census.hpp
/// \brief Multi-k cycle census built on the tester.
///
/// Applications rarely care about a single k: motif analysis, deadlock
/// monitoring and girth probing all sweep a range. The census runs the full
/// tester for each k in [k_min, k_max] (fresh seeds per k) and aggregates
/// verdicts, witnesses and communication totals. Soundness composes: a
/// census row can only report a cycle that exists; acceptance rows inherit
/// the per-k property-testing guarantee.
#pragma once

#include <vector>

#include "core/detector.hpp"

namespace decycle::core {

struct CensusOptions {
  unsigned k_min = 3;
  unsigned k_max = 8;
  double epsilon = 0.1;
  std::uint64_t seed = 1;
  std::size_t repetitions = 0;  ///< 0 = recommended_repetitions(epsilon) per k
  DetectParams detect;
};

struct CensusEntry {
  unsigned k = 0;
  bool accepted = true;
  std::vector<graph::Vertex> witness;  ///< validated cycle when rejected
  std::uint64_t rounds = 0;
  std::size_t messages = 0;
  std::uint64_t bits = 0;
};

struct CensusResult {
  std::vector<CensusEntry> entries;  ///< one per k, ascending
  std::uint64_t total_rounds = 0;
  std::size_t total_messages = 0;

  [[nodiscard]] bool any_rejected() const noexcept {
    for (const auto& e : entries) {
      if (!e.accepted) return true;
    }
    return false;
  }

  /// Smallest k whose tester rejected (a girth upper bound), or 0.
  [[nodiscard]] unsigned smallest_detected() const noexcept {
    for (const auto& e : entries) {
      if (!e.accepted) return e.k;
    }
    return 0;
  }
};

[[nodiscard]] CensusResult cycle_census(const graph::Graph& g, const graph::IdAssignment& ids,
                                        const CensusOptions& options);

}  // namespace decycle::core
