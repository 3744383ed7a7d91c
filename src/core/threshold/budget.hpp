/// \file budget.hpp
/// \brief Per-round message budgets for the threshold detection family.
///
/// A threshold algorithm bounds its congestion explicitly: every link may
/// carry at most B(g) sequences in phase round g, and a node tracks at most
/// T concurrent edge executions. The schedule below is the B(g) part —
/// a per-round list of caps whose last entry repeats for all later rounds,
/// so "16" is a flat budget and "4,8,16" front-loads the squeeze where the
/// early rounds are cheap. An empty schedule means unlimited (the exhaustive
/// regime the oracle cross-test pins against the exact DFS oracle).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace decycle::core::threshold {

/// Sequences-per-link-per-round caps. Index g is the phase round the bundle
/// is broadcast in (0 = the seed round); past the end the last value holds.
struct BudgetSchedule {
  /// Empty = unlimited on every round. Entries are >= 1 (a zero-entry
  /// schedule would silence the algorithm and is rejected by parse()).
  std::vector<std::size_t> per_round;

  /// Cap for phase round \p g; 0 means unlimited.
  [[nodiscard]] std::size_t at(std::uint64_t g) const noexcept {
    if (per_round.empty()) return 0;
    const std::size_t idx = g < per_round.size() ? static_cast<std::size_t>(g)
                                                 : per_round.size() - 1;
    return per_round[idx];
  }

  [[nodiscard]] bool unlimited() const noexcept { return per_round.empty(); }

  [[nodiscard]] static BudgetSchedule none() { return {}; }
  [[nodiscard]] static BudgetSchedule constant(std::size_t cap) {
    BudgetSchedule out;
    if (cap != 0) out.per_round.push_back(cap);
    return out;
  }

  /// Parses a budget token: `none` (or `0`) for unlimited, `16` for a flat
  /// cap, `4,8,16` for a per-round schedule (last value repeats). Any other
  /// token is a util/kv.hpp integer list of entries in [1, 2^20] (a zero
  /// entry would silence the algorithm; a cap above 2^20 would defeat the
  /// point of a threshold algorithm); throws util::ParseError otherwise.
  [[nodiscard]] static BudgetSchedule parse(std::string_view token);

  /// Canonical token form (round-trips through parse()).
  [[nodiscard]] std::string name() const;

  friend bool operator==(const BudgetSchedule&, const BudgetSchedule&) = default;
};

}  // namespace decycle::core::threshold
