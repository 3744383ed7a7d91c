/// \file claims.hpp
/// \brief Pass/fail bookkeeping for experiment binaries.
///
/// Each bench checks the paper's quantitative claims row by row (e.g.
/// "detection rate >= 2/3", "|S| <= (k-t+1)^(t-1)") and exits non-zero when
/// any claim fails, so `for b in build/bench/*; do $b; done` doubles as a
/// reproduction audit.
#pragma once

#include <string>
#include <vector>

namespace decycle::harness {

class ClaimSet {
 public:
  explicit ClaimSet(std::string experiment_name);

  /// Records one claim outcome; returns \p holds for inline use.
  bool check(const std::string& claim, bool holds);

  /// Prints "EXPERIMENT <name>: n/m claims hold" (+ failed claim list) to
  /// stdout and returns the process exit code (0 iff all claims hold).
  int summarize() const;

 private:
  std::string name_;
  std::size_t total_ = 0;
  std::size_t failures_ = 0;
  std::vector<std::string> failed_claims_;
};

}  // namespace decycle::harness
