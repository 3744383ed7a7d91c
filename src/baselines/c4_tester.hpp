/// \file c4_tester.hpp
/// \brief C4-freeness tester in the style of Fraigniaud, Rapaport, Salo and
/// Todinca (DISC 2016) — reference [20].
///
/// A C4 is two "cherries" (paths a-v-b and a-w-b) on the same endpoint pair
/// {a, b}. Per iteration (1 CONGEST round): every node with degree >= 2
/// picks a random pair of neighbors {a, b} and reports it to the smaller-ID
/// endpoint (which is adjacent, being a chosen neighbor). A node receiving
/// the same pair from two distinct senders v, w has found the C4 (v,a,w,b).
/// O(1/ε²) iterations on ε-far instances, per [20].
///
/// This baseline exists for experiment B1: the paper's algorithm at k=4
/// versus the specialized tester whose technique provably fails for k >= 5.
#pragma once

#include <memory>

#include "core/detector.hpp"

namespace decycle::baselines {

/// The registry's "c4" (core::DetectorRegistry::builtin()): k = 4 only;
/// DetectorOptions::repetitions iterations (0 = 64).
[[nodiscard]] std::unique_ptr<core::Detector> make_c4_detector();

}  // namespace decycle::baselines
