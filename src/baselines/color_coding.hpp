/// \file color_coding.hpp
/// \brief Centralized color-coding k-cycle detection (Alon–Yuster–Zwick).
///
/// The classical sequential comparison point: color vertices uniformly with
/// k colors; a k-cycle survives as a "colorful" cycle with probability
/// k!/k^k >= e^-k, and colorful cycles are found in O(m·2^k) by dynamic
/// programming over color subsets. Repeating ⌈e^k·ln(1/δ)⌉ times gives
/// failure probability δ; the implementation is one-sided (a reported cycle
/// is always validated and real).
///
/// Used by experiment B1 as the centralized reference the distributed tester
/// is measured against, and by tests as an independent exact-ish oracle.
#pragma once

#include <cstddef>
#include <memory>

#include "core/detector.hpp"

namespace decycle::baselines {

/// The registry's "color_coding" (core::DetectorRegistry::builtin()):
/// searches sim.graph() for any Ck with DetectorOptions::repetitions
/// colorings (0 = color_coding_iterations(k, 1/3)), stopping at the first
/// colorful cycle. One-sided: a rejection always carries a real, validated
/// cycle; an accept may be a false negative with probability <=
/// (1-k!/k^k)^iterations. Verdict::repetitions is the iteration budget and
/// the iterations_total counter the colorings actually run.
[[nodiscard]] std::unique_ptr<core::Detector> make_color_coding_detector();

/// Number of iterations for failure probability delta.
[[nodiscard]] std::size_t color_coding_iterations(unsigned k, double delta) noexcept;

}  // namespace decycle::baselines
