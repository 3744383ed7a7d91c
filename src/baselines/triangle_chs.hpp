/// \file triangle_chs.hpp
/// \brief Triangle (C3) freeness tester in the style of Censor-Hillel,
/// Fischer, Schwartzman and Vasudev (DISC 2016) — reference [7].
///
/// Per iteration (2 CONGEST rounds): every node with degree >= 2 picks two
/// random neighbors a, b and asks a whether b is adjacent to it; a answers
/// from its neighbor table (KT1). A "yes" exposes the triangle (v, a, b).
/// On graphs ε-far from triangle-freeness there are >= εm/3 edge-disjoint
/// triangles (Lemma 4), and a triangle (v,a,b) is found by v with
/// probability >= 2/deg(v)², giving the O(1/ε²)-round behaviour of [7].
///
/// This baseline exists for experiment B1: the paper's algorithm at k=3
/// versus the specialized tester it generalizes.
#pragma once

#include <memory>

#include "core/detector.hpp"

namespace decycle::baselines {

/// The registry's "triangle" (core::DetectorRegistry::builtin()): k = 3
/// only; DetectorOptions::repetitions iterations (0 = 64).
[[nodiscard]] std::unique_ptr<core::Detector> make_triangle_detector();

}  // namespace decycle::baselines
