// Execution options: base-case coarsening thresholds and algorithm choice.
//
// §4 of the paper: running the recursion down to single grid points costs
// ~36x on the 2D heat equation, so the base case is coarsened.  Pochoir's
// heuristics, reproduced here: 2D stops at 100x100 space chunks with 5 time
// steps; for >= 3 dimensions the unit-stride dimension is never cut (to
// preserve hardware prefetching) and the others stop at small widths with
// 3 time steps.  An ISAT-style autotuner (autotune.hpp) can replace the
// heuristics with measured values.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace pochoir {

/// Which algorithm executes a Stencil::run-family call.
enum class Algorithm {
  kTrap,          ///< TRAP: hyperspace cuts (the paper's contribution)
  kStrap,         ///< STRAP: TRAP cutting one dimension per space cut
                  ///< (Frigo-Strumpen-style serial space cuts)
  kLoopsParallel, ///< parallel loop nest (cilk_for equivalent)
  kLoopsSerial,   ///< serial loop nest
};

/// Coarsening thresholds for the trapezoidal recursion.
template <int D>
struct Options {
  /// Largest base-case height; recursion time-cuts while height exceeds it.
  std::int64_t dt_threshold = 1;
  /// Largest base-case width per dimension; a dimension is never space-cut
  /// once its width is at or below its threshold.
  std::array<std::int64_t, D> dx_threshold{};

  static constexpr std::int64_t kNeverCut =
      std::numeric_limits<std::int64_t>::max() / 4;

  /// Fully uncoarsened recursion (used by the Figure 9/10 experiments).
  static Options uncoarsened() {
    Options o;
    o.dt_threshold = 1;
    o.dx_threshold.fill(1);
    return o;
  }

  /// The paper's coarsening heuristics (§4).
  static Options heuristic() {
    Options o;
    if constexpr (D == 1) {
      o.dt_threshold = 32;
      o.dx_threshold = {2048};
    } else if constexpr (D == 2) {
      o.dt_threshold = 5;
      o.dx_threshold.fill(100);
    } else {
      // "for 3 or more dimensions ... never cutting the unit-stride spatial
      //  dimension, and it cuts the rest ... into small hypercubes"
      o.dt_threshold = 3;
      o.dx_threshold.fill(3);
      o.dx_threshold[D - 1] = kNeverCut;
    }
    return o;
  }
};

}  // namespace pochoir
