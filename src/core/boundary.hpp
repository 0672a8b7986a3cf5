// Boundary-condition library — §2 and §4 of the paper.
//
// Pochoir unifies periodic and nonperiodic stencils in one algorithm: the
// walker never special-cases the grid edge; instead, every off-domain read
// (which only the boundary clone can make) is routed to the array's
// registered boundary function.  This header provides the conditions used
// in the paper — periodic wrapping (Figure 6), constant and time-varying
// Dirichlet (Figure 11a), zero-derivative Neumann via clamping
// (Figure 11b) — plus per-dimension mixtures such as a cylinder.
//
// The built-in conditions (periodic, Dirichlet, Neumann, mixed, zero) are
// one value, BoundaryRule<T, D>: a BoundaryKind per dimension and the
// Dirichlet constant.  It is stored as is in the array's BoundaryFn, so
// Array::get calls it like any other function; a run whose arrays all hold
// a rule finds it there (boundary_rule) and the boundary clone's row view
// inlines it (views.hpp).  Any other BoundaryFn — a user lambda,
// dirichlet_boundary_fn, a DSL or pochoirc boundary — is called.
#pragma once

#include <array>
#include <cstdint>

#include "core/array.hpp"
#include "support/math_util.hpp"

namespace pochoir {

/// Kind of condition applied along one dimension by a BoundaryRule.
enum class BoundaryKind {
  kPeriodic,  ///< wrap modulo the extent
  kDirichlet, ///< constant value outside the domain
  kNeumann,   ///< zero derivative: clamp to the nearest edge point
};

/// The built-in conditions as one value: the kind of each dimension and the
/// constant of its kDirichlet dimensions.  Callable as a BoundaryFn.
template <typename T, int D>
struct BoundaryRule {
  std::array<BoundaryKind, D> kinds{};
  T dirichlet_value{};

  /// Maps an off-domain idx onto the grid in place, one dimension at a
  /// time (in-domain coordinates are kept).  Returns false when a
  /// kDirichlet dimension lies off the grid: the point then reads
  /// dirichlet_value.
  [[nodiscard]] bool map(const std::array<std::int64_t, D>& extents,
                         std::array<std::int64_t, D>& idx) const {
    for (std::size_t i = 0; i < D; ++i) {
      const std::int64_t n = extents[i];
      std::int64_t& v = idx[i];
      if (v >= 0 && v < n) continue;
      switch (kinds[i]) {
        case BoundaryKind::kPeriodic:
          v = mod_floor(v, n);
          break;
        case BoundaryKind::kNeumann:
          v = v < 0 ? 0 : n - 1;
          break;
        case BoundaryKind::kDirichlet:
          return false;
      }
    }
    return true;
  }

  T operator()(const Array<T, D>& a, std::int64_t t,
               const std::array<std::int64_t, D>& idx) const {
    std::array<std::int64_t, D> mapped = idx;
    return map(a.extents(), mapped) ? a.at(t, mapped) : dirichlet_value;
  }
};

/// The BoundaryRule registered on `a`, or nullptr when its boundary is any
/// other function (or none).
template <typename T, int D>
[[nodiscard]] const BoundaryRule<T, D>* boundary_rule(const Array<T, D>& a) {
  return a.boundary().template target<BoundaryRule<T, D>>();
}

/// Per-dimension mixture, e.g. a 2D cylinder = {kPeriodic, kDirichlet}.
/// `dirichlet_value` is used for dimensions of kind kDirichlet.
template <typename T, int D>
BoundaryFn<T, D> mixed_boundary(std::array<BoundaryKind, D> kinds,
                                T dirichlet_value = T{}) {
  return BoundaryRule<T, D>{kinds, dirichlet_value};
}

/// Periodic wrap-around in every dimension (Figure 6's heat_bv).
template <typename T, int D>
BoundaryFn<T, D> periodic_boundary() {
  std::array<BoundaryKind, D> kinds{};
  kinds.fill(BoundaryKind::kPeriodic);
  return mixed_boundary<T, D>(kinds);
}

/// Constant Dirichlet condition: off-domain points hold `value`.
template <typename T, int D>
BoundaryFn<T, D> dirichlet_boundary(T value) {
  std::array<BoundaryKind, D> kinds{};
  kinds.fill(BoundaryKind::kDirichlet);
  return mixed_boundary<T, D>(kinds, value);
}

/// Time-varying Dirichlet condition (Figure 11(a): `return 100 + 0.2*t;`).
/// `fn(t, idx)` computes the boundary value.
template <typename T, int D, typename F>
BoundaryFn<T, D> dirichlet_boundary_fn(F fn) {
  return [fn](const Array<T, D>&, std::int64_t t,
              const std::array<std::int64_t, D>& idx) -> T {
    return fn(t, idx);
  };
}

/// Zero-derivative Neumann condition: clamp coordinates to the domain edge
/// (Figure 11(b)).
template <typename T, int D>
BoundaryFn<T, D> neumann_boundary() {
  std::array<BoundaryKind, D> kinds{};
  kinds.fill(BoundaryKind::kNeumann);
  return mixed_boundary<T, D>(kinds);
}

/// Zero-valued Dirichlet shorthand.
template <typename T, int D>
BoundaryFn<T, D> zero_boundary() {
  return dirichlet_boundary<T, D>(T{});
}

}  // namespace pochoir
