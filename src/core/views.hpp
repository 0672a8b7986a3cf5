// Kernel views: the library-form of Pochoir's code cloning (§4).
//
// The Pochoir compiler clones the user kernel into a fast *interior* clone
// (no boundary checks) and a slower *boundary* clone (checked accesses that
// may call the boundary function).  Here the user writes one generic kernel
//
//     auto kern = [](int64_t t, int64_t x, int64_t y, auto u) {
//       u(t+1, x, y) = ... u(t, x-1, y) ...;
//     };
//
// and the stencil's leaf instantiates it with one row-view template,
// RowView<T, D, Check>, built once per unit-stride row.  The check policy
// makes the clones:
//   Unchecked     the interior clone (InteriorRowView): direct loads and
//                 stores off the row's hoisted time-level addresses
//   InlineRule    the boundary clone when every array holds a built-in
//                 condition (BoundaryRule, boundary.hpp): a read tests the
//                 domain, D unsigned compares, and an off-domain read maps
//                 through the rule inlined
//   CallBoundary  the boundary clone otherwise: an off-domain read calls
//                 the array's BoundaryFn
// Because every view type exposes the same expression interface, a kernel
// that compiles against a checked view compiles against the unchecked one
// — the library-level restatement of the Pochoir Guarantee.
//
// Every checked access goes through one proxy, CheckedRef (array.hpp).
// The checked row views hand it out over themselves; the per-point view
// template CheckedView<T, D, Hook> hands it out over the array, and its
// paths differ only in the hook that runs before each access:
//   NoHook        BoundaryView: the checked-everywhere reference
//                 (run_loops_checked_everywhere) and the §4 ablation
//   TouchHook     the traced runs: in-domain touches go to a cache sink
//   ShapeHook     the Phase-1 compliance runs: shape and home-cell checks
// Array::operator() hands out the same proxy with an in-domain write check.
//
// For struct-valued cells (e.g. the LBM distribution record), use the
// read()/write() methods, which every view shares.
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>

#include "core/array.hpp"
#include "core/boundary.hpp"
#include "core/shape.hpp"
#include "support/assertion.hpp"

namespace pochoir {

/// Hook of a proxy that needs none: nothing runs before an access beyond
/// the source's own checks (get's boundary routing, at's debug-build
/// in-domain assert).
struct NoHook {
  template <typename A, typename Idx>
  void operator()(const A&, std::int64_t, const Idx&, bool) const {}
};

/// Check policies of RowView (see the header comment).
struct Unchecked {};
struct InlineRule {};
struct CallBoundary {};

/// The row clones' view, constructed once per unit-stride row: it resolves
/// the row's circular-time window ONCE (one mod_floor into the array's
/// level-offset table, any depth), so each access in the inner loop is a
/// table lookup plus a linear offset the compiler strength-reduces — the
/// library analogue of the hoisted pointers in the compiler's
/// -split-pointer postsource (Figure 12(c)).  Unchecked, an access is a
/// T&; checked, it is a CheckedRef whose read tests the domain first.
/// Writes always target the home point, which the walker keeps in-domain.
///
/// `home_dt` anchors the reachable window: a kernel invoked at time t only
/// touches t+dt for dt in [home_dt - depth, home_dt] (shape rule: reads are
/// strictly earlier than the written cell), i.e. exactly time_levels()
/// distinct absolute times.  `rule` is the array's BoundaryRule; only
/// InlineRule views use it.
template <typename T, int D, typename Check = Unchecked>
class RowView {
 public:
  static constexpr bool kChecked = !std::is_same_v<Check, Unchecked>;

  RowView(Array<T, D>& a, std::int64_t t_row, std::int64_t home_dt,
          const BoundaryRule<T, D>* rule = nullptr)
      : a_(&a),
        base_(a.data()),
        t_lo_(t_row + home_dt - a.time_levels() + 1),
        level_offset_(a.level_offsets() + mod_floor(t_lo_, a.time_levels())),
        rule_(rule) {
    if constexpr (std::is_same_v<Check, InlineRule>) {
      POCHOIR_DEBUG_ASSERT(rule != nullptr);
    }
    for (int i = 0; i < D; ++i) {
      strides_[static_cast<std::size_t>(i)] = a.stride(i);
      if constexpr (kChecked) {
        extents_[static_cast<std::size_t>(i)] = a.extent(i);
      }
    }
  }

  /// Pointer-sized proxy handed to kernels.  Kernels take views by value
  /// per invocation; copying the full row view per point would drown the
  /// win, so the kernel-facing object is one pointer into the row-lifetime
  /// view.
  class Handle {
   public:
    explicit Handle(const RowView* v) : v_(v) {}

    template <typename... Idx>
    [[nodiscard]] decltype(auto) operator()(std::int64_t t, Idx... i) const {
      return (*v_)(t, i...);
    }
    template <typename... Idx>
    [[nodiscard]] T read(std::int64_t t, Idx... i) const {
      return v_->read(t, i...);
    }
    template <typename... Rest>
    void write(std::int64_t t, Rest... rest) const {
      v_->write(t, rest...);
    }
    [[nodiscard]] Array<T, D>& array() const { return v_->array(); }

   private:
    const RowView* v_;
  };

  [[nodiscard]] Handle handle() const { return Handle(this); }

  template <typename... Idx>
  [[nodiscard]] decltype(auto) operator()(std::int64_t t, Idx... i) const {
    static_assert(sizeof...(Idx) == D);
    const std::array<std::int64_t, D> idx{static_cast<std::int64_t>(i)...};
    if constexpr (kChecked) {
      return CheckedRef<T, D, NoHook, const RowView>(*this, {}, t, idx);
    } else {
      return at(t, idx);
    }
  }

  template <typename... Idx>
  [[nodiscard]] T read(std::int64_t t, Idx... i) const {
    return get(t, std::array<std::int64_t, D>{static_cast<std::int64_t>(i)...});
  }

  /// write(t, idx..., value)
  template <typename... Rest>
  void write(std::int64_t t, Rest... rest) const {
    write_impl(t, std::make_index_sequence<sizeof...(Rest) - 1>{}, rest...);
  }

  [[nodiscard]] Array<T, D>& array() const { return *a_; }

  /// Storage of (t, idx); idx must lie in the domain.
  [[nodiscard]] T& at(std::int64_t t,
                      const std::array<std::int64_t, D>& idx) const {
    if constexpr (kChecked) POCHOIR_DEBUG_ASSERT(in_domain(idx));
    return *(level_ptr(t) + spatial_offset(idx));
  }

  /// Read of (t, idx): checked views serve an off-domain point from the
  /// array's boundary.
  [[nodiscard]] T get(std::int64_t t,
                      const std::array<std::int64_t, D>& idx) const {
    if constexpr (kChecked) {
      if (!in_domain(idx)) return off_domain(t, idx);
    }
    return at(t, idx);
  }

 private:
  [[nodiscard]] T* level_ptr(std::int64_t t) const {
    POCHOIR_DEBUG_ASSERT(t >= t_lo_ && t < t_lo_ + a_->time_levels());
    return base_ + level_offset_[t - t_lo_];
  }

  [[nodiscard]] std::int64_t spatial_offset(
      const std::array<std::int64_t, D>& idx) const {
    std::int64_t off = 0;
    for (int i = 0; i < D; ++i) {
      off += idx[static_cast<std::size_t>(i)] * strides_[static_cast<std::size_t>(i)];
    }
    return off;
  }

  [[nodiscard]] bool in_domain(const std::array<std::int64_t, D>& idx) const {
    for (std::size_t i = 0; i < D; ++i) {
      if (static_cast<std::uint64_t>(idx[i]) >=
          static_cast<std::uint64_t>(extents_[i])) {
        return false;
      }
    }
    return true;
  }

  /// An off-domain read: the rule mapped onto this row's time window, or
  /// Array::get, which calls the registered BoundaryFn.
  [[nodiscard]] T off_domain(std::int64_t t,
                             const std::array<std::int64_t, D>& idx) const {
    if constexpr (std::is_same_v<Check, InlineRule>) {
      std::array<std::int64_t, D> mapped = idx;
      return rule_->map(extents_, mapped) ? at(t, mapped)
                                          : rule_->dirichlet_value;
    } else {
      return a_->get(t, idx);
    }
  }

  template <std::size_t... Is, typename... Rest>
  void write_impl(std::int64_t t, std::index_sequence<Is...>, Rest... rest) const {
    auto tuple = std::forward_as_tuple(rest...);
    std::array<std::int64_t, D> idx{
        static_cast<std::int64_t>(std::get<Is>(tuple))...};
    at(t, idx) = std::get<sizeof...(Rest) - 1>(tuple);
  }

  Array<T, D>* a_;
  T* base_;
  std::int64_t t_lo_;
  const std::int64_t* level_offset_;  // entry k: offset of time t_lo_ + k
  const BoundaryRule<T, D>* rule_;
  std::array<std::int64_t, D> strides_{};
  std::array<std::int64_t, D> extents_{};
};

/// The interior clone's view: unchecked.
template <typename T, int D>
using InteriorRowView = RowView<T, D, Unchecked>;

/// Checked view: hands the kernel one CheckedRef per access, each carrying
/// a copy of the view's hook.  read() and write() go through the same
/// proxy, so every access path of a view runs its hook.
template <typename T, int D, typename Hook = NoHook>
class CheckedView {
 public:
  explicit CheckedView(Array<T, D>& a, Hook hook = {}) : a_(&a), hook_(hook) {}

  template <typename... Idx>
  [[nodiscard]] CheckedRef<T, D, Hook> operator()(std::int64_t t,
                                                  Idx... i) const {
    static_assert(sizeof...(Idx) == D);
    return {*a_, hook_, t,
            std::array<std::int64_t, D>{static_cast<std::int64_t>(i)...}};
  }

  template <typename... Idx>
  [[nodiscard]] T read(std::int64_t t, Idx... i) const {
    return operator()(t, i...).value();
  }

  /// write(t, idx..., value)
  template <typename... Rest>
  void write(std::int64_t t, Rest... rest) const {
    write_impl(t, std::make_index_sequence<sizeof...(Rest) - 1>{}, rest...);
  }

  [[nodiscard]] Array<T, D>& array() const { return *a_; }

 private:
  template <std::size_t... Is, typename... Rest>
  void write_impl(std::int64_t t, std::index_sequence<Is...>, Rest... rest) const {
    auto tuple = std::forward_as_tuple(rest...);
    operator()(t, std::get<Is>(tuple)...) =
        std::get<sizeof...(Rest) - 1>(tuple);
  }

  Array<T, D>* a_;
  [[no_unique_address]] Hook hook_;
};

/// The per-point checked view: reads route off-domain coordinates to the
/// boundary function through Array::get.  The checked-everywhere
/// reference and the §4 ablation read through it.
template <typename T, int D>
using BoundaryView = CheckedView<T, D>;

/// Hook of the traced runs: records every in-domain memory touch in a Sink
/// (e.g. the ideal-cache simulator).  Off-domain reads go through the
/// boundary function and are not traced (they are O(surface) rare).
template <typename Sink>
struct TouchHook {
  Sink* sink;

  template <typename T, int D, typename Idx>
  void operator()(Array<T, D>& a, std::int64_t t, const Idx& idx,
                  bool is_write) const {
    if (is_write || a.in_domain(idx)) sink->touch(&a.at(t, idx), sizeof(T));
  }
};

/// Hook of the Phase-1 compliance runs: every access must match a cell of
/// the declared shape relative to the kernel's home point ("the Pochoir
/// template library complains ... if an access falls outside the region
/// specified by the shape declaration").  Writes must target the home cell.
template <int D>
struct ShapeHook {
  const Shape<D>* shape;
  std::int64_t home_t;
  std::array<std::int64_t, D> home;

  template <typename T>
  void operator()(const Array<T, D>&, std::int64_t t,
                  const std::array<std::int64_t, D>& idx, bool is_write) const {
    std::array<std::int64_t, D> dx{};
    for (int i = 0; i < D; ++i) dx[i] = idx[i] - home[i];
    const std::int64_t dt = t - home_t;
    if (is_write) {
      POCHOIR_ASSERT_MSG(dt == shape->home_dt(),
                         "kernel write does not target the home cell's time");
      for (int i = 0; i < D; ++i) {
        POCHOIR_ASSERT_MSG(dx[i] == 0, "kernel write is spatially off-home");
      }
      return;
    }
    POCHOIR_ASSERT_MSG(shape->contains_offset(dt, dx),
                       "kernel access outside the declared Pochoir shape");
  }
};

}  // namespace pochoir
