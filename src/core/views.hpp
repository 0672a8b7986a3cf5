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
// and the stencil's leaf instantiates it twice: with InteriorRowView, once
// per unit-stride row of the interior clone (unchecked, compiles to direct
// loads/stores off hoisted time-level addresses), and with BoundaryView for
// the boundary clone.  Because both view types expose the same expression
// interface, a kernel that compiles against the checked view compiles
// against the unchecked one — the library-level restatement of the Pochoir
// Guarantee.
//
// Every checked access goes through one proxy, CheckedRef (array.hpp),
// handed out by one view template, CheckedView<T, D, Hook>.  The paths
// differ only in the hook that runs before each access:
//   NoHook        the boundary clone (BoundaryView)
//   TouchHook     the traced runs: in-domain touches go to a cache sink
//   ShapeHook     the Phase-1 compliance runs: shape and home-cell checks
// Array::operator() hands out the same proxy with an in-domain write check.
//
// For struct-valued cells (e.g. the LBM distribution record), use the
// read()/write() methods, which every view shares.
#pragma once

#include <array>
#include <cstdint>

#include "core/array.hpp"
#include "core/shape.hpp"
#include "support/assertion.hpp"

namespace pochoir {

/// Unchecked view with row-granularity address hoisting: the interior
/// clone's access path used by the row-walking base case.  Constructed once
/// per unit-stride row, it resolves the row's circular-time window ONCE (one
/// mod_floor into the array's level-offset table, any depth), so each access
/// in the inner loop is a table lookup plus a linear offset the compiler
/// strength-reduces — the library analogue of the hoisted pointers in the
/// compiler's -split-pointer postsource (Figure 12(c)).
///
/// `home_dt` anchors the reachable window: a kernel invoked at time t only
/// touches t+dt for dt in [home_dt - depth, home_dt] (shape rule: reads are
/// strictly earlier than the written cell), i.e. exactly time_levels()
/// distinct absolute times.
template <typename T, int D>
class InteriorRowView {
 public:
  InteriorRowView(Array<T, D>& a, std::int64_t t_row, std::int64_t home_dt)
      : a_(&a),
        base_(a.data()),
        t_lo_(t_row + home_dt - a.time_levels() + 1),
        level_offset_(a.level_offsets() + mod_floor(t_lo_, a.time_levels())) {
    for (int i = 0; i < D; ++i) strides_[static_cast<std::size_t>(i)] = a.stride(i);
  }

  /// Pointer-sized proxy handed to kernels.  Kernels take views by value
  /// per invocation; copying the full row view per point would drown the
  /// win, so the kernel-facing object is one pointer into the row-lifetime
  /// view.
  class Handle {
   public:
    explicit Handle(const InteriorRowView* v) : v_(v) {}

    template <typename... Idx>
    [[nodiscard]] T& operator()(std::int64_t t, Idx... i) const {
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
    const InteriorRowView* v_;
  };

  [[nodiscard]] Handle handle() const { return Handle(this); }

  template <typename... Idx>
  [[nodiscard]] T& operator()(std::int64_t t, Idx... i) const {
    static_assert(sizeof...(Idx) == D);
    return *(level_ptr(t) +
             spatial_offset(std::array<std::int64_t, D>{
                 static_cast<std::int64_t>(i)...}));
  }

  template <typename... Idx>
  [[nodiscard]] T read(std::int64_t t, Idx... i) const {
    return operator()(t, i...);
  }

  /// write(t, idx..., value)
  template <typename... Rest>
  void write(std::int64_t t, Rest... rest) const {
    write_impl(t, std::make_index_sequence<sizeof...(Rest) - 1>{}, rest...);
  }

  [[nodiscard]] Array<T, D>& array() const { return *a_; }

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

  template <std::size_t... Is, typename... Rest>
  void write_impl(std::int64_t t, std::index_sequence<Is...>, Rest... rest) const {
    auto tuple = std::forward_as_tuple(rest...);
    std::array<std::int64_t, D> idx{
        static_cast<std::int64_t>(std::get<Is>(tuple))...};
    *(level_ptr(t) + spatial_offset(idx)) = std::get<sizeof...(Rest) - 1>(tuple);
  }

  Array<T, D>* a_;
  T* base_;
  std::int64_t t_lo_;
  const std::int64_t* level_offset_;  // entry k: offset of time t_lo_ + k
  std::array<std::int64_t, D> strides_{};
};

/// Hook of the boundary clone: nothing runs before an access beyond
/// Array's own checks (get's boundary routing, at's debug-build in-domain
/// assert).
struct NoHook {
  template <typename A, typename Idx>
  void operator()(const A&, std::int64_t, const Idx&, bool) const {}
};

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

/// The boundary clone's access path: reads route off-domain coordinates to
/// the boundary function; writes always target the home point, which the
/// walker guarantees is in-domain.
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
