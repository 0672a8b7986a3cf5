// Pochoir arrays — §2 of the paper (Pochoir_Array_dimD).
//
// An Array<T, D> is a D-dimensional spatial grid with a circular temporal
// dimension of depth+1 levels (times are reused modulo depth+1 as the
// computation proceeds).  Storage is row-major with the last spatial
// dimension unit-stride, 64-byte aligned, and owned by the array (the
// paper's copy-in/copy-out design keeps layout under library control).
//
// Access paths:
//   at(t, i...)        unchecked reference         (the "interior" path)
//   get(t, i...)       checked read; off-domain coordinates are served by
//                      the array's boundary function (the "boundary" path)
//   operator()(t,i...) CheckedRef, the library's one checked read/write
//                      proxy (the Phase-1 semantics of Figure 6).  It
//                      reads through get() and writes through at(), and a
//                      hook runs before each access: here it asserts, in
//                      every build, that writes land in-domain.  The
//                      per-point kernel views (views.hpp) hand out the
//                      same proxy with their own hooks.
// The stencil's leaf reads neither per access: its row views (views.hpp)
// resolve the circular time once per row through level_offsets(), and the
// boundary clone's view repeats get()'s domain test itself, calling the
// boundary function only for a boundary that is not a BoundaryRule
// (boundary.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/aligned_buffer.hpp"
#include "support/assertion.hpp"
#include "support/error.hpp"
#include "support/math_util.hpp"

namespace pochoir {

template <typename T, int D>
class Array;

/// Boundary function: supplies the value of off-domain grid points.
/// Equivalent to the paper's Pochoir_Boundary_dimD construct.
template <typename T, int D>
using BoundaryFn = std::function<T(const Array<T, D>&, std::int64_t,
                                   const std::array<std::int64_t, D>&)>;

/// Read/write proxy for one grid point of `source`: the Array itself or a
/// checked row view (views.hpp).  hook(source, t, idx, is_write) runs
/// before every access; reads then go through source.get (off-domain
/// points are served by the boundary) and writes through source.at.
/// Compound assignments read, then write.
template <typename T, int D, typename Hook, typename Source = Array<T, D>>
class CheckedRef {
 public:
  CheckedRef(Source& source, Hook hook, std::int64_t t,
             std::array<std::int64_t, D> idx)
      : source_(&source), hook_(hook), t_(t), idx_(idx) {}

  operator T() const {  // NOLINT(google-explicit-constructor)
    hook_(*source_, t_, idx_, /*is_write=*/false);
    return source_->get(t_, idx_);
  }

  CheckedRef& operator=(const T& v) {
    hook_(*source_, t_, idx_, /*is_write=*/true);
    source_->at(t_, idx_) = v;
    return *this;
  }
  CheckedRef& operator=(const CheckedRef& other) {
    return *this = static_cast<T>(other);
  }
  CheckedRef& operator+=(const T& v) { return *this = static_cast<T>(*this) + v; }
  CheckedRef& operator-=(const T& v) { return *this = static_cast<T>(*this) - v; }
  CheckedRef& operator*=(const T& v) { return *this = static_cast<T>(*this) * v; }

  /// Explicit value read (useful where implicit conversion is awkward).
  [[nodiscard]] T value() const { return static_cast<T>(*this); }

 private:
  Source* source_;
  [[no_unique_address]] Hook hook_;
  std::int64_t t_;
  std::array<std::int64_t, D> idx_;
};

/// CheckedRef hook of Array::operator(): writes must land in-domain.
struct WriteInDomainHook {
  template <typename A, typename Idx>
  void operator()(const A& a, std::int64_t, const Idx& idx,
                  bool is_write) const {
    POCHOIR_ASSERT_MSG(!is_write || a.in_domain(idx),
                       "write outside the domain");
  }
};

template <typename T, int D>
class Array {
 public:
  using value_type = T;
  static constexpr int kDims = D;

  /// Convenience constructor with sizes in natural order and depth 1:
  /// Array<double, 2> u(X, Y);
  template <typename... Sz>
    requires(sizeof...(Sz) == D && (std::is_integral_v<Sz> && ...))
  explicit Array(Sz... sizes)
      : Array(std::array<std::int64_t, D>{static_cast<std::int64_t>(sizes)...},
              1) {}

  /// Brace-friendly constructor: Array<double, 2> u({X, Y}, depth).
  Array(std::initializer_list<std::int64_t> extents, std::int64_t depth = 1)
      : Array(to_extents(extents), depth) {}

  /// Creates a grid with the given spatial extents and temporal depth
  /// (depth+1 circular time levels; depth must match the stencil shape).
  /// Constructor misuse (non-positive extents or depth, or a size that
  /// overflows) throws pochoir::Error — it is user input, not an internal
  /// invariant.
  explicit Array(std::array<std::int64_t, D> extents, std::int64_t depth = 1)
      : extents_(extents), levels_(checked_levels(depth)) {
    std::int64_t stride = 1;
    for (int i = D - 1; i >= 0; --i) {
      detail::check_usage(extents_[static_cast<std::size_t>(i)] >= 1,
                          "array extents must be positive");
      strides_[static_cast<std::size_t>(i)] = stride;
      stride = checked_product(stride, extents_[static_cast<std::size_t>(i)]);
    }
    level_size_ = stride;
    storage_ = AlignedBuffer<T>(
        static_cast<std::size_t>(checked_product(level_size_, levels_)));
    level_offsets_.resize(static_cast<std::size_t>(2 * levels_));
    for (std::int64_t k = 0; k < 2 * levels_; ++k) {
      level_offsets_[static_cast<std::size_t>(k)] = (k % levels_) * level_size_;
    }
  }

  /// Extent of spatial dimension i in natural order (0 = outermost,
  /// D-1 = unit stride).
  [[nodiscard]] std::int64_t extent(int i) const {
    return extents_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const std::array<std::int64_t, D>& extents() const {
    return extents_;
  }

  /// Paper-compatible size(i): dimension indices count from the
  /// unit-stride dimension upward, so size(0) == extent(D-1).
  [[nodiscard]] std::int64_t size(int i) const { return extent(D - 1 - i); }

  /// Number of circular time levels (stencil depth + 1).
  [[nodiscard]] std::int64_t time_levels() const { return levels_; }

  /// Grid points per time level.
  [[nodiscard]] std::int64_t level_size() const { return level_size_; }

  /// Storage offsets of the circular time levels, listed twice:
  /// level_offsets()[k] == (k mod time_levels()) * level_size() for k in
  /// [0, 2 * time_levels()).  Starting at mod_floor(t, time_levels()), the
  /// next time_levels() entries serve times t, t+1, ... with no further
  /// modulo — the row views resolve one start per row.
  [[nodiscard]] const std::int64_t* level_offsets() const {
    return level_offsets_.data();
  }

  /// Element stride of spatial dimension i.
  [[nodiscard]] std::int64_t stride(int i) const {
    return strides_[static_cast<std::size_t>(i)];
  }

  /// Base pointer of the backing store (time level 0, origin).
  [[nodiscard]] T* data() { return storage_.data(); }
  [[nodiscard]] const T* data() const { return storage_.data(); }

  /// Total elements across all time levels.
  [[nodiscard]] std::int64_t total_size() const { return level_size_ * levels_; }

  /// True if idx lies inside the spatial domain.
  [[nodiscard]] bool in_domain(const std::array<std::int64_t, D>& idx) const {
    for (int i = 0; i < D; ++i) {
      const auto u = static_cast<std::uint64_t>(idx[static_cast<std::size_t>(i)]);
      if (u >= static_cast<std::uint64_t>(extents_[static_cast<std::size_t>(i)])) {
        return false;
      }
    }
    return true;
  }

  /// Linear element index of (t, idx) in the backing store.
  [[nodiscard]] std::int64_t linear_index(
      std::int64_t t, const std::array<std::int64_t, D>& idx) const {
    return wrap_time(t) * level_size_ + spatial_offset(idx);
  }

  // --- unchecked access ("interior clone" path) ---------------------------

  /// Unchecked reference; idx must be in-domain.
  [[nodiscard]] T& at(std::int64_t t, const std::array<std::int64_t, D>& idx) {
    POCHOIR_DEBUG_ASSERT(in_domain(idx));
    return storage_[static_cast<std::size_t>(linear_index(t, idx))];
  }
  [[nodiscard]] const T& at(std::int64_t t,
                            const std::array<std::int64_t, D>& idx) const {
    POCHOIR_DEBUG_ASSERT(in_domain(idx));
    return storage_[static_cast<std::size_t>(linear_index(t, idx))];
  }

  /// Variadic unchecked access: a.interior(t, x, y) in the paper's naming.
  template <typename... Idx>
  [[nodiscard]] T& interior(std::int64_t t, Idx... i) {
    static_assert(sizeof...(Idx) == D);
    return at(t, std::array<std::int64_t, D>{static_cast<std::int64_t>(i)...});
  }
  template <typename... Idx>
  [[nodiscard]] const T& interior(std::int64_t t, Idx... i) const {
    static_assert(sizeof...(Idx) == D);
    return at(t, std::array<std::int64_t, D>{static_cast<std::int64_t>(i)...});
  }

  // --- checked access ("boundary clone" path) -----------------------------

  /// Checked read: in-domain points come from storage, off-domain points
  /// from the boundary function.
  [[nodiscard]] T get(std::int64_t t,
                      const std::array<std::int64_t, D>& idx) const {
    if (in_domain(idx)) return at(t, idx);
    POCHOIR_ASSERT_MSG(static_cast<bool>(boundary_),
                       "off-domain access without a registered boundary "
                       "function (Register_Boundary)");
    return boundary_(*this, t, idx);
  }

  template <typename... Idx>
  [[nodiscard]] T get(std::int64_t t, Idx... i) const {
    static_assert(sizeof...(Idx) == D);
    return get(t, std::array<std::int64_t, D>{static_cast<std::int64_t>(i)...});
  }

  /// Registers the boundary function (each array has exactly one; a new
  /// registration replaces the previous one, as in §2).
  void register_boundary(BoundaryFn<T, D> fn) { boundary_ = std::move(fn); }

  [[nodiscard]] const BoundaryFn<T, D>& boundary() const { return boundary_; }

  // --- Phase-1 proxy access (Figure 6 semantics) ---------------------------

  /// Read/write proxy for one grid point: reads are boundary-checked,
  /// writes must land in-domain.
  template <typename... Idx>
  [[nodiscard]] CheckedRef<T, D, WriteInDomainHook> operator()(
      std::int64_t t, Idx... i) {
    static_assert(sizeof...(Idx) == D);
    return {*this, {}, t,
            std::array<std::int64_t, D>{static_cast<std::int64_t>(i)...}};
  }

  template <typename... Idx>
  [[nodiscard]] T operator()(std::int64_t t, Idx... i) const {
    return get(t, i...);
  }

  /// Fills time level of `t` by evaluating f(idx) at every point; handy for
  /// initial conditions.
  template <typename F>
  void fill_time(std::int64_t t, F&& f) {
    std::array<std::int64_t, D> idx{};
    fill_rec<0>(t, idx, f);
  }

 private:
  static std::array<std::int64_t, D> to_extents(
      std::initializer_list<std::int64_t> list) {
    detail::check_usage(list.size() == static_cast<std::size_t>(D),
                        "extent count must equal the dimensionality");
    std::array<std::int64_t, D> out{};
    std::size_t i = 0;
    for (std::int64_t v : list) out[i++] = v;
    return out;
  }

  static std::int64_t checked_levels(std::int64_t depth) {
    detail::check_usage(depth >= 1, "array temporal depth must be >= 1");
    detail::check_usage(depth < INT64_MAX, "array temporal depth overflows");
    return depth + 1;
  }

  /// a * b for positive sizes a and b.
  static std::int64_t checked_product(std::int64_t a, std::int64_t b) {
    detail::check_usage(a <= INT64_MAX / b, "array size overflows");
    return a * b;
  }

  template <int I, typename F>
  void fill_rec(std::int64_t t, std::array<std::int64_t, D>& idx, F&& f) {
    if constexpr (I == D) {
      at(t, idx) = f(const_cast<const std::array<std::int64_t, D>&>(idx));
    } else {
      for (idx[I] = 0; idx[I] < extents_[I]; ++idx[I]) fill_rec<I + 1>(t, idx, f);
    }
  }

  [[nodiscard]] std::int64_t wrap_time(std::int64_t t) const {
    return mod_floor(t, levels_);
  }

  [[nodiscard]] std::int64_t spatial_offset(
      const std::array<std::int64_t, D>& idx) const {
    std::int64_t off = 0;
    for (int i = 0; i < D; ++i) {
      off += idx[static_cast<std::size_t>(i)] * strides_[static_cast<std::size_t>(i)];
    }
    return off;
  }

  std::array<std::int64_t, D> extents_{};
  std::array<std::int64_t, D> strides_{};
  std::int64_t levels_ = 2;
  std::int64_t level_size_ = 0;
  std::vector<std::int64_t> level_offsets_;
  AlignedBuffer<T> storage_;
  BoundaryFn<T, D> boundary_;
};

}  // namespace pochoir
