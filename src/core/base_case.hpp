// Type-erased base cases: where the engines meet the kernel.
//
// The trapezoidal walker (TRAP, and STRAP as its one-dimension mode) and
// the loop baselines only decide which zoid runs next; the kernel lives in
// exactly two places, the interior and boundary clones of the base case
// (§4).  The engines take those two clones as BaseCase<D>, a non-owning
// function reference (object pointer + thunk, no allocation), so each
// engine is compiled once per (D, policy) rather than once per kernel.
// The cost is one indirect call per base zoid or loops chunk; the thunk is
// flattened, so the kernel still inlines into its row loop.
#pragma once

#include <memory>
#include <type_traits>

#include "geometry/zoid.hpp"

#if defined(__GNUC__) || defined(__clang__)
// Forces full inlining into the thunk.  The kernel reaches the leaf through
// a deep chain of closures (row splitter -> row function -> user kernel ->
// views); without flattening, the inliner's budget runs out before the
// innermost stencil loop, which is then left scalar, costing ~5-10x on
// memory-streaming kernels.  The thunk is the engines' only call into the
// kernel, so it is the only function flattened: a flattened task body
// would inline just the engine's own recursion, which adds text and
// compile time but no speed.  Clang has no clang:: spelling for flatten;
// it accepts the GNU one.
#define POCHOIR_FLATTEN [[gnu::flatten]]
#else
#define POCHOIR_FLATTEN
#endif

namespace pochoir {

template <int D>
class BaseCase {
 public:
  /// Refers to `f`, which must outlive every call through this reference
  /// (callers build their leaves on the frame that runs the engine).
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, BaseCase> &&
             std::is_invocable_v<F&, const Zoid<D>&>)
  BaseCase(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_(&thunk<std::remove_reference_t<F>>) {}

  void operator()(const Zoid<D>& z) const { call_(obj_, z); }

 private:
  template <typename F>
  POCHOIR_FLATTEN static void thunk(void* obj, const Zoid<D>& z) {
    (*static_cast<F*>(obj))(z);
  }

  void* obj_;
  void (*call_)(void*, const Zoid<D>&);
};

}  // namespace pochoir
