// Postsource generation — Phase 2 of the Pochoir system (§4).
//
// The generator rewrites each recognized construct onto the template
// library's optimized entry points and leaves everything else untouched:
//
//   shape decl      -> pochoir::Shape<D>
//   array decl      -> pochoir::Array<T, D> (depth resolved from the shape
//                      of the object the array is registered with)
//   object decl     -> pochoir::Stencil<D, T...>
//   boundary        -> generic lambda (the dsl.hpp expansion, but emitted)
//   kernel          -> two clones: a checked boundary clone, plus either a
//                      -split-macro-shadow interior clone (Figure 12(b):
//                      access macros shadowed with .interior) or a
//                      -split-pointer row clone (Figure 12(c): C-style
//                      pointers set up at a row's start and walked down
//                      the unit-stride dim)
//   obj.Run(T, k)   -> run_cloned(...) or run_split(...)
//
// Every clone is a point or row function: the library walks each zoid's
// rows and decides which points need checks, never the generated code.
#pragma once

#include <string>

#include "compiler/ast.hpp"
#include "compiler/token.hpp"

namespace pochoir::psc {

/// Loop-indexing strategy for interior clones (§4).
enum class IndexMode {
  kAuto,             ///< split-pointer when analyzable, else macro-shadow
  kSplitPointer,     ///< force Figure 12(c); falls back with a diagnostic
  kSplitMacroShadow, ///< force Figure 12(b)
};

struct CodegenResult {
  std::string postsource;
  std::vector<std::string> diagnostics;
  /// Kernels that ended up with pointer row clones (for tests/reporting).
  std::vector<std::string> split_pointer_kernels;
};

CodegenResult generate(const TokenStream& tokens, const ParsedSource& parsed,
                       IndexMode mode);

}  // namespace pochoir::psc
