// pochoirc driver: source text in, postsource text out.
#pragma once

#include <string>

#include "compiler/codegen.hpp"

namespace pochoir::psc {

/// Translates a Pochoir-compliant source (Phase 1) into optimized
/// postsource (Phase 2); the diagnostics are the parser's, then codegen's.
CodegenResult translate(const std::string& source,
                        IndexMode mode = IndexMode::kAuto);

}  // namespace pochoir::psc
