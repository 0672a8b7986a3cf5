// pochoirc — the Pochoir stencil compiler (Phase 2 preprocessor).
//
// Usage: pochoirc [--split-pointer | --split-macro-shadow] [-o OUT] INPUT
//
// Reads a Pochoir-compliant C++ source (one that compiles against the
// template library, Phase 1) and emits optimized postsource that targets
// the library's cloned/pointer-walking entry points.  Compile the output
// with your host C++ compiler, exactly as in Figure 4 of the paper.
//
// Exit status: 0 on success; 1 when the input or output cannot be opened,
// or when --split-pointer is given and a kernel is too complex for it (the
// postsource is still written, with a macro-shadow clone for that kernel,
// and a diagnostic names it); 2 on a usage error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "compiler/driver.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pochoirc [--split-pointer | --split-macro-shadow] "
               "[-o OUT] INPUT\n"
               "  --split-pointer       pointer row clones; exit 1 if a "
               "kernel needs macro-shadow\n"
               "  --split-macro-shadow  macro-shadow clones for every "
               "kernel\n"
               "  (default: pointer row clones where the kernel allows)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using pochoir::psc::IndexMode;
  IndexMode mode = IndexMode::kAuto;
  std::string input;
  std::string output;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--split-pointer") {
      mode = IndexMode::kSplitPointer;
    } else if (arg == "--split-macro-shadow") {
      mode = IndexMode::kSplitMacroShadow;
    } else if (arg == "-o") {
      if (i + 1 >= argc) return usage();
      output = argv[++i];
    } else if (arg == "-h" || arg == "--help") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "pochoirc: unknown option '%s'\n", arg.c_str());
      return usage();
    } else if (input.empty()) {
      input = arg;
    } else {
      return usage();
    }
  }
  if (input.empty()) return usage();

  std::ifstream in(input);
  if (!in) {
    std::fprintf(stderr, "pochoirc: cannot open '%s'\n", input.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  const auto result = pochoir::psc::translate(buffer.str(), mode);
  for (const auto& diag : result.diagnostics) {
    std::fprintf(stderr, "pochoirc: %s: %s\n", input.c_str(), diag.c_str());
  }

  if (output.empty()) {
    std::cout << result.postsource;
  } else {
    std::ofstream out(output);
    if (!out) {
      std::fprintf(stderr, "pochoirc: cannot write '%s'\n", output.c_str());
      return 1;
    }
    out << result.postsource;
  }
  return result.split_pointer_fallbacks.empty() ? 0 : 1;
}
