#include "compiler/codegen.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace pochoir::psc {
namespace {

struct Replacement {
  Span span;
  std::string text;
};

std::string int_list(const std::vector<std::int64_t>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(v[i]);
  }
  return out;
}

/// Per-object registration info resolved from the statement list.
struct ObjectInfo {
  std::vector<const ArrayDecl*> arrays;
  const ShapeDecl* shape = nullptr;
};

class Generator {
 public:
  Generator(const TokenStream& tokens, const ParsedSource& parsed,
            IndexMode mode)
      : toks_(tokens), src_(parsed), mode_(mode) {}

  CodegenResult run() {
    resolve_objects();
    emit_shapes();
    emit_arrays();
    emit_objects();
    emit_boundaries();
    emit_kernels();
    emit_registrations();
    emit_runs();
    return assemble();
  }

 private:
  void resolve_objects() {
    for (const auto& reg : src_.register_arrays) {
      const ArrayDecl* arr = src_.find_array(reg.array);
      if (arr == nullptr) {
        diag("Register_Array of undeclared array '" + reg.array + "'");
        continue;
      }
      objects_[reg.object].arrays.push_back(arr);
    }
    for (const auto& obj : src_.objects) {
      objects_[obj.name].shape = src_.find_shape(obj.shape_name);
      if (objects_[obj.name].shape == nullptr) {
        diag("Pochoir object '" + obj.name + "' uses undeclared shape '" +
             obj.shape_name + "'");
      }
    }
  }

  /// Depth of `arr`: explicit, or taken from the first object it joins.
  std::int64_t depth_of(const ArrayDecl& arr) const {
    if (arr.depth.has_value()) return *arr.depth;
    for (const auto& reg : src_.register_arrays) {
      if (reg.array != arr.name) continue;
      auto it = objects_.find(reg.object);
      if (it != objects_.end() && it->second.shape != nullptr) {
        return it->second.shape->depth();
      }
    }
    return 1;
  }

  void emit_shapes() {
    for (const auto& shape : src_.shapes) {
      std::ostringstream os;
      os << "const pochoir::Shape<" << shape.dim << "> " << shape.name
         << " = {";
      for (std::size_t i = 0; i < shape.cells.size(); ++i) {
        if (i != 0) os << ", ";
        os << "{" << int_list(shape.cells[i]) << "}";
      }
      os << "};";
      replace(shape.span, os.str());
    }
  }

  void emit_arrays() {
    for (const auto& arr : src_.arrays) {
      std::ostringstream os;
      os << "pochoir::Array<" << arr.type << ", " << arr.dim << "> "
         << arr.name << "({";
      for (std::size_t i = 0; i < arr.sizes.size(); ++i) {
        if (i != 0) os << ", ";
        os << arr.sizes[i];
      }
      os << "}, " << depth_of(arr) << ");";
      replace(arr.span, os.str());
    }
  }

  void emit_objects() {
    for (const auto& obj : src_.objects) {
      const ObjectInfo& info = objects_[obj.name];
      std::ostringstream os;
      os << "pochoir::Stencil<" << obj.dim;
      if (info.arrays.empty()) {
        os << ", double";
      } else {
        for (const ArrayDecl* arr : info.arrays) os << ", " << arr->type;
      }
      os << "> " << obj.name << "(" << obj.shape_name << ");";
      replace(obj.span, os.str());
    }
  }

  void emit_boundaries() {
    for (const auto& b : src_.boundaries) {
      std::ostringstream os;
      os << "const auto " << b.name << " = [](const auto& " << b.array_param
         << ", std::int64_t " << b.index_params[0]
         << ", const std::array<std::int64_t, " << b.dim
         << ">& _pochoir_bidx) -> typename std::decay_t<decltype("
         << b.array_param << ")>::value_type {\n";
      for (int i = 0; i < b.dim; ++i) {
        os << "  [[maybe_unused]] const std::int64_t "
           << b.index_params[static_cast<std::size_t>(i) + 1]
           << " = _pochoir_bidx[" << i << "];\n";
      }
      os << "  [[maybe_unused]] auto&& _pochoir_t = " << b.index_params[0]
         << ";\n";
      os << splice(toks_, b.body.first, b.body.last);
      os << "\n};";
      replace(b.span, os.str());
    }
  }

  // A kernel the parser cannot analyze gets macro-shadow, as in the paper.
  bool kernel_uses_split(const KernelDecl& k) const {
    return mode_ != IndexMode::kSplitMacroShadow && k.analyzable;
  }

  void emit_kernels() {
    for (const auto& k : src_.kernels) {
      std::ostringstream os;
      os << boundary_clone(k) << "\n";
      const bool split = kernel_uses_split(k);
      if (split) {
        os << split_pointer_base(k) << "\n";
        split_kernels_.push_back(k.name);
      } else {
        if (mode_ == IndexMode::kSplitPointer) {
          diag("kernel '" + k.name +
               "' is too complex for -split-pointer; using "
               "-split-macro-shadow");
        }
        os << macro_shadow_clone(k) << "\n";
      }
      replace(k.span, os.str());
      kernel_split_[k.name] = split;
    }
  }

  std::string params_decl(const KernelDecl& k) const {
    std::string out;
    for (std::size_t i = 0; i < k.index_params.size(); ++i) {
      if (i != 0) out += ", ";
      out += "std::int64_t " + k.index_params[i];
    }
    return out;
  }

  std::string boundary_clone(const KernelDecl& k) const {
    std::ostringstream os;
    os << "auto " << k.name << "_pochoir_boundary = [&](" << params_decl(k)
       << ") {\n"
       << splice(toks_, k.body.first, k.body.last) << "\n};";
    return os.str();
  }

  std::string macro_shadow_clone(const KernelDecl& k) const {
    std::ostringstream os;
    os << "auto " << k.name << "_pochoir_interior = [&](" << params_decl(k)
       << ") {\n";
    for (const auto& arr : k.arrays_read) {
      os << "#define " << arr << "(...) " << arr << ".interior(__VA_ARGS__)\n";
    }
    os << splice(toks_, k.body.first, k.body.last) << "\n";
    for (const auto& arr : k.arrays_read) {
      os << "#undef " << arr << "\n";
    }
    os << "};";
    return os.str();
  }

  /// Figure 12(c) as a row clone f(t, idx, row_end): one C-style pointer
  /// per access term, set up at the row start idx and walked down the
  /// unit-stride dimension to row_end.  The library walks the rows.
  std::string split_pointer_base(const KernelDecl& k) const {
    const int d = k.dim;
    std::ostringstream os;
    os << "auto " << k.name << "_pochoir_splitbase = [&](std::int64_t "
       << k.index_params[0] << ", const std::array<std::int64_t, " << d
       << ">& _pidx, std::int64_t _prow_end) {\n";
    // Outer coordinates (dims 0..d-2) take the kernel's own names.
    for (int i = 0; i + 1 < d; ++i) {
      os << "  const std::int64_t "
         << k.index_params[static_cast<std::size_t>(i) + 1] << " = _pidx["
         << i << "];\n";
    }
    // Pointer setup for each access.
    for (std::size_t a = 0; a < k.accesses.size(); ++a) {
      const KernelAccess& acc = k.accesses[a];
      os << "  auto* _pp" << a << " = " << acc.array << ".data() + "
         << "pochoir::mod_floor(" << k.index_params[0];
      if (acc.offsets[0] != 0) os << " + (" << acc.offsets[0] << ")";
      os << ", " << acc.array << ".time_levels()) * " << acc.array
         << ".level_size()";
      for (int i = 0; i + 1 < d; ++i) {
        os << " + (" << k.index_params[static_cast<std::size_t>(i) + 1];
        if (acc.offsets[static_cast<std::size_t>(i) + 1] != 0) {
          os << " + (" << acc.offsets[static_cast<std::size_t>(i) + 1] << ")";
        }
        os << ") * " << acc.array << ".stride(" << i << ")";
      }
      os << " + (_pidx[" << (d - 1) << "]";
      if (acc.offsets[static_cast<std::size_t>(d)] != 0) {
        os << " + (" << acc.offsets[static_cast<std::size_t>(d)] << ")";
      }
      os << ");\n";
    }
    // Innermost loop with pointer increments.
    const std::string& inner = k.index_params[static_cast<std::size_t>(d)];
    os << "  for (std::int64_t " << inner << " = _pidx[" << (d - 1) << "]; "
       << inner << " < _prow_end; ++" << inner << ") {\n";
    os << "    " << rewrite_body_with_pointers(k) << "\n";
    for (std::size_t a = 0; a < k.accesses.size(); ++a) {
      os << "    ++_pp" << a << ";\n";
    }
    os << "  }\n"
       << "};";
    return os.str();
  }

  /// The kernel body with every access expression replaced by (*_ppK).
  std::string rewrite_body_with_pointers(const KernelDecl& k) const {
    std::string out;
    std::size_t j = k.body.first;
    while (j < k.body.last) {
      bool replaced = false;
      for (std::size_t a = 0; a < k.accesses.size(); ++a) {
        if (k.accesses[a].span.first == j) {
          out += "(*_pp" + std::to_string(a) + ")";
          j = k.accesses[a].span.last;
          replaced = true;
          break;
        }
      }
      if (!replaced) {
        if (toks_[j].kind != TokenKind::kComment) out += toks_[j].text;
        ++j;
      }
    }
    // Collapse the newlines the body may carry; the statement is emitted on
    // one line inside the generated loop.
    for (char& c : out) {
      if (c == '\n') c = ' ';
    }
    return out;
  }

  void emit_registrations() {
    // For each object, the last Register_Array site becomes a single
    // register_arrays(...) with all arrays in registration order.
    std::map<std::string, const RegisterArrayStmt*> last;
    for (const auto& reg : src_.register_arrays) {
      last[reg.object] = &reg;
    }
    for (const auto& reg : src_.register_arrays) {
      if (last[reg.object] == &reg) {
        std::string args;
        for (const auto& r2 : src_.register_arrays) {
          if (r2.object != reg.object) continue;
          if (!args.empty()) args += ", ";
          args += r2.array;
        }
        replace(reg.span, reg.object + ".register_arrays(" + args + ");");
      } else {
        replace(reg.span, "/* pochoirc: '" + reg.array +
                              "' registered with '" + reg.object +
                              "' below */;");
      }
    }
    for (const auto& reg : src_.register_boundaries) {
      replace(reg.span,
              reg.array + ".register_boundary(" + reg.boundary + ");");
    }
  }

  void emit_runs() {
    for (const auto& run : src_.runs) {
      // Every generated Run executes inside a trace session labelled with
      // the kernel name, so POCHOIR_TRACE / POCHOIR_TELEMETRY work on
      // compiled programs without source changes (a pair of counter
      // snapshots when both are off).
      const std::string session = "{ pochoir::trace::Session "
                                  "_pochoir_trace_session(\"" +
                                  run.kernel + "\"); ";
      auto split_it = kernel_split_.find(run.kernel);
      if (split_it == kernel_split_.end()) {
        diag("Run references unknown kernel '" + run.kernel +
             "'; leaving a Phase-1 call");
        replace(run.span, session + run.object + ".run(" + run.steps_expr +
                              ", " + run.kernel + "); }");
        continue;
      }
      if (split_it->second) {
        replace(run.span, session + run.object + ".run_split(" +
                              run.steps_expr + ", " + run.kernel +
                              "_pochoir_splitbase, " + run.kernel +
                              "_pochoir_boundary); }");
      } else {
        replace(run.span, session + run.object + ".run_cloned(" +
                              run.steps_expr + ", " + run.kernel +
                              "_pochoir_interior, " + run.kernel +
                              "_pochoir_boundary); }");
      }
    }
  }

  CodegenResult assemble() {
    std::sort(replacements_.begin(), replacements_.end(),
              [](const Replacement& a, const Replacement& b) {
                return a.span.first < b.span.first;
              });
    std::ostringstream os;
    os << "// Postsource generated by pochoirc (Phase 2 of the Pochoir\n"
       << "// two-phase compilation strategy). Do not edit.\n"
       << "#include <pochoir/pochoir.hpp>\n"
       << "#include <array>\n"
       << "#include <cstdint>\n"
       << "#include <type_traits>\n";
    std::size_t j = 0;
    std::size_t r = 0;
    while (j < toks_.size()) {
      if (r < replacements_.size() && replacements_[r].span.first == j) {
        os << replacements_[r].text;
        j = replacements_[r].span.last;
        ++r;
        continue;
      }
      os << toks_[j].text;
      ++j;
    }
    CodegenResult result;
    result.postsource = os.str();
    result.diagnostics = diagnostics_;
    result.split_pointer_kernels = split_kernels_;
    return result;
  }

  void replace(Span span, std::string text) {
    replacements_.push_back({span, std::move(text)});
  }
  void diag(std::string message) { diagnostics_.push_back(std::move(message)); }

  const TokenStream& toks_;
  const ParsedSource& src_;
  IndexMode mode_;
  std::map<std::string, ObjectInfo> objects_;
  std::map<std::string, bool> kernel_split_;
  std::vector<Replacement> replacements_;
  std::vector<std::string> diagnostics_;
  std::vector<std::string> split_kernels_;
};

}  // namespace

CodegenResult generate(const TokenStream& tokens, const ParsedSource& parsed,
                       IndexMode mode) {
  Generator generator(tokens, parsed, mode);
  return generator.run();
}

}  // namespace pochoir::psc
