// Construct descriptions extracted from a Pochoir source file (§2 grammar).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pochoir::psc {

/// Token-index span [first, last) in the lexed stream.
struct Span {
  std::size_t first = 0;
  std::size_t last = 0;
};

/// Pochoir_Shape_dD name[] = {{...}, ...};
struct ShapeDecl {
  Span span;
  int dim = 0;
  std::string name;
  std::vector<std::vector<std::int64_t>> cells;  // each of size dim+1

  /// depth = t_home - min t_c (the home cell is cells[0]).
  [[nodiscard]] std::int64_t depth() const {
    if (cells.empty()) return 1;
    std::int64_t home = cells.front()[0];
    std::int64_t min_dt = home;
    for (const auto& cell : cells) min_dt = std::min(min_dt, cell[0]);
    const std::int64_t d = home - min_dt;
    return d > 0 ? d : 1;
  }
  [[nodiscard]] std::int64_t home_dt() const {
    return cells.empty() ? 1 : cells.front()[0];
  }
};

/// Pochoir_Array_dD(type[, depth]) name(sizes...);
struct ArrayDecl {
  Span span;
  int dim = 0;
  std::string name;
  std::string type;                     // element type text
  std::optional<std::int64_t> depth;    // explicit depth, if given
  std::vector<std::string> sizes;       // size expressions, natural order
};

/// Pochoir_dD name(shape);
struct ObjectDecl {
  Span span;
  int dim = 0;
  std::string name;
  std::string shape_name;
};

/// Pochoir_Boundary_dD(name, arr, t, x...) body Pochoir_Boundary_End
struct BoundaryDecl {
  Span span;
  int dim = 0;
  std::string name;
  std::string array_param;
  std::vector<std::string> index_params;  // t first, then spatial
  Span body;                              // tokens of the body
};

/// One array access inside a kernel body: arr(t+dt, x0+o0, ...).
struct KernelAccess {
  std::string array;
  std::vector<std::int64_t> offsets;  // dt first, then spatial
  bool is_write = false;
  Span span;  // the whole access expression, arr ... ')'
};

/// Pochoir_Kernel_dD(name, t, x...) body Pochoir_Kernel_End
struct KernelDecl {
  Span span;
  int dim = 0;
  std::string name;
  std::vector<std::string> index_params;  // t first, then spatial
  Span body;
  std::vector<KernelAccess> accesses;  // empty if analysis failed
  bool analyzable = false;  ///< all accesses affine → split-pointer eligible
  std::vector<std::string> arrays_read;  // distinct array names touched
};

/// obj.Register_Array(arr);
struct RegisterArrayStmt {
  Span span;
  std::string object;
  std::string array;
};

/// arr.Register_Boundary(bdry);
struct RegisterBoundaryStmt {
  Span span;
  std::string array;
  std::string boundary;
};

/// obj.Run(steps_expr, kernel);
struct RunStmt {
  Span span;
  std::string object;
  std::string steps_expr;
  std::string kernel;
};

struct ParsedSource {
  std::vector<ShapeDecl> shapes;
  std::vector<ArrayDecl> arrays;
  std::vector<ObjectDecl> objects;
  std::vector<BoundaryDecl> boundaries;
  std::vector<KernelDecl> kernels;
  std::vector<RegisterArrayStmt> register_arrays;
  std::vector<RegisterBoundaryStmt> register_boundaries;
  std::vector<RunStmt> runs;
  std::vector<std::string> diagnostics;

  [[nodiscard]] const ShapeDecl* find_shape(const std::string& name) const {
    for (const auto& s : shapes) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }
  [[nodiscard]] const ArrayDecl* find_array(const std::string& name) const {
    for (const auto& a : arrays) {
      if (a.name == name) return &a;
    }
    return nullptr;
  }
};

}  // namespace pochoir::psc
