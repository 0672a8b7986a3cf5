// Unit tests for the pochoirc translator: lexer, construct parser, and
// postsource generation in both loop-indexing modes (§4).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/driver.hpp"
#include "compiler/lexer.hpp"
#include "compiler/parser.hpp"

namespace pochoir::psc {
namespace {

const char* kHeatSource = R"(#include <pochoir/dsl.hpp>
#define mod(r, m) ((r) % (m) + ((r) % (m) < 0 ? (m) : 0))
Pochoir_Boundary_2D(heat_bv, a, t, x, y)
  return a.get(t, mod(x, a.size(1)), mod(y, a.size(0)));
Pochoir_Boundary_End
int main() {
  const int X = 100, Y = 80, T = 40;
  const double CX = 0.1, CY = 0.1;
  Pochoir_Shape_2D twod_five_pt[] = {{1,0,0}, {0,0,0}, {0,1,0}, {0,-1,0}, {0,0,-1}, {0,0,1}};
  Pochoir_2D heat(twod_five_pt);
  Pochoir_Array_2D(double) u(X, Y);
  u.Register_Boundary(heat_bv);
  heat.Register_Array(u);
  Pochoir_Kernel_2D(heat_fn, t, x, y)
    u(t+1, x, y) = CX * (u(t, x+1, y) - 2 * u(t, x, y) + u(t, x-1, y))
                 + CY * (u(t, x, y+1) - 2 * u(t, x, y) + u(t, x, y-1))
                 + u(t, x, y);
  Pochoir_Kernel_End
  heat.Run(T, heat_fn);
  return 0;
}
)";

TEST(Lexer, TokensRoundTripVerbatim) {
  const std::string src = kHeatSource;
  const TokenStream toks = lex(src);
  EXPECT_EQ(splice(toks, 0, toks.size()), src);
}

TEST(Lexer, RecognizesKinds) {
  const TokenStream toks = lex("int x = 42; // hi\n\"str\" 3.5e-2 a->b");
  bool saw_comment = false, saw_string = false, saw_float = false,
       saw_arrow = false;
  for (const auto& t : toks) {
    saw_comment |= t.kind == TokenKind::kComment && t.text == "// hi";
    saw_string |= t.kind == TokenKind::kString && t.text == "\"str\"";
    saw_float |= t.kind == TokenKind::kNumber && t.text == "3.5e-2";
    saw_arrow |= t.kind == TokenKind::kPunct && t.text == "->";
  }
  EXPECT_TRUE(saw_comment);
  EXPECT_TRUE(saw_string);
  EXPECT_TRUE(saw_float);
  EXPECT_TRUE(saw_arrow);
}

TEST(Lexer, DirectivesAreWholeLines) {
  const TokenStream toks = lex("#define F(x) \\\n  ((x)+1)\nint y;");
  ASSERT_GE(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, TokenKind::kDirective);
  EXPECT_NE(toks[0].text.find("((x)+1)"), std::string::npos);
}

TEST(Parser, ExtractsAllConstructs) {
  const TokenStream toks = lex(kHeatSource);
  const ParsedSource parsed = parse(toks);
  ASSERT_EQ(parsed.shapes.size(), 1u);
  EXPECT_EQ(parsed.shapes[0].name, "twod_five_pt");
  EXPECT_EQ(parsed.shapes[0].dim, 2);
  EXPECT_EQ(parsed.shapes[0].cells.size(), 6u);
  EXPECT_EQ(parsed.shapes[0].depth(), 1);
  EXPECT_EQ(parsed.shapes[0].home_dt(), 1);

  ASSERT_EQ(parsed.arrays.size(), 1u);
  EXPECT_EQ(parsed.arrays[0].name, "u");
  EXPECT_EQ(parsed.arrays[0].type, "double");
  ASSERT_EQ(parsed.arrays[0].sizes.size(), 2u);
  EXPECT_EQ(parsed.arrays[0].sizes[0], "X");
  EXPECT_EQ(parsed.arrays[0].sizes[1], "Y");

  ASSERT_EQ(parsed.objects.size(), 1u);
  EXPECT_EQ(parsed.objects[0].name, "heat");
  EXPECT_EQ(parsed.objects[0].shape_name, "twod_five_pt");

  ASSERT_EQ(parsed.boundaries.size(), 1u);
  EXPECT_EQ(parsed.boundaries[0].name, "heat_bv");
  EXPECT_EQ(parsed.boundaries[0].array_param, "a");

  ASSERT_EQ(parsed.kernels.size(), 1u);
  EXPECT_EQ(parsed.kernels[0].name, "heat_fn");
  EXPECT_TRUE(parsed.kernels[0].analyzable);
  EXPECT_EQ(parsed.kernels[0].accesses.size(), 8u);
  int writes = 0;
  for (const auto& a : parsed.kernels[0].accesses) writes += a.is_write ? 1 : 0;
  EXPECT_EQ(writes, 1);

  ASSERT_EQ(parsed.register_arrays.size(), 1u);
  ASSERT_EQ(parsed.register_boundaries.size(), 1u);
  ASSERT_EQ(parsed.runs.size(), 1u);
  EXPECT_EQ(parsed.runs[0].steps_expr, "T");
  EXPECT_EQ(parsed.runs[0].kernel, "heat_fn");
}

TEST(Parser, AccessOffsetsAreAffine) {
  const TokenStream toks = lex(kHeatSource);
  const ParsedSource parsed = parse(toks);
  const KernelDecl& k = parsed.kernels[0];
  bool found_write = false;
  for (const auto& a : k.accesses) {
    ASSERT_EQ(a.offsets.size(), 3u);
    if (a.is_write) {
      found_write = true;
      EXPECT_EQ(a.offsets[0], 1);
      EXPECT_EQ(a.offsets[1], 0);
      EXPECT_EQ(a.offsets[2], 0);
    }
  }
  EXPECT_TRUE(found_write);
}

TEST(Parser, ComplexKernelIsNotAnalyzable) {
  const std::string src = R"(
    Pochoir_Array_1D(double) a(100);
    Pochoir_Kernel_1D(f, t, i)
      a(t+1, i) = helper(a, t, i);
    Pochoir_Kernel_End
  )";
  const auto parsed = parse(lex(src));
  ASSERT_EQ(parsed.kernels.size(), 1u);
  EXPECT_FALSE(parsed.kernels[0].analyzable);  // `a` passed to a function
}

TEST(Parser, NonAffineIndexIsNotAnalyzable) {
  const std::string src = R"(
    Pochoir_Array_1D(double) a(100);
    Pochoir_Kernel_1D(f, t, i)
      a(t+1, i) = a(t, 2*i);
    Pochoir_Kernel_End
  )";
  const auto parsed = parse(lex(src));
  ASSERT_EQ(parsed.kernels.size(), 1u);
  EXPECT_FALSE(parsed.kernels[0].analyzable);
}

TEST(Parser, ArrayDeclWithExplicitDepth) {
  const auto parsed = parse(lex("Pochoir_Array_3D(float, 2) w(4, 5, 6);"));
  ASSERT_EQ(parsed.arrays.size(), 1u);
  EXPECT_EQ(parsed.arrays[0].type, "float");
  ASSERT_TRUE(parsed.arrays[0].depth.has_value());
  EXPECT_EQ(*parsed.arrays[0].depth, 2);
}

TEST(Codegen, MacroShadowMode) {
  const auto result =
      translate(kHeatSource, IndexMode::kSplitMacroShadow);
  const std::string& post = result.postsource;
  EXPECT_NE(post.find("pochoir::Shape<2> twod_five_pt"), std::string::npos);
  EXPECT_NE(post.find("pochoir::Array<double, 2> u({X, Y}, 1);"),
            std::string::npos);
  EXPECT_NE(post.find("pochoir::Stencil<2, double> heat(twod_five_pt);"),
            std::string::npos);
  EXPECT_NE(post.find("#define u(...) u.interior(__VA_ARGS__)"),
            std::string::npos);
  EXPECT_NE(post.find("heat.run_cloned(T, heat_fn_pochoir_interior, "
                      "heat_fn_pochoir_boundary);"),
            std::string::npos);
  EXPECT_TRUE(result.split_pointer_kernels.empty());
}

TEST(Codegen, SplitPointerMode) {
  const auto result = translate(kHeatSource, IndexMode::kSplitPointer);
  const std::string& post = result.postsource;
  EXPECT_NE(post.find("heat_fn_pochoir_splitbase"), std::string::npos);
  EXPECT_NE(post.find("(*_pp"), std::string::npos);
  EXPECT_NE(post.find("heat.run_split(T, heat_fn_pochoir_splitbase, "
                      "heat_fn_pochoir_boundary);"),
            std::string::npos);
  ASSERT_EQ(result.split_pointer_kernels.size(), 1u);
  EXPECT_EQ(result.split_pointer_kernels[0], "heat_fn");
}

TEST(Codegen, SplitPointerCloneIsARowFunction) {
  // The clone walks one row from idx to row_end; the library walks the
  // zoid's rows, so no zoid, time loop or outer loop is emitted.
  const auto result = translate(kHeatSource, IndexMode::kSplitPointer);
  const std::string& post = result.postsource;
  EXPECT_EQ(post.find("pochoir::Zoid<"), std::string::npos);
  EXPECT_NE(post.find("heat_fn_pochoir_splitbase = [&](std::int64_t t, "
                      "const std::array<std::int64_t, 2>&"),
            std::string::npos);
}

TEST(Codegen, AutoPrefersSplitPointer) {
  const auto result = translate(kHeatSource, IndexMode::kAuto);
  EXPECT_EQ(result.split_pointer_kernels.size(), 1u);
}

TEST(Codegen, ForcedSplitPointerFallsBackWithDiagnostic) {
  const std::string src = R"(
    Pochoir_Array_1D(double) a(100);
    Pochoir_Kernel_1D(f, t, i)
      a(t+1, i) = a(t, 2*i);
    Pochoir_Kernel_End
    int main() { return 0; }
  )";
  const auto result = translate(src, IndexMode::kSplitPointer);
  EXPECT_NE(result.postsource.find("f_pochoir_interior"), std::string::npos);
  bool warned = false;
  for (const auto& d : result.diagnostics) {
    warned |= d.find("too complex for -split-pointer") != std::string::npos;
  }
  EXPECT_TRUE(warned);
  EXPECT_EQ(result.split_pointer_fallbacks, std::vector<std::string>{"f"});
  // In the default mode the same kernel gets macro-shadow silently.
  EXPECT_TRUE(translate(src, IndexMode::kAuto).split_pointer_fallbacks.empty());
}

TEST(Codegen, BoundaryBecomesGenericLambda) {
  const auto result = translate(kHeatSource, IndexMode::kAuto);
  EXPECT_NE(result.postsource.find("const auto heat_bv = [](const auto& a"),
            std::string::npos);
}

TEST(Codegen, UninterpretedTextSurvivesVerbatim) {
  const auto result = translate(kHeatSource, IndexMode::kAuto);
  // User code outside constructs must pass through untouched.
  EXPECT_NE(result.postsource.find("const int X = 100, Y = 80, T = 40;"),
            std::string::npos);
  EXPECT_NE(result.postsource.find("#define mod(r, m)"), std::string::npos);
}

TEST(Codegen, PrologueIncludesLibrary) {
  const auto result = translate("int main(){return 0;}", IndexMode::kAuto);
  EXPECT_EQ(result.postsource.find("// Postsource generated by pochoirc"), 0u);
  EXPECT_NE(result.postsource.find("#include <pochoir/pochoir.hpp>"),
            std::string::npos);
}

}  // namespace
}  // namespace pochoir::psc
