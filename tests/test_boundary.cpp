// Tests for the boundary-condition library (§2, §4, Figure 11).
#include <gtest/gtest.h>

#include <utility>

#include "core/array.hpp"
#include "core/boundary.hpp"

namespace pochoir {
namespace {

TEST(Boundary, PeriodicWrapsBothSides) {
  Array<double, 1> a({5});
  a.register_boundary(periodic_boundary<double, 1>());
  for (std::int64_t x = 0; x < 5; ++x) a.interior(0, x) = static_cast<double>(x);
  EXPECT_EQ(a.get(0, std::int64_t{-1}), 4.0);
  EXPECT_EQ(a.get(0, std::int64_t{-5}), 0.0);
  EXPECT_EQ(a.get(0, std::int64_t{5}), 0.0);
  EXPECT_EQ(a.get(0, std::int64_t{11}), 1.0);
}

TEST(Boundary, Periodic2DWrapsIndependently) {
  Array<double, 2> a({3, 4});
  a.register_boundary(periodic_boundary<double, 2>());
  a.fill_time(0, [](const std::array<std::int64_t, 2>& i) {
    return static_cast<double>(i[0] * 10 + i[1]);
  });
  EXPECT_EQ(a.get(0, std::int64_t{-1}, std::int64_t{-1}), 23.0);
  EXPECT_EQ(a.get(0, std::int64_t{3}, std::int64_t{4}), 0.0);
}

TEST(Boundary, DirichletConstant) {
  Array<double, 1> a({4});
  a.register_boundary(dirichlet_boundary<double, 1>(42.0));
  EXPECT_EQ(a.get(0, std::int64_t{-3}), 42.0);
  EXPECT_EQ(a.get(5, std::int64_t{100}), 42.0);
}

TEST(Boundary, DirichletTimeVarying) {
  // Figure 11(a): return 100 + 0.2*t;
  Array<double, 2> a({4, 4});
  a.register_boundary(dirichlet_boundary_fn<double, 2>(
      [](std::int64_t t, const std::array<std::int64_t, 2>&) {
        return 100.0 + 0.2 * static_cast<double>(t);
      }));
  EXPECT_EQ(a.get(0, std::int64_t{-1}, std::int64_t{0}), 100.0);
  EXPECT_EQ(a.get(10, std::int64_t{4}, std::int64_t{0}), 102.0);
}

TEST(Boundary, NeumannClampsToEdge) {
  // Figure 11(b): zero-derivative clamping.
  Array<double, 1> a({4});
  a.register_boundary(neumann_boundary<double, 1>());
  for (std::int64_t x = 0; x < 4; ++x) a.interior(0, x) = static_cast<double>(x + 1);
  EXPECT_EQ(a.get(0, std::int64_t{-2}), 1.0);
  EXPECT_EQ(a.get(0, std::int64_t{9}), 4.0);
}

TEST(Boundary, MixedCylinder) {
  // Periodic in x, Dirichlet in y: the 2D cylinder of §4.
  Array<double, 2> a({4, 4});
  a.register_boundary(mixed_boundary<double, 2>(
      {BoundaryKind::kPeriodic, BoundaryKind::kDirichlet}, -1.0));
  a.fill_time(0, [](const std::array<std::int64_t, 2>& i) {
    return static_cast<double>(i[0] * 10 + i[1]);
  });
  EXPECT_EQ(a.get(0, std::int64_t{-1}, std::int64_t{2}), 32.0);  // wrap x
  EXPECT_EQ(a.get(0, std::int64_t{4}, std::int64_t{2}), 2.0);    // wrap x
  EXPECT_EQ(a.get(0, std::int64_t{1}, std::int64_t{-1}), -1.0);  // clip y
  EXPECT_EQ(a.get(0, std::int64_t{1}, std::int64_t{4}), -1.0);   // clip y
}

TEST(Boundary, MixedNeumannPeriodic) {
  Array<double, 2> a({3, 3});
  a.register_boundary(mixed_boundary<double, 2>(
      {BoundaryKind::kNeumann, BoundaryKind::kPeriodic}));
  a.fill_time(0, [](const std::array<std::int64_t, 2>& i) {
    return static_cast<double>(i[0] * 3 + i[1]);
  });
  EXPECT_EQ(a.get(0, std::int64_t{-1}, std::int64_t{-1}), 2.0);  // clamp x, wrap y
  EXPECT_EQ(a.get(0, std::int64_t{3}, std::int64_t{3}), 6.0);    // clamp x, wrap y
}

TEST(Boundary, ZeroBoundaryShorthand) {
  Array<int, 1> a({3});
  a.register_boundary(zero_boundary<int, 1>());
  EXPECT_EQ(a.get(0, std::int64_t{-1}), 0);
}

TEST(Boundary, ReRegistrationReplaces) {
  Array<double, 1> a({3});
  a.register_boundary(dirichlet_boundary<double, 1>(1.0));
  EXPECT_EQ(a.get(0, std::int64_t{-1}), 1.0);
  a.register_boundary(dirichlet_boundary<double, 1>(2.0));
  EXPECT_EQ(a.get(0, std::int64_t{-1}), 2.0);
}

// The five built-ins are BoundaryRule values, which the checked row view
// inlines; any other function is called, dirichlet_boundary_fn included.
TEST(Boundary, BuiltInsAreRules) {
  auto rule_of = [](BoundaryFn<double, 2> fn) {
    Array<double, 2> a({3, 3});
    a.register_boundary(std::move(fn));
    using Rule = BoundaryRule<double, 2>;
    EXPECT_EQ(boundary_rule(a), a.boundary().target<Rule>());
    return a.boundary().target<Rule>() != nullptr;
  };
  EXPECT_TRUE(rule_of(periodic_boundary<double, 2>()));
  EXPECT_TRUE(rule_of(dirichlet_boundary<double, 2>(1.5)));
  EXPECT_TRUE(rule_of(neumann_boundary<double, 2>()));
  EXPECT_TRUE(rule_of(mixed_boundary<double, 2>(
      {BoundaryKind::kPeriodic, BoundaryKind::kNeumann})));
  EXPECT_TRUE(rule_of(zero_boundary<double, 2>()));
  EXPECT_FALSE(rule_of(dirichlet_boundary_fn<double, 2>(
      [](std::int64_t, const std::array<std::int64_t, 2>&) { return 1.0; })));
  EXPECT_FALSE(rule_of([](const Array<double, 2>&, std::int64_t,
                          const std::array<std::int64_t, 2>&) { return 0.0; }));
  EXPECT_FALSE(rule_of(nullptr));

  Array<int, 1> cells({4});
  cells.register_boundary(zero_boundary<int, 1>());
  ASSERT_NE(boundary_rule(cells), nullptr);
  EXPECT_EQ(boundary_rule(cells)->kinds[0], BoundaryKind::kDirichlet);
  EXPECT_EQ(boundary_rule(cells)->dirichlet_value, 0);
}

}  // namespace
}  // namespace pochoir
