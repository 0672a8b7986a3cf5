// Tests for Array<T,D>: layout, circular time levels, checked access (§2).
#include <gtest/gtest.h>

#include "core/array.hpp"
#include "core/boundary.hpp"

namespace pochoir {
namespace {

TEST(Array, LayoutRowMajorUnitStrideLast) {
  Array<double, 3> a({4, 5, 6});
  EXPECT_EQ(a.stride(2), 1);
  EXPECT_EQ(a.stride(1), 6);
  EXPECT_EQ(a.stride(0), 30);
  EXPECT_EQ(a.level_size(), 120);
  EXPECT_EQ(a.time_levels(), 2);
  EXPECT_EQ(a.total_size(), 240);
}

TEST(Array, PaperSizeIndexing) {
  // size(0) is the unit-stride dimension (Figure 6: a.size(0) == Y).
  Array<double, 2> a({7, 9});
  EXPECT_EQ(a.size(0), 9);
  EXPECT_EQ(a.size(1), 7);
  EXPECT_EQ(a.extent(0), 7);
  EXPECT_EQ(a.extent(1), 9);
}

TEST(Array, CircularTimeLevels) {
  Array<double, 1> a({4}, /*depth=*/1);
  a.interior(0, 2) = 10;
  a.interior(1, 2) = 20;
  // Level 2 aliases level 0, level 3 aliases level 1.
  EXPECT_EQ(a.interior(2, 2), 10);
  EXPECT_EQ(a.interior(3, 2), 20);
  a.interior(2, 2) = 30;
  EXPECT_EQ(a.interior(0, 2), 30);
}

TEST(Array, DepthTwoHasThreeLevels) {
  Array<double, 1> a({4}, /*depth=*/2);
  EXPECT_EQ(a.time_levels(), 3);
  a.interior(0, 1) = 1;
  a.interior(1, 1) = 2;
  a.interior(2, 1) = 3;
  EXPECT_EQ(a.interior(3, 1), 1);  // 3 mod 3 == 0
}

TEST(Array, NegativeTimeWrapsSafely) {
  Array<double, 1> a({4}, 1);
  a.interior(1, 0) = 5;
  EXPECT_EQ(a.interior(-1, 0), 5);  // -1 mod 2 == 1
}

TEST(Array, InDomain) {
  Array<double, 2> a({3, 4});
  EXPECT_TRUE(a.in_domain({0, 0}));
  EXPECT_TRUE(a.in_domain({2, 3}));
  EXPECT_FALSE(a.in_domain({3, 0}));
  EXPECT_FALSE(a.in_domain({0, 4}));
  EXPECT_FALSE(a.in_domain({-1, 0}));
}

TEST(Array, GetRoutesOffDomainToBoundary) {
  Array<double, 1> a({4});
  a.register_boundary(dirichlet_boundary<double, 1>(-7.5));
  a.interior(0, 0) = 1.0;
  EXPECT_EQ(a.get(0, std::int64_t{0}), 1.0);
  EXPECT_EQ(a.get(0, std::int64_t{-1}), -7.5);
  EXPECT_EQ(a.get(0, std::int64_t{4}), -7.5);
}

TEST(ArrayDeath, OffDomainWithoutBoundaryAborts) {
  Array<double, 1> a({4});
  EXPECT_DEATH((void)a.get(0, std::int64_t{-1}), "Register_Boundary");
}

TEST(Array, ProxyReadWrite) {
  Array<double, 2> a({4, 4});
  a.register_boundary(dirichlet_boundary<double, 2>(0.0));
  a(0, 1, 1) = 3.5;
  const double v = a(0, 1, 1);
  EXPECT_EQ(v, 3.5);
  a(0, 1, 1) += 1.0;
  EXPECT_EQ(static_cast<double>(a(0, 1, 1)), 4.5);
  a(0, 1, 1) *= 2.0;
  EXPECT_EQ(a(0, 1, 1).value(), 9.0);
}

TEST(ArrayDeath, ProxyWriteOffDomainAborts) {
  Array<double, 1> a({4});
  EXPECT_DEATH(a(0, 9) = 1.0, "outside the domain");
}

TEST(Array, FillTimeVisitsEveryCell) {
  Array<double, 2> a({3, 5});
  a.fill_time(0, [](const std::array<std::int64_t, 2>& i) {
    return static_cast<double>(i[0] * 100 + i[1]);
  });
  for (std::int64_t x = 0; x < 3; ++x) {
    for (std::int64_t y = 0; y < 5; ++y) {
      EXPECT_EQ(a.interior(0, x, y), static_cast<double>(x * 100 + y));
    }
  }
}

TEST(Array, LinearIndexMatchesAddress) {
  Array<double, 2> a({8, 8});
  const std::array<std::int64_t, 2> idx{3, 5};
  EXPECT_EQ(&a.at(1, idx), a.data() + a.linear_index(1, idx));
}

TEST(Array, StructCells) {
  struct Cell {
    int a = 0;
    double b = 0;
  };
  Array<Cell, 1> arr({8}, 2);
  arr.interior(0, 3) = {7, 2.5};
  EXPECT_EQ(arr.interior(0, 3).a, 7);
  EXPECT_EQ(arr.interior(0, 3).b, 2.5);
}

TEST(Array, SixtyFourByteAligned) {
  Array<double, 1> a({100});
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % 64, 0u);
}

}  // namespace
}  // namespace pochoir
