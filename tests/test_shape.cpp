// Tests for Shape<D>: depth, slopes, reach, compliance checking (§2).
#include <gtest/gtest.h>

#include "core/shape.hpp"
#include "support/error.hpp"

namespace pochoir {
namespace {

TEST(Shape, Figure6HeatShape) {
  Shape<2> s = {{1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, -1}, {0, 0, 1}};
  EXPECT_EQ(s.home_dt(), 1);
  EXPECT_EQ(s.depth(), 1);
  EXPECT_EQ(s.sigma(0), 1);
  EXPECT_EQ(s.sigma(1), 1);
  EXPECT_EQ(s.reach(0), 1);
  EXPECT_EQ(s.reach(1), 1);
  EXPECT_EQ(s.cells().size(), 6u);
}

TEST(Shape, PaperSection2ExampleShape) {
  // "The shape of this stencil is {{0,0,0}, {-1,1,0}, {-1,0,0}, {-1,-1,0},
  //  {-1,0,1}, {-1,0,-1}}" — home at dt=0, reads at dt=-1, depth 1.
  Shape<2> s = {{0, 0, 0}, {-1, 1, 0}, {-1, 0, 0}, {-1, -1, 0}, {-1, 0, 1}, {-1, 0, -1}};
  EXPECT_EQ(s.home_dt(), 0);
  EXPECT_EQ(s.depth(), 1);
  EXPECT_EQ(s.sigma(0), 1);
  EXPECT_EQ(s.sigma(1), 1);
}

TEST(Shape, DepthTwoWave) {
  Shape<1> s = {{1, 0}, {0, 0}, {0, 1}, {0, -1}, {-1, 0}};
  EXPECT_EQ(s.depth(), 2);
  EXPECT_EQ(s.sigma(0), 1);
}

TEST(Shape, SlopeCeilingOverMultiStep) {
  // A cell two steps back but three cells away: sigma = ceil(3/2) = 2.
  Shape<1> s = {{1, 0}, {-1, 3}};
  EXPECT_EQ(s.depth(), 2);
  EXPECT_EQ(s.sigma(0), 2);
  EXPECT_EQ(s.reach(0), 3);
}

TEST(Shape, WideReachSameStep) {
  Shape<1> s = {{1, 0}, {0, -4}, {0, 4}};
  EXPECT_EQ(s.sigma(0), 4);
  EXPECT_EQ(s.reach(0), 4);
  EXPECT_EQ(s.depth(), 1);
}

TEST(Shape, AsymmetricOffsetsTakeMaxMagnitude) {
  Shape<2> s = {{1, 0, 0}, {0, -2, 0}, {0, 0, 3}};
  EXPECT_EQ(s.sigma(0), 2);
  EXPECT_EQ(s.sigma(1), 3);
}

TEST(Shape, ContainsOffset) {
  Shape<2> s = {{1, 0, 0}, {0, 1, 0}, {0, 0, -1}};
  EXPECT_TRUE(s.contains_offset(1, {0, 0}));
  EXPECT_TRUE(s.contains_offset(0, {1, 0}));
  EXPECT_TRUE(s.contains_offset(0, {0, -1}));
  EXPECT_FALSE(s.contains_offset(0, {0, 1}));
  EXPECT_FALSE(s.contains_offset(-1, {0, 0}));
}

TEST(Shape, GeneratorOnlyShapeHasDepthOne) {
  Shape<1> s = {{1, 0}};
  EXPECT_EQ(s.depth(), 1);
  EXPECT_EQ(s.sigma(0), 0);
}

TEST(Shape, RejectsNonZeroHomeSpatial) {
  EXPECT_THROW((Shape<1>{{1, 2}}), Error);
}

TEST(Shape, RejectsCellAtOrAboveHomeTime) {
  EXPECT_THROW((Shape<1>{{1, 0}, {1, 1}}), Error);
  EXPECT_THROW((Shape<1>{{0, 0}, {2, 1}}), Error);
}

}  // namespace
}  // namespace pochoir
