// FlatSet::merge against the element-wise insert it replaces: same contents
// in the same order for every shape of input, and capacity that grows in
// powers of two, sized by the union.

#include "common/flat_set.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.hpp"

namespace str {
namespace {

std::vector<int> contents(const FlatSet<int>& s) {
  return std::vector<int>(s.begin(), s.end());
}

/// Union the slow way: one sorted insert per element.
FlatSet<int> insert_each(FlatSet<int> into, const FlatSet<int>& from) {
  for (int v : from) into.insert(v);
  return into;
}

void expect_merge_matches(const FlatSet<int>& a, const FlatSet<int>& b) {
  FlatSet<int> merged = a;
  merged.merge(b);
  EXPECT_EQ(contents(merged), contents(insert_each(a, b)));
}

TEST(FlatSetMerge, EmptyInputs) {
  expect_merge_matches({}, {});
  expect_merge_matches({}, {1, 2, 3});
  expect_merge_matches({1, 2, 3}, {});
}

TEST(FlatSetMerge, DisjointInputs) {
  expect_merge_matches({1, 2, 3}, {4, 5, 6});  // other entirely above
  expect_merge_matches({4, 5, 6}, {1, 2, 3});  // other entirely below
  expect_merge_matches({1, 3, 5, 7}, {0, 2, 4, 6, 8});  // interleaved
}

TEST(FlatSetMerge, OverlappingInputs) {
  expect_merge_matches({1, 2, 3, 4}, {3, 4, 5, 6});
  expect_merge_matches({2, 4, 6}, {1, 2, 3, 4, 5, 6, 7});
  expect_merge_matches({1, 5, 9}, {5});
}

TEST(FlatSetMerge, IdenticalInputs) {
  expect_merge_matches({1, 2, 3}, {1, 2, 3});
}

TEST(FlatSetMerge, SelfMergeIsNoOp) {
  FlatSet<int> s{3, 1, 2};
  const std::size_t cap = s.capacity();
  s.merge(s);
  EXPECT_EQ(contents(s), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.capacity(), cap);
}

TEST(FlatSetMerge, RandomInputsMatchElementWiseInsert) {
  Rng rng(7);
  for (int round = 0; round < 500; ++round) {
    FlatSet<int> a;
    FlatSet<int> b;
    const auto universe = static_cast<std::uint64_t>(rng.uniform_range(1, 64));
    for (std::uint64_t i = rng.uniform(40); i > 0; --i) {
      a.insert(static_cast<int>(rng.uniform(universe)));
    }
    for (std::uint64_t i = rng.uniform(40); i > 0; --i) {
      b.insert(static_cast<int>(rng.uniform(universe)));
    }
    expect_merge_matches(a, b);
    if (HasFailure()) return;
  }
}

TEST(FlatSetMerge, CapacityGrowsInPowersOfTwo) {
  FlatSet<int> s;
  for (int n = 1; n <= 40; ++n) {
    FlatSet<int> one{1000 + n};
    s.merge(one);
    EXPECT_TRUE(std::has_single_bit(s.capacity())) << s.capacity();
    EXPECT_GE(s.capacity(), s.size());
  }
  FlatSet<int> big;
  for (int v = 0; v < 100; ++v) big.insert(2 * v + 1);
  FlatSet<int> fresh{0};
  fresh.merge(big);
  EXPECT_EQ(fresh.size(), 101u);
  EXPECT_EQ(fresh.capacity(), 128u);
}

TEST(FlatSetMerge, CapacityFollowsTheUnionNotTheSumOfSizes) {
  FlatSet<int> a;
  for (int v = 0; v < 40; ++v) a.insert(v);
  ASSERT_EQ(a.capacity(), 64u);
  FlatSet<int> b;
  for (int v = 20; v < 60; ++v) b.insert(v);
  a.merge(b);  // 80 elements in, 60 distinct: fits without growing
  EXPECT_EQ(a.size(), 60u);
  EXPECT_EQ(a.capacity(), 64u);
  a.merge(b);  // a subset changes nothing
  EXPECT_EQ(a.size(), 60u);
}

}  // namespace
}  // namespace str
