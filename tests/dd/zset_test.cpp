#include "dd/zset.h"

#include <gtest/gtest.h>

#include <string>

namespace rcfg::dd {
namespace {

TEST(ZSet, AddConsolidates) {
  ZSet<int> z;
  z.add(1, 2);
  z.add(1, -2);
  EXPECT_TRUE(z.empty());
  EXPECT_EQ(z.weight(1), 0);

  z.add(2, 1);
  z.add(2, 1);
  EXPECT_EQ(z.weight(2), 2);
  EXPECT_EQ(z.size(), 1u);
}

TEST(ZSet, ZeroWeightIgnored) {
  ZSet<int> z;
  z.add(1, 0);
  EXPECT_TRUE(z.empty());
}

TEST(ZSet, MergeIsGroupAddition) {
  ZSet<std::string> a, b;
  a.add("x", 1);
  a.add("y", -1);
  b.add("x", -1);
  b.add("z", 3);
  a.merge(b);
  EXPECT_EQ(a.weight("x"), 0);
  EXPECT_EQ(a.weight("y"), -1);
  EXPECT_EQ(a.weight("z"), 3);
  EXPECT_EQ(a.size(), 2u);
}

TEST(ZSet, MoveMergeIntoEmpty) {
  ZSet<int> a, b;
  b.add(7, 2);
  a.merge(std::move(b));
  EXPECT_EQ(a.weight(7), 2);
  EXPECT_TRUE(b.empty());
}

TEST(ZSet, Difference) {
  ZSet<int> to, from;
  to.add(1, 1);
  to.add(2, 1);
  from.add(2, 1);
  from.add(3, 1);
  const auto d = ZSet<int>::difference(to, from);
  EXPECT_EQ(d.weight(1), 1);
  EXPECT_EQ(d.weight(2), 0);
  EXPECT_EQ(d.weight(3), -1);

  // from + d == to
  ZSet<int> check = from;
  check.merge(d);
  EXPECT_EQ(check, to);
}

TEST(ZSet, IsSetLike) {
  ZSet<int> z;
  z.add(1, 1);
  z.add(2, 5);
  EXPECT_TRUE(z.is_set_like());
  z.add(3, -1);
  EXPECT_FALSE(z.is_set_like());
}

TEST(ZSet, WorksWithPairsAndVectors) {
  ZSet<std::pair<int, std::string>> zp;
  zp.add({1, "a"}, 1);
  zp.add({1, "b"}, 1);
  EXPECT_EQ(zp.size(), 2u);

  ZSet<std::vector<int>> zv;
  zv.add({1, 2, 3}, 1);
  zv.add({1, 2, 3}, 1);
  EXPECT_EQ(zv.weight({1, 2, 3}), 2);
}

}  // namespace
}  // namespace rcfg::dd
