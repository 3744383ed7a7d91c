#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/hash.hpp"
#include "util/timer.hpp"

namespace decycle::util {
namespace {

TEST(Hash, CombineIsOrderSensitive) {
  const std::uint64_t a = hash_combine(hash_combine(0, 1), 2);
  const std::uint64_t b = hash_combine(hash_combine(0, 2), 1);
  EXPECT_NE(a, b);
}

TEST(Hash, SpanHashDetectsPermutation) {
  const std::vector<std::uint64_t> fwd{1, 2, 3, 4};
  const std::vector<std::uint64_t> rev{4, 3, 2, 1};
  EXPECT_NE(hash_span(fwd), hash_span(rev));
  EXPECT_EQ(hash_span(fwd), hash_span(std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(Hash, FewCollisionsOnSequentialKeys) {
  std::set<std::size_t> values;
  PairHash hasher;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    values.insert(hasher({i, i + 1}));
  }
  EXPECT_EQ(values.size(), 1000u);  // sequential pairs should not collide
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer timer;
  // Burn a bit of CPU deterministically.
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 2'000'000; ++i) acc += splitmix64(i);
  EXPECT_NE(acc, 0u);  // keep the loop alive
  EXPECT_GT(timer.seconds(), 0.0);
  EXPECT_GE(timer.millis(), timer.seconds() * 1000.0 * 0.99);
  timer.restart();
  EXPECT_LT(timer.seconds(), 1.0);
}

}  // namespace
}  // namespace decycle::util
