// Unit tests: Rng draws std::mt19937_64's stream, and through its
// distributions the numbers the std distributions draw from that engine.
// The reference is the standard library itself.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "src/common/rng.h"

namespace mpcn {
namespace {

// The same three draws as Rng, through std::mt19937_64 and the std
// distributions.
class StdRng {
 public:
  explicit StdRng(std::uint64_t seed) : engine_(seed) {}
  std::size_t index(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }
  bool chance(double p) { return std::bernoulli_distribution(p)(engine_); }
  std::uint64_t fork() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

// The named seeds, then 2,000 spread over all 64 bits.
std::vector<std::uint64_t> test_seeds() {
  std::vector<std::uint64_t> seeds{0, 1, 7919, ~std::uint64_t{0}};
  std::uint64_t state = 20261019;
  for (int i = 0; i < 2000; ++i) seeds.push_back(splitmix64(state));
  return seeds;
}

TEST(RngStream, WordsMatchStdMt19937_64AtEveryBlockEdge) {
  // A fresh generator per length: the first block is twisted lazily, so
  // a stream that stops at, or just past, a block or half-block edge
  // takes a path of its own.
  const std::vector<int> lengths{1,   155, 156, 157, 311,
                                 312, 313, 624, 625, 10000};
  for (const std::uint64_t seed : test_seeds()) {
    for (const int length : lengths) {
      Rng rng(seed);
      std::mt19937_64 ref(seed);
      for (int i = 0; i < length; ++i) {
        const std::uint64_t want = ref();
        const std::uint64_t got = rng.fork();
        if (got != want) {
          FAIL() << "seed " << seed << ", stream length " << length
                 << ": word " << i << " is " << got << ", want " << want;
        }
      }
    }
  }
}

TEST(RngStream, TenThousandthWordOfDefaultSeedIsTheStandardsValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces this value.
  Rng rng(5489);
  std::uint64_t word = 0;
  for (int i = 0; i < 10000; ++i) word = rng.fork();
  EXPECT_EQ(word, 9981545732273789042ull);
}

TEST(RngStream, IndexMatchesStdUniformIntDistribution) {
  // 2^63 + 1 rejects almost half of all words, so its draws take one or
  // more words each.
  const std::vector<std::size_t> ns{1, 2, 3, 7, std::size_t{1} << 20,
                                    (std::size_t{1} << 63) + 1};
  for (const std::size_t n : ns) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(seed);
      StdRng ref(seed);
      for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(rng.index(n), ref.index(n))
            << "n " << n << ", seed " << seed << ", draw " << i;
      }
    }
  }
}

TEST(RngStream, ChanceMatchesStdBernoulliDistribution) {
  const std::vector<double> ps{0.0, 1e-300, 0.001, 0.2, 0.5,
                               std::nextafter(1.0, 0.0), 1.0};
  for (const double p : ps) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(seed);
      StdRng ref(seed);
      for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(rng.chance(p), ref.chance(p))
            << "p " << p << ", seed " << seed << ", draw " << i;
      }
    }
  }
}

TEST(RngStream, ChanceDecidesAtTheRoundedWord) {
  // p * 2^64 set to double(x) of the very word x a draw reads: the draw
  // is false there and true one double above, so chance rounds each
  // word exactly as the standard conversion does.
  for (const std::uint64_t seed : {1ull, 7919ull}) {
    std::mt19937_64 words(seed);
    Rng rng(seed);
    StdRng ref(seed);
    for (int i = 0; i < 2000; ++i) {
      const double at = static_cast<double>(words());
      const bool above = i % 2 == 1;
      const double p =
          std::ldexp(above ? std::nextafter(at, 0x1p65) : at, -64);
      ASSERT_EQ(ref.chance(p), above) << "reference, draw " << i;
      ASSERT_EQ(rng.chance(p), above) << "seed " << seed << ", draw " << i;
    }
  }
}

TEST(RngStream, PctAndHazardInterleavingsMatchStd) {
  // PctPolicy draws its change points with index(horizon - 1), a
  // priority with index(2^20) at each thread's first sight, and with a
  // crash director one chance(rate) per grant; a hazard plan draws one
  // chance(p) per eligible step. Run both patterns across the first
  // block's lazy words and into the second block.
  for (const std::uint64_t seed : {1ull, 2ull, 7919ull, 1010010ull}) {
    Rng rng(seed);
    StdRng ref(seed);
    for (int i = 0; i < 3; ++i) ASSERT_EQ(rng.index(119), ref.index(119));
    for (int grant = 0; grant < 700; ++grant) {
      if (grant % 97 < 3) {
        ASSERT_EQ(rng.index(1u << 20), ref.index(1u << 20)) << grant;
      }
      ASSERT_EQ(rng.chance(0.1), ref.chance(0.1)) << grant;
    }
    Rng hazard(seed);
    StdRng hazard_ref(seed);
    for (int step = 0; step < 700; ++step) {
      ASSERT_EQ(hazard.chance(0.001), hazard_ref.chance(0.001)) << step;
    }
  }
}

TEST(RngStream, MixedDrawsMatchStd) {
  // Every draw kind, in an order picked by a separate stream.
  for (const std::uint64_t seed : test_seeds()) {
    Rng rng(seed);
    StdRng ref(seed);
    std::uint64_t pick = seed;
    for (int i = 0; i < 400; ++i) {
      switch (splitmix64(pick) % 3) {
        case 0:
          ASSERT_EQ(rng.index(5 + i), ref.index(5 + i)) << seed << "/" << i;
          break;
        case 1:
          ASSERT_EQ(rng.chance(0.3), ref.chance(0.3)) << seed << "/" << i;
          break;
        default:
          ASSERT_EQ(rng.fork(), ref.fork()) << seed << "/" << i;
          break;
      }
    }
  }
}

}  // namespace
}  // namespace mpcn
