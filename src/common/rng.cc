#include "src/common/rng.h"

#include <random>

namespace mpcn {

namespace {

// std::mt19937_64's parameters ([rand.predef]): the twist reads the word
// kShift ahead (m = 156), splits words at bit 31 (r) and xors kMatrix (a)
// into words with a low bit set; seeding multiplies by kSeedMul (f).
constexpr std::uint32_t kShift = 156;
constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ull;
constexpr std::uint64_t kSeedMul = 6364136223846793005ull;

std::uint64_t seed_word(std::uint64_t prev, std::uint32_t i) {
  return kSeedMul * (prev ^ (prev >> 62)) + i;
}

// The new value of a word: its own top 33 bits joined to the low 31 of
// the word after it, shifted right once, the matrix term masked in by
// the low bit, xor the word kShift ahead.
std::uint64_t twist(std::uint64_t word, std::uint64_t after,
                    std::uint64_t ahead) {
  const std::uint64_t y = (word & kUpper) | (after & ~kUpper);
  return ahead ^ (y >> 1) ^ (kMatrix & (0 - (y & 1)));
}

}  // namespace

struct Rng::Words {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return rng->next(); }
  Rng* rng;
};

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::next() {
  if (pos_ == twisted_) twist_next();
  std::uint64_t z = x_[pos_++];
  z ^= (z >> 29) & 0x5555555555555555ull;
  z ^= (z << 17) & 0x71d67fffeda60000ull;
  z ^= (z << 37) & 0xfff7eee000000000ull;
  return z ^ (z >> 43);
}

void Rng::twist_next() {
  if (pos_ == kWords) {
    // A later block: twist every word, in order, in place.
    std::uint32_t k = 0;
    for (; k < kWords - kShift; ++k) {
      x_[k] = twist(x_[k], x_[k + 1], x_[k + kShift]);
    }
    for (; k < kWords - 1; ++k) {
      x_[k] = twist(x_[k], x_[k + 1], x_[k + kShift - kWords]);
    }
    x_[k] = twist(x_[k], x_[0], x_[kShift - 1]);
    pos_ = 0;
    return;
  }
  // The first block, word k: seed the words up to k + kShift (the first
  // draw seeds words 1..156, each later one the next word), then twist
  // word k from the values the full twist would read at that point:
  // the word after it is seeded, or twisted word 0 for the last word,
  // and the word kShift away is seeded, or twisted from k = kShift on.
  // The seeding chain runs in a register, not through the stored words.
  const std::uint32_t k = pos_;
  if (k + kShift < kWords) {
    std::uint32_t i = k == 0 ? 1 : k + kShift;
    for (std::uint64_t word = x_[i - 1]; i <= k + kShift; ++i) {
      x_[i] = word = seed_word(word, i);
    }
  }
  x_[k] = twist(x_[k], x_[(k + 1) % kWords], x_[(k + kShift) % kWords]);
  twisted_ = k + 1;
}

std::size_t Rng::index(std::size_t n) {
  Words words{this};
  std::uniform_int_distribution<std::size_t> d(0, n - 1);
  return d(words);
}

bool Rng::chance(double p) {
  // std::bernoulli_distribution(p) over a 64-bit engine: one word x,
  // generate_canonical<double, 53> makes it double(x) / 2^64 clamped
  // below 1, and the draw is that < p. Scaled by 2^64 (exact), that is
  // double(x) < p * 2^64, except where the clamp decides (x rounds to
  // 2^64): then only p >= 1 is true, and p >= 1 is always true.
  // double(x) is taken in two exact halves whose sum rounds once, as
  // the conversion rounds; converting the whole word branches on its
  // top bit, a coin flip for the predictor.
  const std::uint64_t x = next();
  const double rounded = static_cast<double>(x >> 32) * 0x1p32 +
                         static_cast<double>(x & 0xffffffffu);
  return p >= 1 || rounded < p * 0x1p64;
}

std::uint64_t Rng::fork() {
  Words words{this};
  std::uniform_int_distribution<std::uint64_t> d;
  return d(words);
}

}  // namespace mpcn
