// Seeded RNG utilities. All nondeterminism in deterministic-mode runs is
// derived from one user-supplied seed so that every schedule is replayable.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace mpcn {

// SplitMix64: used to derive independent stream seeds from a master seed.
std::uint64_t splitmix64(std::uint64_t& state);

// Rng draws std::mt19937_64's output stream: for every seed the same
// words, and through index/range/chance/fork the same numbers that the
// std distributions draw from that engine. It computes the stream itself
// because a run draws few numbers: a PCT schedule draws about four, and
// std::mt19937_64 seeds all 312 state words at construction and twists
// all of them before its first draw. Here construction stores the seed
// alone; draw k of the first block seeds the words up to k + 156 (the
// ones twisting word k reads) and then twists word k in place, in the
// standard's order. Later blocks twist whole. The twist selects its
// matrix term with a mask instead of a branch on each word's low bit, a
// branch the predictor misses about half the time.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { x_[0] = seed; }

  // Uniform in [0, n). n must be > 0.
  std::size_t index(std::size_t n);
  // Uniform in [lo, hi] inclusive.
  int range(int lo, int hi);
  // Bernoulli with probability p.
  bool chance(double p);
  // Derive a child seed (stable given call order).
  std::uint64_t fork();

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

 private:
  static constexpr std::uint32_t kWords = 312;
  // The word stream as a uniform random bit generator, for the std
  // distributions (defined in rng.cc).
  struct Words;

  std::uint64_t next();
  void twist_next();

  std::uint64_t x_[kWords];   // state; only words seeded so far are set
  std::uint32_t pos_ = 0;     // next word of the block to temper
  std::uint32_t twisted_ = 0;  // words of the block twisted so far
};

}  // namespace mpcn
