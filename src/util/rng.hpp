// Deterministic random-number infrastructure.
//
// Every stochastic component in the library takes an explicit seed or an
// RngStream. Seeds fan out through SplitMix64 so that entities created from
// the same master seed (workers of a simulation, applications of a batch,
// repetitions of an experiment) receive statistically independent streams
// and the whole experiment is reproducible from a single 64-bit value.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <random>

namespace cdsf::util {

/// SplitMix64: tiny, high-quality 64-bit mixer (Steele, Lea, Flood 2014).
/// Used both as a stand-alone generator for seed fan-out and to whiten
/// user-provided seeds before they reach Mt19937_64.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit value.
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// MT19937-64 with exactly the output sequence that the standard defines for
/// std::mt19937_64 (so every std:: distribution sees the same bits), but
/// with its work spread over the draws: seed words are computed only as the
/// first block needs them, and the state is twisted one word per draw
/// instead of a whole 312-word block at a time. Twisting word i in place,
/// in index order, reads words (i + 1) mod 312 and (i + 156) mod 312 in the
/// state the sweep has left them, which is exactly what the block twist
/// reads. A stream that draws k < 156 values therefore pays for 156 + k
/// seed words and k twists, not 312 of each.
class Mt19937_64 {
 public:
  using result_type = std::uint_fast64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) noexcept { state_[0] = seed; }

  result_type operator()() noexcept {
    if (seeded_ < kN) seed_ahead();
    const std::size_t p = next_;
    const std::size_t after = p + 1 < kN ? p + 1 : 0;
    const std::size_t ahead = p < kN - kM ? p + kM : p - (kN - kM);
    const std::uint64_t y = (state_[p] & kUpperMask) | (state_[after] & kLowerMask);
    const std::uint64_t word = state_[ahead] ^ (y >> 1) ^ ((y & 1U) != 0U ? kMatrixA : 0U);
    state_[p] = word;
    next_ = after;
    return temper(word);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
  static constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kLowerMask = ~kUpperMask;
  static constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;

  /// Seeds every word the draw at next_ reads: up to next_ + kM while the
  /// first block runs, all kN words once it is past kN - kM.
  void seed_ahead() noexcept {
    const std::size_t need = std::min(kN, next_ + kM + 1);
    for (; seeded_ < need; ++seeded_) {
      const std::uint64_t prev = state_[seeded_ - 1];
      state_[seeded_] = kInitMultiplier * (prev ^ (prev >> 62)) + seeded_;
    }
  }

  static constexpr std::uint64_t temper(std::uint64_t z) noexcept {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  std::array<std::uint64_t, kN> state_{};
  std::size_t seeded_ = 1;  // words [0, seeded_) hold their seed (or a later) value
  std::size_t next_ = 0;    // word the next draw twists and returns
};

/// A seeded random stream. Thin wrapper over Mt19937_64 exposing the
/// UniformRandomBitGenerator interface plus convenience draws.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : engine_(whiten(seed)) {}

  using result_type = Mt19937_64::result_type;
  static constexpr result_type min() { return Mt19937_64::min(); }
  static constexpr result_type max() { return Mt19937_64::max(); }
  result_type operator()() { return engine_(); }

  /// Uniform double in [0, 1).
  double uniform01() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Standard normal draw.
  double normal() {
    return std::normal_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Normal draw with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  Mt19937_64& engine() noexcept { return engine_; }

 private:
  static std::uint64_t whiten(std::uint64_t seed) {
    return SplitMix64(seed).next();
  }
  Mt19937_64 engine_;
};

/// Deterministic fan-out of one master seed into independent child seeds.
/// child(i) is stable: it does not depend on the order other children are
/// requested in.
class SeedSequence {
 public:
  explicit constexpr SeedSequence(std::uint64_t master) noexcept
      : master_(master) {}

  /// Seed for the i-th child entity.
  [[nodiscard]] constexpr std::uint64_t child(std::uint64_t index) const noexcept {
    SplitMix64 mixer(master_ ^ (0xA5A5A5A5A5A5A5A5ULL + index * 0x9E3779B97F4A7C15ULL));
    mixer.next();
    return mixer.next();
  }

  /// Convenience: a ready-made stream for the i-th child.
  [[nodiscard]] RngStream stream(std::uint64_t index) const {
    return RngStream(child(index));
  }

  [[nodiscard]] constexpr std::uint64_t master() const noexcept { return master_; }

 private:
  std::uint64_t master_;
};

}  // namespace cdsf::util
