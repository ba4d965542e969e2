//===- common/Random.h - Deterministic pseudo-random numbers ----*- C++ -*-===//
///
/// \file
/// A seeded xorshift64* generator. Every stochastic choice in the simulator
/// (synthetic address streams, data-dependent branches) draws from an
/// explicitly seeded instance so runs are bit-for-bit reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMMON_RANDOM_H
#define HETSIM_COMMON_RANDOM_H

#include <cassert>
#include <cstdint>

namespace hetsim {

/// xorshift64* PRNG; small, fast, and deterministic across platforms.
class XorShiftRng {
public:
  explicit XorShiftRng(uint64_t Seed = 0x9E3779B97F4A7C15ull)
      : State(Seed == 0 ? 0x9E3779B97F4A7C15ull : Seed) {}

  /// Returns the next 64-bit value.
  uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545F4914F6CDD1Dull;
  }

  /// Returns a value uniformly in [0, Bound).
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound > 0 && "nextBelow requires a positive bound");
    return next() % Bound;
  }

  /// Returns a double uniformly in [0, 1).
  double nextDouble() {
    return double(next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Returns true with probability \p P.
  bool nextBool(double P) { return nextDouble() < P; }

private:
  uint64_t State;
};

} // namespace hetsim

#endif // HETSIM_COMMON_RANDOM_H
