// Bit-twiddling helpers shared by the oblivious primitives.
//
// These are all branch-free (or depend only on *public* values such as array
// sizes), which is what the sorting / routing networks require.

#ifndef OBLIVDB_COMMON_BITS_H_
#define OBLIVDB_COMMON_BITS_H_

#include <cstddef>
#include <cstdint>

namespace oblivdb {

// Smallest power of two >= n.  CeilPow2(0) == 1.
uint64_t CeilPow2(uint64_t n);

// Largest power of two strictly less than n.  Requires n >= 2.
// This is the hop schedule used by bitonic merges on arbitrary-length inputs.
uint64_t GreatestPow2LessThan(uint64_t n);

// ceil(log2(n)) for n >= 1; Log2Ceil(1) == 0.
uint32_t Log2Ceil(uint64_t n);

// floor(log2(n)) for n >= 1.
uint32_t Log2Floor(uint64_t n);

// True iff n is a power of two (n > 0).
inline bool IsPow2(uint64_t n) { return n != 0 && (n & (n - 1)) == 0; }

// Deterministic per-stream seed derivation: the splitmix64 finalizer over
// seed ^ golden-ratio-spread stream.  Distinct streams give independent-
// looking values from one root seed.  This is the one mixing function the
// whole library shares — ExecContext::DeriveSeed (retry and session seeds)
// and the fault injector's per-arrival decisions (common/fault.h)
// both delegate here, so "seeded from ExecContext::DeriveSeed" is literal.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// splitmix64 step: advances `state` and returns the next 64-bit value.
// The deterministic filler for synthetic data (tests, benches) — fast,
// seedable, and good enough where cryptographic quality is not required
// (those callers use crypto/chacha20.h).
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace oblivdb

#endif  // OBLIVDB_COMMON_BITS_H_
