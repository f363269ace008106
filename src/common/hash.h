// Deterministic 64-bit fingerprints and hash-combining utilities.
//
// TSJ relies on fingerprints in two places the paper calls out explicitly:
// the hash-balanced key choice of the grouping-on-one-string dedup strategy
// (Sec. III-G.3) and hash partitioning of keys across MapReduce workers.
// The fingerprints must be stable across runs and platforms so joins are
// reproducible; std::hash gives no such guarantee, so we implement our own.

#ifndef TSJ_COMMON_HASH_H_
#define TSJ_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace tsj {

/// 64-bit FNV-1a fingerprint of a byte string. Stable across runs/platforms.
uint64_t Fingerprint64(std::string_view data);

/// Stable 64-bit mix of an integer (splitmix64 finalizer). Inline: it runs
/// once per shuffle record in partition routing and twice per emitted
/// candidate in the dedup key choice.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Combines two 64-bit hashes order-sensitively.
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

/// Fingerprint of an ordered pair of ids; order-sensitive.
inline uint64_t FingerprintPair(uint64_t a, uint64_t b) {
  return HashCombine(Mix64(a), Mix64(b));
}

}  // namespace tsj

#endif  // TSJ_COMMON_HASH_H_
