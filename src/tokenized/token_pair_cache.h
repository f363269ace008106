// Corpus-wide memoization of token-level Levenshtein distances, keyed on
// interned token-id pairs — a two-tier cache: spinlocked shared shards
// visible to every verify thread, fronted by a private per-worker L1 tier
// that answers the hot repeats without any cross-thread traffic.
//
// The verify stage (Sec. III-F) computes LD between tokens of candidate
// pairs, and real corpora repeat tokens heavily across *candidates*, not
// just within one bigraph: "Smith" meets "Smyth" once per candidate pair
// that contains them. BoundedSld's in-pair duplicate memoization cannot
// see those repeats; this cache can, because Corpus interns every distinct
// token to a TokenId and the id pair (min, max) — LD is symmetric —
// identifies the computation globally.
//
// Budget-dependent entries. The bounded edge kernel computes
// min(LD, cap + 1) for a row-dependent cap, so a cached value is not
// always the exact distance. Each entry therefore records the cap it was
// computed at, and the pair (dist, cap) is interpreted as:
//   * dist <= cap  — dist is the exact LD (the bounded kernel returns the
//     true distance whenever it is within the cap); the entry answers a
//     query at ANY cap as min(dist, query_cap + 1);
//   * dist == cap + 1 — only a certificate that LD > cap; the entry
//     answers queries at query_cap <= cap (the answer is query_cap + 1)
//     and MISSES for larger caps, which must recompute and may then
//     upgrade the entry. An entry is never served below its computed cap's
//     strength, and Insert never downgrades: exact beats certificate, and
//     a larger-cap certificate beats a smaller-cap one.
//
// Shared tier. The edge kernel it short-circuits costs tens of
// nanoseconds on typical tokens, so the cache must too: entries are 16
// bytes (64-bit key, 64-bit packed dist/cap) in open-addressed flat
// tables — no node allocations, one or two cache lines per probe —
// sharded 64 ways behind one spinlock each (lookups hold it for a handful
// of instructions; hit/miss counters are relaxed atomics), so the verify
// thread pool stays thread-safe. Tokens are id-interned per Corpus, so
// one cache must only ever be used with one corpus (BoundedSld's token-id
// overload takes both).
//
// L1 tier and the two-tier probe contract. At workers == hardware
// concurrency every shared-shard probe is a spinlock acquisition plus a
// coherence round-trip on lines other cores are writing; the L1 tier
// (TokenPairL1Cache, one per SldVerifyScratch, i.e. per verify thread)
// removes that from the hot path:
//   * probes hit the L1 first — a fixed-size (2^14-slot), two-way
//     open-addressed table private to the worker, probed with zero
//     atomics; entries follow exactly the (dist, cap) semantics above;
//   * an L1 miss falls through to the shared tier only when the modeled
//     kernel cost clears the (pricier) shared-probe gate; a shared hit
//     installs the entry into the L1 at full strength;
//   * freshly computed values install into the L1 immediately, and the
//     shared-tier upsert is *deferred*: pending upserts accumulate in a
//     small buffer and flush in shard-grouped batches (one lock
//     acquisition per touched shard per batch, instead of one per edge),
//     either when the buffer fills or when the verify loop reaches a
//     reduce-group boundary and calls Flush;
//   * aging is eviction-by-overwrite: a newcomer that finds both of its
//     slots held by foreign keys replaces its home slot, so stale entries
//     rotate out without clocks or tombstones. Losing (or never
//     flushing) an entry is always safe — both tiers are pure memoization
//     and every served value equals what the kernel would compute.
// The L1 binds to one shared cache (pointer + generation, so a Clear() or
// a new cache at a recycled address invalidates it) and resets itself on
// rebinding, which keeps the corpus-affinity contract intact even though
// SldVerifyScratch is typically thread-local across runs.
//
// Observability: the shared tier counts its own hits/misses exactly; the
// L1 accumulates hit/miss counts locally (no atomics on the probe path)
// and publishes them into the shared tier's relaxed counters at Flush,
// together with the flush batch/record totals, so a caller reads per-tier
// hit rates off the shared cache alone.

#ifndef TSJ_TOKENIZED_TOKEN_PAIR_CACHE_H_
#define TSJ_TOKENIZED_TOKEN_PAIR_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "tokenized/tokenized_string.h"

namespace tsj {

class TokenPairL1Cache;

/// Sharded, thread-safe cache of bounded token-pair Levenshtein results
/// (the shared tier; see the file comment for the two-tier contract).
class TokenPairCache {
 public:
  TokenPairCache();
  TokenPairCache(const TokenPairCache&) = delete;
  TokenPairCache& operator=(const TokenPairCache&) = delete;

  /// Answers LD(a, b) clamped at cap + 1 from the cache if an entry of
  /// sufficient strength exists (see the file comment); returns true and
  /// sets *dist on a hit. A miss (false) leaves *dist untouched.
  bool Lookup(TokenId a, TokenId b, int64_t cap, uint32_t* dist);

  /// Records dist = min(LD(a, b), cap + 1) computed at `cap`. Never
  /// downgrades an existing entry.
  void Insert(TokenId a, TokenId b, int64_t cap, uint32_t dist);

  /// Lookup calls answered from the shared shards.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Lookup calls that had to fall through to the DP.
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Probes answered by L1 tiers fronting this cache (published by
  /// TokenPairL1Cache::Flush, so slightly stale until the next flush).
  uint64_t l1_hits() const {
    return l1_hits_.load(std::memory_order_relaxed);
  }
  /// L1-tier probes that missed the L1 (they either fell through to the
  /// shared shards — counted above too — or recomputed below the gate).
  uint64_t l1_misses() const {
    return l1_misses_.load(std::memory_order_relaxed);
  }
  /// Deferred-upsert batches flushed into the shards.
  uint64_t flush_batches() const {
    return flush_batches_.load(std::memory_order_relaxed);
  }
  /// Deferred upserts flushed into the shards (records, not batches).
  uint64_t flushed_records() const {
    return flushed_records_.load(std::memory_order_relaxed);
  }
  /// Distinct token-id pairs currently cached.
  size_t size() const;

  /// Identity of this cache's current contents: bumped by construction
  /// and by Clear(), so an L1 tier can detect that its bound shared cache
  /// is no longer the one it cached from (even at a recycled address).
  uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  /// Drops all entries and resets the hit/miss counters.
  void Clear();

 private:
  friend class TokenPairL1Cache;

  // Open-addressed table with linear probing; slot i is keys[i]/vals[i].
  // keys hold the packed (min, max) id pair, vals the packed (cap, dist).
  // Grows by doubling at ~60% load under the shard lock.
  struct Shard {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    std::vector<uint64_t> keys;
    std::vector<uint64_t> vals;
    size_t count = 0;
  };
  static constexpr size_t kNumShards = 64;

  // Insert body with the shard lock already held (Insert and the batched
  // flush share it).
  static void InsertLocked(Shard* shard, uint64_t key, uint64_t fresh);

  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> l1_hits_{0};
  std::atomic<uint64_t> l1_misses_{0};
  std::atomic<uint64_t> flush_batches_{0};
  std::atomic<uint64_t> flushed_records_{0};
  std::atomic<uint64_t> generation_;
};

/// Per-worker L1 tier in front of a TokenPairCache (see the file
/// comment). Single-threaded by design: one instance lives in each
/// SldVerifyScratch and is only ever touched by the thread that owns the
/// scratch. Allocation happens lazily on first bind (a scratch that never
/// verifies with a cache pays nothing).
class TokenPairL1Cache {
 public:
  TokenPairL1Cache() = default;
  TokenPairL1Cache(const TokenPairL1Cache&) = delete;
  TokenPairL1Cache& operator=(const TokenPairL1Cache&) = delete;

  /// Binds this L1 to `shared`. A no-op when already bound to it (same
  /// pointer and generation); otherwise resets every slot, drops pending
  /// upserts and unpublished statistics (they belong to the old cache),
  /// and adopts the new identity. BoundedSld calls this once per verify.
  void BindTo(const TokenPairCache* shared);

  /// Two-tier probe at `cap`: L1 first (no atomics), then — only when
  /// `consult_shared` is set, i.e. the edge clears the shared-probe cost
  /// gate — the shared shards, installing a shared hit into the L1 at
  /// full strength. Returns true and sets *dist on a hit in either tier.
  /// Requires a prior BindTo(shared).
  bool Lookup(TokenPairCache* shared, TokenId a, TokenId b, int64_t cap,
              uint32_t* dist, bool consult_shared);

  /// Records a freshly computed dist = min(LD(a, b), cap + 1): installs
  /// it into the L1 and — only when `defer_shared` is set, i.e. the edge
  /// clears the shared-tier cost gate — defers the shared-tier upsert,
  /// flushing the pending batch into `shared` when the buffer fills.
  /// Edges below that gate stay worker-local: publishing them would cost
  /// more than their kernel. Requires a prior BindTo(shared).
  void Insert(TokenPairCache* shared, TokenId a, TokenId b, int64_t cap,
              uint32_t dist, bool defer_shared);

  /// Drains the deferred upserts into `shared` (shard-grouped: one lock
  /// acquisition per touched shard) and publishes the locally accumulated
  /// L1 hit/miss statistics. Safe to call any time, including when
  /// nothing is pending or bound.
  void Flush(TokenPairCache* shared);

  /// The reduce-group-boundary flush: publishes statistics
  /// unconditionally (so run counters stay exact) but drains the
  /// deferred upserts only once at least kMinFlushRecords accumulated —
  /// tiny reduce groups thereby batch their upserts *across* groups
  /// instead of taking shard locks per group. A worker's final partial
  /// batch (< kMinFlushRecords when its last group ends) may never reach
  /// the shared tier, which is safe: both tiers are pure memoization.
  void FlushIfBatchReady(TokenPairCache* shared);

  /// Slots currently holding an entry (testing/introspection).
  size_t size() const;

 private:
  static constexpr size_t kNumSlots = size_t{1} << 14;  // 256 KiB/worker
  static constexpr size_t kPendingCapacity = 256;
  static constexpr size_t kMinFlushRecords = 64;

  struct PendingUpsert {
    uint64_t key;
    uint64_t val;
  };

  // Installs `val` for `key` into the L1 slots only (upgrade-if-stronger
  // on a key match, eviction-by-overwrite otherwise).
  void InstallLocal(uint64_t key, uint64_t val);

  const TokenPairCache* bound_ = nullptr;
  uint64_t bound_generation_ = 0;
  std::vector<uint64_t> keys_;  // kNumSlots once bound; kEmptyKey = free
  std::vector<uint64_t> vals_;
  // Deferred upserts, already grouped by destination shard so Flush walks
  // each shard's run under one lock acquisition with no sorting.
  std::vector<std::vector<PendingUpsert>> pending_by_shard_;
  size_t pending_count_ = 0;
  // Accumulated locally, published to the shared tier at Flush.
  uint64_t unpublished_hits_ = 0;
  uint64_t unpublished_misses_ = 0;
};

}  // namespace tsj

#endif  // TSJ_TOKENIZED_TOKEN_PAIR_CACHE_H_
