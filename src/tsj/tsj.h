// Tokenized-String Joiner (TSJ), the paper's core framework (Sec. III):
// a generate-filter-verify NSLD self-join executed as a MapReduce pipeline.
//
//   generate: shared-token candidates (one reduce group per token,
//             Sec. III-C) plus similar-token candidates through a MassJoin
//             NLD-join over the token space (Sec. III-D, justified by
//             Theorem 3);
//   filter:   high-frequency tokens dropped up front (M, Sec. III-G.2);
//             the Lemma 6 length bound and the token-length-histogram SLD
//             lower bound (Sec. III-E), both lossless, applied together
//             where candidates are emitted (the shared-token reduce and
//             the similar-token expansion), so the dedup shuffle only
//             carries pairs that can still join. The bounds read the flat
//             Corpus columns (tokenized/corpus.h): per string, one
//             aggregate length and one histogram span;
//   verify:   surviving pairs checked with the budget-aware SLD engine
//             (tokenized/sld.h): the NSLD threshold becomes an integer SLD
//             budget, and BoundedSld certifies "within" (with the exact
//             SLD, so reported NSLD values match the unbounded path
//             byte-for-byte) or "over" while skipping the DP/solver work a
//             doomed pair would waste (Sec. III-F; exact Hungarian or
//             greedy-token-aligning per Sec. III-G.5). Every distinct
//             candidate is verified once, each bigraph edge by one scalar
//             bounded Myers pass; no token-pair cache sits in front of
//             the kernel. When both sides share one Corpus the engine
//             runs directly on interned token-id spans with no
//             per-candidate materialization; cross-corpus joins resolve
//             ids into per-thread scratch via Corpus::MaterializeInto.
//
// Every stage runs on the in-process MapReduce engine and records JobStats,
// so a run can be replayed through the simulated-cluster model at any
// machine count (Figs. 1-3, 7).

#ifndef TSJ_TSJ_TSJ_H_
#define TSJ_TSJ_TSJ_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "mapreduce/job_stats.h"
#include "tokenized/corpus.h"
#include "tsj/options.h"

namespace tsj {

/// One joined pair: string ids (a < b) and their exact (or greedy,
/// depending on TsjOptions::aligning) NSLD.
struct TsjPair {
  StringId a = 0;
  StringId b = 0;
  double nsld = 0.0;

  bool operator==(const TsjPair& other) const {
    return a == other.a && b == other.b;
  }
};

/// Counters and per-job statistics of one TSJ run.
struct TsjRunInfo {
  /// Per-job MapReduce statistics, in execution order.
  PipelineStats pipeline;

  /// Distinct tokens ignored because they occur in more than M strings.
  uint64_t dropped_tokens = 0;
  /// Candidate pairs generated by the shared-token pass (pre-dedup,
  /// counted before the length filter).
  uint64_t shared_token_candidates = 0;
  /// Similar (non-identical) token pairs found by the MassJoin NLD-join.
  uint64_t similar_token_pairs = 0;
  /// Candidate pairs generated by expanding similar token pairs
  /// (pre-dedup, counted before the length filter).
  uint64_t similar_token_candidates = 0;
  /// Distinct candidate pairs the dedup stage hands to verification:
  /// every one passed both emit-time filters, so this equals
  /// verified_candidates.
  uint64_t distinct_candidates = 0;
  /// Pre-dedup pairs the length filter (Sec. III-E.1) dropped where they
  /// were emitted (shared-token reduce, similar-token expansion), so they
  /// never entered the dedup shuffle. Pairs, not distinct pairs: one pair
  /// generated through several tokens counts once per emission. Zero when
  /// the filter is disabled.
  uint64_t length_filtered = 0;
  /// Pre-dedup pairs that passed the length filter but were dropped by
  /// the histogram filter (Sec. III-E.2) where they were emitted; counted
  /// like length_filtered. Every generated pair is length-pruned,
  /// histogram-pruned or emitted once, so length_filtered +
  /// histogram_filtered + distinct_candidates <= shared_token_candidates
  /// + similar_token_candidates. Zero when the filter is disabled.
  uint64_t histogram_filtered = 0;
  /// Distinct candidates that reached full SLD verification; equals
  /// distinct_candidates.
  uint64_t verified_candidates = 0;
  /// Deterministic work units spent inside SLD verification (same units as
  /// SldWorkUnits). With budgeted verify this counts the operations
  /// actually performed, so comparing it against an
  /// enable_budgeted_verify=false run measures the verification saving
  /// directly (bench_ablation does exactly that).
  uint64_t verify_work_units = 0;
  /// Always 0 for TSJ, which verifies without a token-pair cache or a
  /// batched kernel. Kept only because the repository benchmark
  /// (perfbench/bench.cc) still reads these seven fields.
  uint64_t token_pair_cache_l1_hits = 0;
  /// Always 0 for TSJ; kept only for the benchmark (see above).
  uint64_t token_pair_cache_l1_misses = 0;
  /// Always 0 for TSJ; kept only for the benchmark (see above).
  uint64_t token_pair_cache_hits = 0;
  /// Always 0 for TSJ; kept only for the benchmark (see above).
  uint64_t token_pair_cache_misses = 0;
  /// Always 0 for TSJ; kept only for the benchmark (see above).
  uint64_t token_pair_cache_flush_batches = 0;
  /// Always 0 for TSJ; kept only for the benchmark (see above).
  uint64_t batched_verify_lanes_filled = 0;
  /// Always 0 for TSJ; kept only for the benchmark (see above).
  uint64_t batched_verify_lane_slots = 0;
  /// Records scanned by the shuffle combiner (streaming mode; pre-combine
  /// candidate volume) and records it kept. input - output is the shuffle
  /// traffic the combiner removed before the dedup/verify stage boundary.
  uint64_t combiner_input_records = 0;
  uint64_t combiner_output_records = 0;
  /// Shuffle partition count the run actually executed with (the adaptive
  /// planner's choice when TsjOptions::adaptive_partitions is on,
  /// otherwise the configured fixed count).
  uint64_t shuffle_partitions = 0;
  /// External-memory spill counters (mapreduce/spill.h), summed across
  /// the run's jobs; all zero when TsjOptions::enable_shuffle_spill is
  /// off or the budget never overflowed. spilled_records counts records
  /// written to disk as sorted runs (post-flush-combine); merge_passes
  /// counts per-partition sort-merge passes (final streamed merges plus
  /// hierarchical pre-merges).
  uint64_t spilled_records = 0;
  uint64_t spill_files = 0;
  uint64_t spill_bytes = 0;
  /// Pre-compression serialized bytes (spill_raw_bytes / spill_bytes =
  /// the spill compression ratio; see JobStats::spill_raw_bytes).
  uint64_t spill_raw_bytes = 0;
  uint64_t merge_passes = 0;
  /// v2 spill frames that failed their checksum on read (each also
  /// surfaces as a lossy spill fault failing the join).
  uint64_t checksum_failures = 0;
  /// Merge-input read chunks served by the async prefetcher before the
  /// merge asked for them.
  uint64_t prefetch_hits = 0;
  /// Largest per-job high-water mark of records resident in memory under
  /// the spill policy (JobStats::peak_resident_records): the gauge that
  /// proves memory_budget_records was honored. Equals the in-memory peak
  /// when no spill ran.
  uint64_t peak_resident_records = 0;
  /// Task-level fault-tolerance counters (the fault contract in
  /// mapreduce.h), summed across the run's jobs: failed task attempts,
  /// deterministic lossless re-executions, tasks skipped after a fatal
  /// sibling failure tripped the job's cancellation token, and tasks the
  /// CC_TASK_TIMEOUT_MS watchdog observed running past the timeout. A
  /// fatal task error additionally fails the join (its Status is
  /// returned); retried-and-absorbed faults only show up here.
  uint64_t task_failures = 0;
  uint64_t task_retries = 0;
  uint64_t tasks_cancelled = 0;
  uint64_t tasks_degraded = 0;
  /// Checkpoint/restart and hedged-execution counters (the checkpoint
  /// and hedge contracts in mapreduce.h), summed across the run's jobs:
  /// map tasks whose output was sealed under checkpoint_dir, map tasks a
  /// restarted run skipped by restoring a validated checkpoint, hedged
  /// attempts launched for watchdog-flagged stragglers, and hedges that
  /// finished before their primary. All zero unless
  /// TsjOptions::enable_checkpointing / the watchdog armed them.
  uint64_t tasks_checkpointed = 0;
  uint64_t tasks_skipped_by_checkpoint = 0;
  uint64_t hedges_launched = 0;
  uint64_t hedges_won = 0;
  /// Pairs in the final result.
  uint64_t result_pairs = 0;
  /// Pipeline-wide high-water mark of shuffle-resident records: one
  /// ShuffleGauge threads through every MapReduce job of the run
  /// (including the MassJoin sub-pipeline) plus the candidate vectors
  /// living between jobs, so legacy-vs-streaming runs compare peak
  /// candidate-universe residency directly (bench_ablation reports the
  /// reduction).
  uint64_t peak_shuffle_records = 0;
};

/// The joiner. Thread-compatible: one instance may run joins sequentially;
/// distinct instances are independent.
class TokenizedStringJoiner {
 public:
  explicit TokenizedStringJoiner(TsjOptions options)
      : options_(options) {}

  /// Self-joins `corpus` (Sec. III-G.1): returns all pairs of distinct
  /// string ids whose NSLD is at most options.threshold. With
  /// TokenMatching::kFuzzy and TokenAligning::kExact the result is exact;
  /// the approximations only ever *miss* pairs (precision stays 1.0).
  /// Pairs are duplicate-free with a < b, in unspecified order.
  StatusOr<std::vector<TsjPair>> SelfJoin(const Corpus& corpus,
                                          TsjRunInfo* info = nullptr) const;

  /// Joins two collections (the general problem of Sec. II-B): returns all
  /// pairs (r, p), r in r_corpus and p in p_corpus, with
  /// NSLD(r, p) <= options.threshold. In each returned TsjPair, `a` is the
  /// id within r_corpus and `b` the id within p_corpus (no a < b
  /// normalization — the two id spaces are distinct). The token-frequency
  /// cutoff M applies to a token's total string count across both
  /// collections. Exactness/approximation guarantees match SelfJoin.
  StatusOr<std::vector<TsjPair>> Join(const Corpus& r_corpus,
                                      const Corpus& p_corpus,
                                      TsjRunInfo* info = nullptr) const;

  const TsjOptions& options() const { return options_; }

 private:
  TsjOptions options_;
};

}  // namespace tsj

#endif  // TSJ_TSJ_TSJ_H_
