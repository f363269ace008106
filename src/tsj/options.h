// Configuration of the Tokenized-String Joiner (Sec. III).

#ifndef TSJ_TSJ_OPTIONS_H_
#define TSJ_TSJ_OPTIONS_H_

#include <cstdint>

#include "common/status.h"
#include "mapreduce/mapreduce.h"
#include "tokenized/sld.h"

namespace tsj {

/// How similar-token candidates are generated (Sec. III-G.4).
enum class TokenMatching {
  /// Full similar-token generation through MassJoin NLD-joins plus the
  /// shared-token pass: the lossless configuration.
  kFuzzy,
  /// Exact-token-matching approximation: only the shared-token pass runs.
  /// Cheaper, misses pairs whose every common token was edited.
  kExact,
};

/// How duplicate candidate pairs are eliminated (Sec. III-G.3).
enum class DedupStrategy {
  /// One reduce group per *string*; the reducer dedups and verifies all of
  /// that string's candidates. Fewer workers, less instantiation overhead,
  /// more skew.
  kGroupOnOneString,
  /// One reduce group per *pair*. More workers, better load balance.
  kGroupOnBothStrings,
};

/// Tunables of a TSJ run. Defaults follow the paper's evaluation defaults
/// (T = 0.1, M = 1,000; Sec. V).
struct TsjOptions {
  /// NSLD threshold T: pairs with NSLD <= threshold are joined.
  double threshold = 0.1;

  /// High-frequency-token cutoff M (Sec. III-G.2): tokens contained in
  /// more than this many tokenized strings are ignored by candidate
  /// generation (both passes).
  uint32_t max_token_frequency = 1000;

  /// Candidate-generation mode (fuzzy vs. exact-token-matching).
  TokenMatching matching = TokenMatching::kFuzzy;

  /// Verification alignment (exact Hungarian vs. greedy-token-aligning,
  /// Sec. III-G.5).
  TokenAligning aligning = TokenAligning::kExact;

  /// Dedup strategy for candidate pairs.
  DedupStrategy dedup = DedupStrategy::kGroupOnOneString;

  /// Length filter (Sec. III-E.1, Lemma 6 lower bound). Lossless. Runs
  /// where candidates are emitted, not in the dedup/verify reducer: the
  /// shared-token reduce walks each token group in aggregate-length order
  /// and ends a row at its first rejected pair, and the similar-token
  /// expansion checks each pair, so pruned pairs never enter the dedup
  /// shuffle. On the 40k-account ring self-join at 4 workers (perfbench
  /// `ring`, 4-vCPU VM) that cut the shuffle from 5.9M to 1.1M records
  /// and the median join wall from 0.59 to 0.25 s (-58%) against
  /// filtering in the reducer.
  /// Disable only to measure the unfiltered baseline (bench_ablation
  /// does).
  bool enable_length_filter = true;

  /// Token-length-histogram filter (Sec. III-E.2). Lossless. Runs at the
  /// same emit sites as the length filter, right after it, on the
  /// histogram spans and aggregate lengths of the flat Corpus columns, so
  /// pruned pairs never enter the dedup shuffle either. On perfbench
  /// `ring` (4-vCPU VM, 10 interleaved pairs at 20 s) moving it there
  /// from the dedup/verify reducer, together with the columnar Corpus,
  /// cut the shuffle from 1.12M to 0.51M records and the median join wall
  /// from 0.091 to 0.069 s (-24%). Disable only to measure the unfiltered
  /// baseline (bench_ablation does).
  bool enable_histogram_filter = true;

  /// Budget-aware verification (tokenized/sld.h): converts the NSLD
  /// threshold into an integer SLD budget per candidate and verifies with
  /// BoundedSld, which skips DP/solver work as soon as the pair provably
  /// misses the threshold. Lossless: joins the same pairs with the same
  /// NSLD values as the unbounded path. Disable only to measure the
  /// unbounded baseline (bench_ablation does).
  bool enable_budgeted_verify = true;

  /// Token-id-level verification: when the two sides of a candidate share
  /// one Corpus (self-joins, or Join called with the same corpus twice),
  /// verify on the interned token-id spans directly instead of
  /// materializing byte strings per candidate (no MaterializeInto, no
  /// byte copies, duplicate detection by id). Lossless: byte-identical
  /// pairs and NSLD values. Requires enable_budgeted_verify; cross-corpus
  /// joins fall back to the materialized path automatically. Disable only
  /// to measure the materialized baseline (bench_ablation does).
  ///
  /// Either path computes every bigraph edge with the scalar bounded
  /// Myers kernel and no token-pair cache: on the ring workload's short
  /// tokens one kernel pass is cheaper than a cache probe, and dropping
  /// the cache and the batched SIMD kernel cut the median join wall of
  /// perfbench `ring` from 0.28 to 0.14 s (10 interleaved pairs, 4-vCPU
  /// VM).
  bool enable_token_id_verify = true;

  /// Streaming shuffle engine: candidate generation, dedup and verify run
  /// as one fused sorted-shuffle job (RunFusedMapReduceSorted) — the
  /// shared-token reduce and the similar-token expansion emit candidates
  /// directly into the dedup/verify shuffle, nothing materializes the
  /// pre-dedup candidate universe, and dedup is a scan over sorted key
  /// runs. Lossless: byte-identical pairs, NSLD values and
  /// candidate/filter counters. Disable to run the legacy two-job
  /// hash-shuffle pipeline (the differential reference, and what
  /// bench_ablation compares against).
  bool enable_streaming_shuffle = true;

  /// Shuffle combiner (streaming mode only): duplicate candidate records
  /// collapse inside the producing task — combine-at-sort in the emitter
  /// buckets (PartitionedEmitter::Combine) — before they cross into the
  /// dedup/verify shuffle, so a hot token's quadratic candidate fan-out
  /// shrinks at its source instead of shipping every copy. Lossless: the
  /// dedup reducers already treat duplicates as one candidate; only
  /// shuffle volume, peak residency and wall change
  /// (TsjRunInfo::combiner_{input,output}_records report the reduction).
  /// Disable only to measure the combiner-free baseline (bench_ablation
  /// does).
  bool enable_shuffle_combiner = true;

  /// External-memory shuffle spill (mapreduce/spill.h; streaming mode
  /// only): when enabled AND mapreduce.memory_budget_records is set, the
  /// fused pipeline's jobs keep at most that many shuffle records
  /// resident, flushing over-budget partition buckets to disk as sorted
  /// (and combined) runs and driving the dedup/verify reducers from a
  /// k-way sort-merge of the runs — so corpora whose candidate shuffle
  /// outgrows RAM still join. Lossless: byte-identical pairs, NSLD values
  /// and candidate/filter counters (the spill-forced differential sweep
  /// pins it). Off by default: the budget in mapreduce options is ignored
  /// unless this is set (the CC_SHUFFLE_SPILL_BUDGET test-tier override
  /// bypasses this gate by design — see mapreduce.h). Lossy spill faults
  /// (a failed run read aborted a merge; output may be incomplete)
  /// surface as the join's error Status; degraded write faults keep
  /// their complete in-memory results and are reported via the per-job
  /// JobStats::spill_status only. TsjRunInfo reports
  /// spilled_records/spill_files/spill_bytes/merge_passes and the
  /// peak-resident-records gauge that proves the budget held.
  bool enable_shuffle_spill = false;

  /// Checkpoint/restart (mapreduce.h "Checkpoint validity"): when enabled
  /// AND mapreduce.checkpoint_dir is set, every pipeline job seals
  /// completed map tasks' outputs under that directory and a restarted
  /// run over the same corpus skips tasks whose checkpoint validates —
  /// byte-identical results, counted in TsjRunInfo::tasks_checkpointed /
  /// tasks_skipped_by_checkpoint. When mapreduce.checkpoint_fingerprint
  /// is 0 the run derives one from the corpus statistics and join
  /// parameters, so a dir accidentally reused across different inputs
  /// invalidates instead of corrupting. Off by default: the engine-level
  /// dir is ignored (stripped) unless this is set, mirroring the
  /// enable_shuffle_spill gate (the CC_CHECKPOINT_DIR env override is
  /// engine-level, write-only, and bypasses this gate by design).
  bool enable_checkpointing = false;

  /// Skew-adaptive shuffle partitioning (mapreduce/cluster_model.h,
  /// AdaptivePartitionCount): the run derives its shuffle partition count
  /// from the token-frequency profile it computes anyway — more
  /// partitions when a few hot tokens dominate the reduce load, the
  /// classic 4-per-worker when the profile is uniform — instead of the
  /// fixed mapreduce.num_partitions knob, which remains the fallback for
  /// empty profiles and the value used when this is disabled. Lossless:
  /// results are partition-count-invariant (the differential harness pins
  /// that); only load balance and wall change. Disable to control the
  /// partition count exactly (the differential partition sweeps do).
  bool adaptive_partitions = true;

  /// MapReduce engine configuration shared by all pipeline jobs.
  MapReduceOptions mapreduce;

  /// Validates the option combination.
  Status Validate() const {
    if (threshold < 0.0 || threshold >= 1.0) {
      return Status::InvalidArgument(
          "threshold must satisfy 0 <= T < 1 (NSLD == 1 only for empty "
          "strings)");
    }
    if (max_token_frequency == 0) {
      return Status::InvalidArgument(
          "max_token_frequency (M) must be at least 1");
    }
    return Status::OK();
  }
};

}  // namespace tsj

#endif  // TSJ_TSJ_OPTIONS_H_
