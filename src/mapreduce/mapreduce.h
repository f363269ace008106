// In-process MapReduce engine (Sec. III-A of the paper).
//
// The engine expresses computations as the classic pair of functions
//   map:    <key1, value1>        -> [<key2, value2>]
//   reduce: <key2, [value2]>      -> [value3]
// and executes them on a thread pool with a shuffle in between, i.e. a
// faithful shared-nothing simulation running in one address space. Two
// execution modes share that contract:
//
//  * RunMapReduce — the legacy hash shuffle, kept as the differential
//    reference: map tasks buffer every emission in a flat Emitter vector,
//    a separate scatter pass partitions the records by stable key hash,
//    and each reduce partition groups its records into an
//    unordered_map<Key, vector<Value>> before reducing group by group.
//    Simple and obviously correct, but every record is resident in three
//    successive buffers and every distinct key costs a heap node.
//
//  * RunMapReduceSorted — the streaming shuffle: map tasks emit through a
//    PartitionedEmitter that scatters records into per-partition buckets
//    *at emit time* (the scatter pass disappears), each partition is
//    grouped by stable-sorting its records by key, and the reducer runs
//    over contiguous key runs exposed as std::spans of a single reused
//    buffer — no per-key vector<Value>, no grouping hash map. Requires
//    Key to be less-than-comparable (on top of the equality/StableHash
//    requirements of the legacy mode); within one run, values keep
//    map-task emission order, exactly like the legacy grouping. Prefer
//    this mode; use the legacy mode to cross-check it or when a key
//    cannot be ordered.
//
// Both modes take an optional combiner (CombinerFn). In the sorted modes
// it runs as *combine-at-sort*: after a producer stops emitting, each of
// its emitter buckets is stable-sorted by key and the combiner shrinks
// every contiguous key run in place (PartitionedEmitter::Combine) —
// per-producer pre-aggregation with no grouping hash map, executed before
// the records are concatenated into shuffle partitions (and, in the fused
// runner, before they cross the stage boundary). The reduce function must
// be insensitive to the pre-aggregation; JobStats reports the pre/post
// volumes as combiner_{input,output}_records.
//
// RunFusedMapReduceSorted chains two sorted-shuffle stages without
// materializing the intermediate record vector between them: stage 1's
// reduce emits (key2, value2) records straight into stage 2's
// partition-at-emit shuffle (plus an optional stage-2 side input mapped
// into the same shuffle), so the peak number of shuffle-resident records
// is bounded by one stage's records instead of the sum of both. TSJ's
// candidate-generation → dedup/verify pipeline runs on it (tsj/tsj.cc),
// with a stage-2 combiner that collapses duplicate candidates inside the
// producing task, so a hot token's quadratic candidate fan-out shrinks
// before the dedup/verify shuffle ever sees it.
//
// Spill / merge contract (external memory; mapreduce/spill.h). The sorted
// modes optionally run under MapReduceOptions::memory_budget_records — a
// bound on shuffle records resident in memory (or the test-tier
// CC_SHUFFLE_SPILL_BUDGET environment override). Mechanics:
//
//  * When buckets flush: each producer holds an even share of the budget
//    (budget / producers; the fused runner first halves the budget
//    between its two stages, whose producers are live simultaneously).
//    Whenever a producer's resident records exceed its share, it flushes
//    to disk. Under the default segmented v2 format
//    (MapReduceOptions::spill_format) one flush stable-sorts EVERY
//    non-empty bucket, pre-aggregates each with the job's combiner (the
//    runs are combined *before* they hit disk), and writes them all as
//    one segment file — one sorted run per bucket plus a footer index —
//    so the file count is bounded by the flush count, not bucket x
//    flush. With segmentation off, a flush takes only the fullest bucket
//    and writes one single-run file (the legacy policy).
//  * Combiner re-arm semantics: the self-tuning combine sample
//    (PartitionedEmitter::Combine) persists across a producer's flushes,
//    but every spill flush re-arms it — a bucket's lifetime ends at the
//    flush, so a duplicate-free verdict latched before a spill never
//    suppresses combining of post-spill duplicates.
//  * Merge: at reduce time each partition streams through a k-way
//    sort-merge of every producer's runs (flush order) and in-memory
//    residue (one hierarchical pre-merge pass collapses a producer's
//    excess runs first; passes are counted in JobStats::merge_passes).
//    Ties break toward the earlier source, so values keep exactly the
//    (producer, emission) order of the in-memory engine. Each merged key
//    run is re-combined once more before the reducer sees it.
//  * Span stability: the reducer still receives each key's values as ONE
//    contiguous mutable std::span — even when the run was split across
//    several spill files — backed by a buffer that is reused across runs
//    but stable (and reorderable in place) for the duration of that
//    reduce call, the same guarantee as the in-memory modes.
//  * Residency: only producer buckets within their shares plus the active
//    merge windows are ever in memory; JobStats::peak_resident_records
//    (a gauge producers and merges publish in small batches — see
//    kSpillResidentPublishBatch in spill.h) proves the budget held.
//    I/O faults surface as
//    JobStats::spill_status (see spill.h) — a failed write keeps records
//    in memory, a failed read marks the job; nothing is lost silently.
//
// Fault-tolerance contract (task retry, cancellation, fault injection).
// Every engine phase runs its logical tasks through a retry/cancellation
// wrapper (mapreduce_internal::RunTasksWithRetry) with these rules:
//
//  * Retryable vs fatal taxonomy. A task attempt that fails with
//    StatusCode::kUnavailable (transient/injected faults) or
//    kResourceExhausted (memory pressure, disk full) is RETRYABLE; every
//    other code — kInternal (logic errors, thrown exceptions), data loss,
//    kInvalidArgument, … — is FATAL. Thrown exceptions are caught at the
//    task boundary and converted (std::bad_alloc -> kResourceExhausted,
//    std::exception -> kInternal), so no task failure can terminate the
//    process.
//  * Retry determinism. A retryable failure re-executes the task up to
//    MapReduceOptions::max_task_retries times on the SAME input slice
//    with freshly reset task state (map tasks rebuild their emitter from
//    scratch via PartitionedEmitter::Abandon), so a retried run is
//    byte-identical to a fault-free run — retry is lossless. Phases that
//    consume shared buffers destructively (scatter/shuffle concatenation,
//    reduce merges) cannot reset mid-task state, so only *start* faults
//    (fired before the task touched anything, e.g. FAULT_POINT at task
//    start) are retried there; a mid-task failure is escalated to fatal.
//  * Cancellation points. A fatal failure (or a retryable one that
//    exhausted its retries) trips the job's CancellationToken with the
//    root-cause Status. Sibling tasks poll the token at task start —
//    their partition boundary — and bail without running; later phases
//    are skipped entirely. The job then returns empty outputs with
//    JobStats::status carrying the root cause (the first fatal error
//    wins). Skipped tasks count into JobStats::tasks_cancelled, failed
//    attempts into task_failures, re-executions into task_retries.
//  * Watchdog semantics. When CC_TASK_TIMEOUT_MS is set (> 0), the
//    ThreadPool watchdog counts every task observed running longer than
//    the timeout into JobStats::tasks_degraded. The flagged task is
//    never preempted (preemption cannot be made safe) and the job's
//    Status is unaffected — but when hedged execution is enabled (see
//    below) a newly flagged map task additionally gets a second attempt
//    launched against the same immutable input.
//  * Checkpoint validity. When MapReduceOptions::checkpoint_dir is set,
//    every completed map task of the sorted modes seals its output
//    (sorted residue + spill runs, merged in reduce source order) into a
//    checksummed v2 segment plus a manifest under that directory, and a
//    restarted job with the same dir, job name, fingerprint and task
//    geometry SKIPS tasks whose checkpoint validates — manifest magic,
//    body checksum, job identity, and exact segment size must all match.
//    A checkpoint that fails ANY check is invalid: it is discarded and
//    the task re-runs from its input — a corrupt or stale checkpoint is
//    never trusted and never fatal, the worst case is lost savings.
//    Checkpoint WRITE failures (including injected "ckpt.write" faults)
//    are degraded: the checkpoint is dropped, the job continues
//    unaffected. Restored outputs replay the exact (producer, emission)
//    record order, so a restarted job is byte-identical to an
//    uninterrupted one. The CC_CHECKPOINT_DIR env override is
//    write-only: it seals checkpoints but never restores (an env var
//    cannot prove two runs share a corpus — restore requires the
//    explicit option). Reduce tasks are not checkpointed: their outputs
//    live in job-local memory and are cheap to recompute relative to
//    re-verifying, and the legacy hash-shuffle mode is excluded
//    entirely.
//  * Hedge-cancellation semantics. With enable_hedged_execution (default
//    on, inert unless the CC_TASK_TIMEOUT_MS watchdog is armed), a map
//    task the watchdog flags as stuck gets ONE hedged attempt launched
//    against the same input slice with a fresh PartitionedEmitter. Both
//    attempts run to their claim point; the FIRST finisher wins the
//    task via an atomic claim, cancels the loser's per-attempt
//    CancellationToken (polled between input records — cooperative, so
//    a truly wedged loser still holds its worker until it returns), and
//    only the winner's emitter, counters and checkpoint are installed;
//    the loser's emitter is Abandon'ed (its spill runs released), so
//    results stay byte-identical to an unhedged run. A failed or
//    fault-suppressed ("hedge.launch") hedge is a no-op: the primary
//    attempt and its retry budget are unaffected.
//  * Fault injection. The deterministic injector (common/fault.h,
//    CC_FAULT_SPEC) is evaluated at named sites: "task.map" /
//    "task.reduce" at task starts, "alloc.shuffle" at shuffle-phase task
//    starts (fires kResourceExhausted), "ckpt.write" / "ckpt.read"
//    around checkpoint sealing/restore, "hedge.launch" before a hedged
//    attempt is submitted, and "spill.open" / "spill.write"
//    / "merge.read" inside every spill I/O stream (SpillContext::NewIo
//    wraps both the default FILE* io and any test-installed
//    spill_io_factory, so engine and spill faults share one harness).
//    Injected spill faults follow the spill contract above (write =>
//    degraded, read => lossy); injected task faults follow the retry
//    rules. Task-start sites are evaluated with FAULT_POINT_AT keyed by
//    (task, attempt) — attempt 0 of task t is index t+1, retries and
//    hedges map into disjoint per-task blocks above n — so a
//    CC_FAULT_SPEC schedule replays exactly even when a hedged attempt
//    races its primary. One caveat: spill observability counters
//    (spilled_records, spill_files, …) count ALL attempts, including
//    runs an abandoned retry or losing hedge released — they are I/O
//    meters, not result accounting.
//
// JobStats records per-phase record counts, wall times, per-group loads,
// and — new with the streaming engine — shuffle-record and peak-resident
// counters (ShuffleGauge); cluster_model.h turns the group loads into
// simulated wall times for a cluster of W machines, which is how the
// repository reproduces the paper's 100-to-1,000-machine sweeps (Figs. 1,
// 7) on a single host.

#ifndef TSJ_MAPREDUCE_MAPREDUCE_H_
#define TSJ_MAPREDUCE_MAPREDUCE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mapreduce/job_stats.h"
#include "mapreduce/key_hash.h"
#include "mapreduce/spill.h"
#include "mapreduce/work_units.h"

namespace tsj {

/// Engine configuration.
struct MapReduceOptions {
  /// Number of OS threads executing logical tasks (0 = hardware
  /// concurrency).
  size_t num_workers = 0;
  /// Number of shuffle partitions (each is reduced as one unit of work).
  size_t num_partitions = 64;
  /// Record per-group loads into JobStats for the cluster model.
  bool collect_group_loads = true;
  /// Optional pipeline-wide gauge (not owned): every Add/Sub the engine
  /// performs on its job-local gauge is mirrored here, so a multi-job
  /// pipeline can observe one peak across all of its jobs plus whatever
  /// intermediate vectors it adds manually (tsj/tsj.cc does).
  ShuffleGauge* shuffle_gauge = nullptr;
  /// Optional hook invoked on the worker thread right after it finishes
  /// reducing one partition (every engine mode; in the fused runner,
  /// after each stage-1 and each stage-2 partition). Lets reduce
  /// functions that batch per-thread side state across groups drain it at
  /// a guaranteed coarser boundary — HMJ uses it to flush each verify
  /// worker's deferred token-pair-cache upserts (tokenized/sld.h), so
  /// everything a job computed reaches the shared tier by job end even
  /// when no group-level batch ever filled. Must be thread-safe across
  /// concurrent partitions.
  std::function<void()> reduce_partition_epilogue;

  /// External-memory spill budget (sorted modes only; see the "Spill /
  /// merge contract" section of the file comment): the maximum number of
  /// shuffle records the job keeps resident in memory. 0 = unlimited (no
  /// spill) — unless the CC_SHUFFLE_SPILL_BUDGET environment variable is
  /// set, the test-tier override that lets CI force the spill path
  /// through every sorted-mode job in the process. When active, each
  /// producer flushes its over-budget partition buckets to `spill_dir` as
  /// sorted (and combined, when a combiner is configured) runs, and
  /// reducers are driven from a k-way sort-merge of runs instead of a
  /// materialized partition. Lossless: identical outputs, keys still
  /// arrive as one contiguous value span each.
  size_t memory_budget_records = 0;
  /// Directory for spill run files. Empty = a job-owned unique temp
  /// directory (created at job start, removed with its files at job end).
  std::string spill_dir;
  /// I/O seam for spill files; null = buffered FILE* (the default). Tests
  /// install fault-injecting wrappers here (tests/spill_test.cc).
  SpillIoFactory spill_io_factory;
  /// Spill file format toggles (defaults: the full v2 feature set —
  /// checksummed + delta-compressed frames, segmented flush files, async
  /// merge-input prefetch). The CC_SHUFFLE_SPILL_FORMAT environment
  /// override (v1|v2) wins over this field, like the budget override.
  SpillFormatOptions spill_format;
  /// Maximum deterministic re-executions of one task after a retryable
  /// failure (see the fault-tolerance contract in the file comment).
  /// 0 disables retry: the first failure of any kind is fatal.
  size_t max_task_retries = 2;
  /// Checkpoint/restart directory (sorted modes' map phases; see the
  /// "Checkpoint validity" section of the file comment). Empty = no
  /// checkpointing — unless CC_CHECKPOINT_DIR is set, which arms the
  /// WRITE side only. With a non-empty dir, completed map tasks seal
  /// their output there and a restarted job (same dir, job name,
  /// fingerprint, task geometry) skips tasks whose checkpoint
  /// validates. The caller owns the directory's lifetime: checkpoints
  /// survive the job and must be cleaned up (or simply reused) by the
  /// caller.
  std::string checkpoint_dir;
  /// Caller-supplied input identity folded into the checkpoint job id.
  /// Two runs may restore from each other's checkpoints only when their
  /// job name, this fingerprint, and task/partition geometry all match —
  /// so callers SHOULD derive it from the input corpus (the joins hash
  /// corpus size and token counts). 0 is a valid fingerprint but makes
  /// "same name, different data" collisions the caller's responsibility.
  uint64_t checkpoint_fingerprint = 0;
  /// Launch a hedged second attempt for map tasks the watchdog flags as
  /// stuck (see the "Hedge-cancellation semantics" section). Inert
  /// unless CC_TASK_TIMEOUT_MS arms the watchdog.
  bool enable_hedged_execution = true;

  size_t effective_workers() const {
    if (num_workers > 0) return num_workers;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 4;
  }
};

/// Order-dependent 64-bit mixer for building
/// MapReduceOptions::checkpoint_fingerprint out of input statistics
/// (corpus sizes, token counts, thresholds): fold each quantity in with
/// one call. The joins use it so two runs restore from each other's
/// checkpoints only when their inputs agree on these statistics.
inline uint64_t MixCheckpointFingerprint(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Collects the (key, value) pairs emitted by one map task (legacy mode:
/// one flat buffer, partitioned later by the scatter pass).
template <typename Key, typename Value>
class Emitter {
 public:
  void Emit(Key key, Value value) {
    pairs_.emplace_back(std::move(key), std::move(value));
  }
  std::vector<std::pair<Key, Value>>& pairs() { return pairs_; }
  const std::vector<std::pair<Key, Value>>& pairs() const { return pairs_; }

 private:
  std::vector<std::pair<Key, Value>> pairs_;
};

/// Optional combiner: merges the values of one key *within one producer*
/// before the shuffle, cutting shuffle volume for associative reductions
/// (the standard MapReduce optimization). Receives the values collected
/// so far and replaces them with a combined list that must not be longer
/// (shrinking is the point; in-place compaction relies on it). In the
/// legacy mode the combiner runs over a per-map-task grouping hash map;
/// in the sorted modes it runs as a run-scan over each emitter bucket
/// (PartitionedEmitter::Combine) — same per-key semantics, no hash map.
/// In both engines the reduce function must be insensitive to the
/// pre-aggregation (it still sees every key, with combined value lists
/// concatenated across producers).
template <typename Key, typename Value>
using CombinerFn =
    std::function<void(const Key&, std::vector<Value>*)>;

/// Ready-made combiner for dedup-shaped reductions where every record of
/// one key is interchangeable: keep the first, drop the rest (TSJ's
/// pair-key candidate dedup, hmj's duplicate pair discoveries, massjoin's
/// duplicate verified pairs all combine this way).
template <typename Key, typename Value>
CombinerFn<Key, Value> KeepFirstCombiner() {
  return [](const Key&, std::vector<Value>* values) {
    if (values->size() > 1) values->erase(values->begin() + 1, values->end());
  };
}

/// Ready-made combiner for set-valued reductions: sort + unique the
/// values (TSJ's one-string candidate lists; the reducer finishes the
/// same dedup across producers, so pre-shrinking is lossless).
template <typename Key, typename Value>
CombinerFn<Key, Value> SortUniqueCombiner() {
  return [](const Key&, std::vector<Value>* values) {
    std::sort(values->begin(), values->end());
    values->erase(std::unique(values->begin(), values->end()),
                  values->end());
  };
}

/// Scatters emitted (key, value) records into per-partition buckets at
/// emit time — the streaming shuffle's map-side sink. One producer task
/// owns one PartitionedEmitter; buckets are later concatenated per
/// partition in producer order and sorted (RunMapReduceSorted), or — when
/// the engine enabled spilling — flushed to disk as sorted runs whenever
/// this producer's resident share of the job's memory budget overflows,
/// and merged back per partition at reduce time.
template <typename Key, typename Value>
class PartitionedEmitter {
 public:
  explicit PartitionedEmitter(size_t num_partitions)
      : buckets_(std::max<size_t>(1, num_partitions)) {}

  /// Arms the spill policy (engine-internal; see the file comment's spill
  /// contract). `share` is this producer's slice of the job budget: Emit
  /// flushes the largest buckets to disk while more than `share` records
  /// are resident. `combiner`, when non-null, pre-aggregates every flushed
  /// run before it hits disk (spill-aware combine; counted separately so
  /// the engine can fold it into the job's combiner statistics).
  void EnableSpill(SpillContext* context, size_t share,
                   CombinerFn<Key, Value> combiner) {
    spill_ = context;
    spill_share_ = std::max<size_t>(1, share);
    spill_combiner_ = std::move(combiner);
    spill_runs_.assign(buckets_.size(), {});
  }

  void Emit(Key key, Value value) {
    auto& bucket = buckets_[hasher_(key) % buckets_.size()];
    bucket.emplace_back(std::move(key), std::move(value));
    ++size_;
    if (spill_ != nullptr) {
      // Residency is published to the shared gauge in batches
      // (kSpillResidentPublishBatch, spill.h): the flush trigger runs on
      // the emitter-local size_, so the job-wide atomic is touched once
      // per batch (and at every flush / FinishSpill), not once per emit.
      if (++spill_unpublished_ >= kSpillResidentPublishBatch) {
        PublishResident();
      }
      while (size_ > spill_share_ && !spill_failed_) {
        // Segmented v2 flushes every non-empty bucket into one segment
        // file (file count tracks flush count); the legacy policy takes
        // only the fullest bucket per flush.
        const bool segmented =
            spill_->format().v2 && spill_->format().segment;
        if (!(segmented ? SpillAllBuckets() : SpillLargestBucket())) break;
      }
    }
  }

  /// Run-scan pre-aggregation (the sorted modes' combiner, applied by the
  /// engine after this producer stops emitting): stable-sorts each bucket
  /// by key — the sort the shuffle would do anyway happens early, on this
  /// producer's slice — hands each contiguous key run's values to
  /// `combiner`, and compacts the bucket in place to the combined
  /// records. Within a run, values keep emission order going in and
  /// combiner-output order coming out. Adds the records scanned/kept to
  /// the two counters.
  ///
  /// Self-tuning: combining is only worth its sort when the producer's
  /// stream actually repeats keys, so once at least kCombineSampleRecords
  /// records have been scanned with a reduction below ~3%
  /// (1/kCombineMinReductionShift-th), the remaining buckets ship
  /// uncombined (and uncounted) — duplicate-free streams pay one bounded
  /// sample, duplicate-heavy streams keep the full reduction. Lossless
  /// either way: an uncombined bucket just shuffles its duplicates.
  ///
  /// The sample state persists across Combine calls and spill flushes of
  /// one emitter — but a spill flush *re-arms* it (resets the counters):
  /// the flushed bucket starts a new lifetime, and a stream that was
  /// duplicate-free before the flush may well repeat keys after it, so an
  /// abort verdict latched pre-spill must not suppress post-spill
  /// combining (tests/mapreduce_streaming_test.cc pins the re-arm).
  static constexpr size_t kCombineSampleRecords = 4096;
  static constexpr uint64_t kCombineMinReductionShift = 5;  // 1/32 ≈ 3%

  void Combine(const CombinerFn<Key, Value>& combiner,
               uint64_t* records_in, uint64_t* records_out) {
    size_t pre_total = 0;
    for (const auto& bucket : buckets_) pre_total += bucket.size();
    for (size_t p = 0; p < buckets_.size(); ++p) {
      if (CombineSampleAborted()) {
        break;  // sampled stream is duplicate-free: stop paying the sort
      }
      auto& bucket = buckets_[p];
      combine_scanned_ += bucket.size();
      *records_in += bucket.size();
      if (bucket.size() >= 2) {
        SortBucket(p);
        CombineSortedRuns(p, combiner);
      }
      combine_kept_ += bucket.size();
      *records_out += bucket.size();
    }
    size_ = 0;
    for (const auto& bucket : buckets_) size_ += bucket.size();
    // Combined-away records leave residency too — without this the
    // budget gauge counts phantom residents for the rest of the job.
    if (spill_ != nullptr && size_ < pre_total) {
      PublishResident();
      spill_->resident().Sub(pre_total - size_);
    }
  }

  /// Stable-sorts every bucket by key — the order both the spilled runs
  /// and the in-memory residue must present to the reduce-time merge.
  /// Engine-internal, called once per producer after it stops emitting
  /// (only meaningful with spilling enabled).
  void FinishSpill() {
    if (spill_ == nullptr) return;
    PublishResident();
    for (size_t p = 0; p < buckets_.size(); ++p) SortBucket(p);
  }

  /// Resets the emitter to its fresh post-EnableSpill state so the owning
  /// task can be re-executed from scratch after a retryable failure (see
  /// the fault-tolerance contract in the file comment): drops every
  /// buffered record, returns this emitter's residency to the spill
  /// gauge, releases every spill run the abandoned attempt wrote (their
  /// files are deleted once unreferenced), clears the spill-failed latch,
  /// and re-arms the combine sample. The spill context's byte/file meters
  /// keep counting abandoned runs — they are I/O meters, not result
  /// accounting.
  void Abandon() {
    if (spill_ != nullptr) {
      PublishResident();
      spill_->resident().Sub(size_);
      for (auto& runs : spill_runs_) {
        for (const SpillRunRef& ref : runs) spill_->ReleaseRun(ref.path);
        runs.clear();
      }
      spill_failed_ = false;
    }
    for (auto& bucket : buckets_) {
      bucket.clear();
      bucket.shrink_to_fit();
    }
    size_ = 0;
    spilled_records_ = 0;
    spill_combiner_in_ = 0;
    spill_combiner_out_ = 0;
    combine_scanned_ = 0;
    combine_kept_ = 0;
  }

  /// Total records currently held in memory (post-combine, if Combine
  /// ran; spilled records are not counted — see spilled_records()).
  size_t size() const { return size_; }
  size_t num_partitions() const { return buckets_.size(); }
  std::vector<std::pair<Key, Value>>& bucket(size_t p) {
    return buckets_[p];
  }

  bool spill_active() const { return spill_ != nullptr; }
  /// Records written to disk (post-flush-combine).
  uint64_t spilled_records() const { return spilled_records_; }
  /// Runs this producer wrote for partition p, in flush order — which is
  /// emission order: a flush takes a whole bucket, so every record in an
  /// earlier run was emitted before every record of a later run or of the
  /// in-memory residue. Under segmentation a ref names a byte extent of a
  /// shared segment file; otherwise it names a whole single-run file.
  const std::vector<SpillRunRef>& spill_runs(size_t p) const {
    static const std::vector<SpillRunRef> kNone;
    return spill_runs_.empty() ? kNone : spill_runs_[p];
  }
  /// Records scanned/kept by the spill-time (flush) combine, to be folded
  /// into the job's combiner statistics alongside Combine's counts.
  uint64_t spill_combiner_input() const { return spill_combiner_in_; }
  uint64_t spill_combiner_output() const { return spill_combiner_out_; }

  /// Checkpoint restore, in-memory flavor: installs partition `p`'s
  /// records exactly as the original task left them (post-Combine /
  /// post-FinishSpill order). Only valid on a fresh emitter whose bucket
  /// `p` is still empty.
  void AdoptSortedBucket(size_t p,
                         std::vector<std::pair<Key, Value>> records) {
    size_ += records.size();
    buckets_[p] = std::move(records);
  }

  /// Checkpoint restore, spill flavor: installs a run extent of the
  /// checkpoint segment as this producer's (sole) run for partition `p`.
  /// The file must already be protected in the SpillContext
  /// (RegisterProtectedRuns) — run release must never delete a
  /// checkpoint. Counts into spilled_records() so map_output_records
  /// matches an uninterrupted run.
  void AdoptCheckpointRun(size_t p, SpillRunRef ref) {
    if (spill_runs_.empty()) spill_runs_.assign(buckets_.size(), {});
    spilled_records_ += ref.records;
    spill_runs_[p].push_back(std::move(ref));
  }

 private:
  void SortBucket(size_t p) {
    auto& bucket = buckets_[p];
    if (bucket.size() < 2) return;
    std::stable_sort(
        bucket.begin(), bucket.end(),
        [](const std::pair<Key, Value>& a, const std::pair<Key, Value>& b) {
          return a.first < b.first;
        });
  }

  // Run-scan pre-aggregation over the (already sorted) bucket p,
  // compacting it in place. See Combine for the contract.
  void CombineSortedRuns(size_t p, const CombinerFn<Key, Value>& combiner) {
    auto& bucket = buckets_[p];
    std::vector<Value> run_values;
    size_t write = 0;
    size_t i = 0;
    while (i < bucket.size()) {
      size_t j = i + 1;
      while (j < bucket.size() && bucket[j].first == bucket[i].first) {
        ++j;
      }
      const Key key = std::move(bucket[i].first);
      run_values.clear();
      for (size_t r = i; r < j; ++r) {
        run_values.push_back(std::move(bucket[r].second));
      }
      combiner(key, &run_values);
      // The combiner must not grow the list (see CombinerFn): the
      // compaction writes over slots already consumed above.
      for (auto& value : run_values) {
        bucket[write].first = key;
        bucket[write].second = std::move(value);
        ++write;
      }
      i = j;
    }
    bucket.resize(write);
  }

  bool CombineSampleAborted() const {
    return combine_scanned_ >= kCombineSampleRecords &&
           combine_scanned_ - combine_kept_ <
               (combine_scanned_ >> kCombineMinReductionShift);
  }

  // One-bucket flush preparation shared by both spill policies: sort
  // bucket p and apply the spill-time (flush) combine when armed (spill-
  // aware combine: the run is pre-aggregated *before* it hits disk).
  // Returns the {scanned, kept} flush-combine deltas so a failed flush
  // can roll them back out of the reported counters.
  std::pair<uint64_t, uint64_t> PrepareBucketForFlush(size_t p) {
    auto& bucket = buckets_[p];
    SortBucket(p);
    uint64_t in = 0, out = 0;
    if (spill_combiner_ != nullptr && !CombineSampleAborted()) {
      in = bucket.size();
      combine_scanned_ += bucket.size();
      if (bucket.size() >= 2) CombineSortedRuns(p, spill_combiner_);
      combine_kept_ += bucket.size();
      out = bucket.size();
      spill_combiner_in_ += in;
      spill_combiner_out_ += out;
    }
    return {in, out};
  }

  // A flush that failed keeps every surviving record in memory (degraded,
  // not lossy): record the error, stop flushing, drop the half-written
  // file, and roll the flush-combine scan back out of the reported
  // counters — the engine's later Combine() will count the surviving
  // records, so leaving the deltas in would double-count (the counters'
  // meaning is "every record scanned once"). The flush combine may still
  // have shrunk the buckets, hence the residency reconciliation.
  void RollBackFailedFlush(const Status& s, const std::string& path,
                           uint64_t combine_in, uint64_t combine_out,
                           size_t pre_records, size_t post_records) {
    spill_->RecordError(s);
    spill_failed_ = true;  // stop flushing; keep everything in memory
    RemoveSpillFile(path);
    spill_combiner_in_ -= combine_in;
    spill_combiner_out_ -= combine_out;
    spill_->resident().Sub(pre_records - post_records);
    size_ -= pre_records - post_records;
  }

  // Legacy spill flush: sort + flush-combine the fullest bucket, write it
  // as one single-run file, release the memory, and re-arm the combine
  // sample. Returns false when there was nothing to flush or the flush
  // failed (the records then stay safely in memory and the error is
  // recorded on the context — no silent record loss).
  bool SpillLargestBucket() {
    size_t best = 0;
    for (size_t p = 1; p < buckets_.size(); ++p) {
      if (buckets_[p].size() > buckets_[best].size()) best = p;
    }
    auto& bucket = buckets_[best];
    if (bucket.empty()) return false;
    PublishResident();
    const size_t pre_records = bucket.size();
    const auto [combine_in, combine_out] = PrepareBucketForFlush(best);
    const std::string path = spill_->NewRunPath();
    SpillRunWriter<Key, Value> writer(spill_->NewIo(), spill_->format());
    Status s = writer.Open(path);
    if (s.ok()) writer.BeginRun(static_cast<uint32_t>(best));
    for (size_t i = 0; s.ok() && i < bucket.size(); ++i) {
      s = writer.Append(bucket[i]);
    }
    SpillRunRef ref;
    if (s.ok()) s = writer.EndRun(&ref);
    if (s.ok()) s = writer.Finish();
    if (!s.ok()) {
      RollBackFailedFlush(s, path, combine_in, combine_out, pre_records,
                          bucket.size());
      return false;
    }
    spill_runs_[best].push_back(std::move(ref));
    spill_->RegisterRuns(path, 1);
    spill_->AddRunFile(bucket.size(), writer.bytes_written(),
                       writer.raw_bytes());
    spilled_records_ += bucket.size();
    spill_->resident().Sub(pre_records);
    size_ -= pre_records;
    bucket.clear();
    bucket.shrink_to_fit();
    // Re-arm the self-tuning combine sample: the flushed bucket's
    // lifetime ended, post-spill records get a fresh verdict.
    combine_scanned_ = 0;
    combine_kept_ = 0;
    return true;
  }

  // Segmented spill flush (v2): sort + flush-combine EVERY non-empty
  // bucket and write them all, one sorted run each, into ONE segment file
  // with a footer index — so the file count tracks the flush count, not
  // bucket × flush. Same failure contract as SpillLargestBucket: nothing
  // reached disk as far as the engine is concerned, every record stays in
  // memory, the error is recorded on the context.
  bool SpillAllBuckets() {
    size_t pre_total = 0;
    for (const auto& bucket : buckets_) pre_total += bucket.size();
    if (pre_total == 0) return false;
    PublishResident();
    uint64_t combine_in = 0, combine_out = 0;
    for (size_t p = 0; p < buckets_.size(); ++p) {
      if (buckets_[p].empty()) continue;
      const auto [in, out] = PrepareBucketForFlush(p);
      combine_in += in;
      combine_out += out;
    }
    size_t post_total = 0;
    for (const auto& bucket : buckets_) post_total += bucket.size();
    const std::string path = spill_->NewRunPath();
    SpillRunWriter<Key, Value> writer(spill_->NewIo(), spill_->format());
    Status s = writer.Open(path);
    std::vector<std::pair<size_t, SpillRunRef>> refs;
    for (size_t p = 0; s.ok() && p < buckets_.size(); ++p) {
      auto& bucket = buckets_[p];
      if (bucket.empty()) continue;
      writer.BeginRun(static_cast<uint32_t>(p));
      for (size_t i = 0; s.ok() && i < bucket.size(); ++i) {
        s = writer.Append(bucket[i]);
      }
      if (!s.ok()) break;
      SpillRunRef ref;
      s = writer.EndRun(&ref);
      if (s.ok()) refs.emplace_back(p, std::move(ref));
    }
    if (s.ok()) s = writer.Finish();
    if (!s.ok()) {
      RollBackFailedFlush(s, path, combine_in, combine_out, pre_total,
                          post_total);
      return false;
    }
    for (auto& [p, ref] : refs) spill_runs_[p].push_back(std::move(ref));
    spill_->RegisterRuns(path, refs.size());
    spill_->AddRunFile(post_total, writer.bytes_written(),
                       writer.raw_bytes());
    spilled_records_ += post_total;
    spill_->resident().Sub(pre_total);
    size_ = 0;
    for (auto& bucket : buckets_) {
      bucket.clear();
      bucket.shrink_to_fit();
    }
    // Re-arm the self-tuning combine sample (see SpillLargestBucket).
    combine_scanned_ = 0;
    combine_kept_ = 0;
    return true;
  }

  StableHash hasher_;
  std::vector<std::vector<std::pair<Key, Value>>> buckets_;
  size_t size_ = 0;

  // Self-tuning combine sample (persistent across flushes until re-armed).
  uint64_t combine_scanned_ = 0;
  uint64_t combine_kept_ = 0;

  // Drains the emitter-local residency delta into the shared gauge.
  void PublishResident() {
    if (spill_unpublished_ > 0) {
      spill_->resident().Add(spill_unpublished_);
      spill_unpublished_ = 0;
    }
  }

  // Spill policy (null = in-memory only, the default).
  SpillContext* spill_ = nullptr;
  size_t spill_share_ = 0;
  size_t spill_unpublished_ = 0;
  CombinerFn<Key, Value> spill_combiner_;
  std::vector<std::vector<SpillRunRef>> spill_runs_;
  uint64_t spilled_records_ = 0;
  uint64_t spill_combiner_in_ = 0;
  uint64_t spill_combiner_out_ = 0;
  bool spill_failed_ = false;
};

namespace mapreduce_internal {

// Job-local gauge plus the optional pipeline-wide mirror.
struct GaugePair {
  ShuffleGauge* local;
  ShuffleGauge* shared;
  void Add(uint64_t n) const {
    local->Add(n);
    if (shared != nullptr) shared->Add(n);
  }
  void Sub(uint64_t n) const {
    local->Sub(n);
    if (shared != nullptr) shared->Sub(n);
  }
};

// Number of logical map tasks for `num_inputs` records: more tasks than
// workers so stragglers even out, as in real MapReduce.
inline size_t NumMapTasks(size_t num_inputs, size_t num_workers) {
  return std::max<size_t>(1, std::min(num_inputs, num_workers * 4));
}

// The retryable-vs-fatal taxonomy (see the fault-tolerance contract in
// the file comment): transient faults and resource pressure retry,
// everything else aborts the job.
inline bool IsRetryableTaskStatus(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kResourceExhausted;
}

// Per-phase task accounting, summed into JobStats at job end.
struct TaskCounters {
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> cancelled{0};

  void AddTo(JobStats* stats) const {
    stats->task_failures += failures.load(std::memory_order_relaxed);
    stats->task_retries += retries.load(std::memory_order_relaxed);
    stats->tasks_cancelled += cancelled.load(std::memory_order_relaxed);
  }
};

// Keyed fault-evaluation index for task-start sites, so every attempt of
// every task has a stable index regardless of thread interleaving:
//   attempt 0 of task t   -> t + 1       (matches the unkeyed 1-based
//                                         counter for one-attempt-per-task
//                                         phases, so existing once@N /
//                                         every@N / p@seed schedules are
//                                         unchanged)
//   retry attempt a >= 1  -> n + 1 + t * kFaultRetryStride + (a - 1)
//   hedged attempt        -> the kFaultHedgeAttempt slot of the same block
// Retries beyond kFaultHedgeAttempt - 1 would alias the hedge slot; with
// the default max_task_retries = 2 the blocks are far apart.
inline constexpr uint64_t kFaultRetryStride = 32;
inline constexpr size_t kFaultHedgeAttempt = 31;

inline uint64_t TaskAttemptFaultKey(size_t n, size_t task, size_t attempt) {
  if (attempt == 0) return static_cast<uint64_t>(task) + 1;
  return static_cast<uint64_t>(n) + 1 +
         static_cast<uint64_t>(task) * kFaultRetryStride +
         static_cast<uint64_t>(attempt - 1);
}

// Upper bound of TaskAttemptFaultKey over an n-task phase: the index range
// one phase must reserve so the next phase's keys never collide with it.
inline uint64_t TaskFaultBlockSize(size_t n) {
  return (static_cast<uint64_t>(n) + 1) * (kFaultRetryStride + 1);
}

// Claims this phase's contiguous key range for `site` (see the keyed-
// evaluation notes in common/fault.h): sequential phases evaluating the
// same site get disjoint ranges in deterministic program order, which is
// what keeps "once"-style specs firing once per process, not once per
// phase.
inline uint64_t ReservePhaseFaultBlock(const char* site, uint64_t count) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.enabled()) return 0;
  return injector.ReserveBlock(site, count);
}

// Coordinates one optional hedged (duplicate) attempt per task of a map
// phase. The watchdog's stuck-task callback calls OnStuck(), which picks
// the longest-running primary that has neither finished nor been hedged
// and invokes the launcher for it — while holding the controller mutex,
// so the chosen primary is still inside its body (EndPrimary needs the
// same mutex) and anything the launcher Submits is ordered before the
// pool's Wait() can return. First finisher wins the task via ClaimWin;
// the winner cancels the loser's per-attempt token.
class HedgeController {
 public:
  explicit HedgeController(size_t n) : states_(n) {}

  void set_launcher(std::function<void(size_t)> launcher) {
    launcher_ = std::move(launcher);
  }
  /// Base of this phase's reserved "hedge.launch" key range.
  void set_fault_base(uint64_t base) { fault_base_ = base; }

  const CancellationToken& primary_token(size_t task) const {
    return states_[task].primary;
  }
  const CancellationToken& hedge_token(size_t task) const {
    return states_[task].hedge;
  }

  void BeginPrimary(size_t task) {
    std::lock_guard<std::mutex> lock(mu_);
    states_[task].running = true;
    states_[task].start = std::chrono::steady_clock::now();
  }
  void EndPrimary(size_t task) {
    std::lock_guard<std::mutex> lock(mu_);
    states_[task].running = false;
  }

  // First finisher wins; attempt 0 = primary, 1 = hedge. The winner
  // cancels the loser's attempt token so it bails at its next record
  // boundary. Returns false when the other attempt already claimed —
  // the caller must then discard all of its attempt's side effects.
  bool ClaimWin(size_t task, int attempt) {
    State& st = states_[task];
    int expected = -1;
    if (!st.winner.compare_exchange_strong(expected, attempt,
                                           std::memory_order_acq_rel)) {
      return false;
    }
    if (st.hedge_launched.load(std::memory_order_acquire)) {
      if (attempt == 0) {
        st.hedge.Cancel(Status::Unavailable("hedged attempt lost the race"));
      } else {
        won_.fetch_add(1, std::memory_order_relaxed);
        st.primary.Cancel(
            Status::Unavailable("primary attempt lost to its hedge"));
      }
    }
    return true;
  }

  int winner(size_t task) const {
    return states_[task].winner.load(std::memory_order_acquire);
  }
  bool hedge_launched(size_t task) const {
    return states_[task].hedge_launched.load(std::memory_order_acquire);
  }

  // Watchdog-thread entry point (serialized by the watchdog). Launches at
  // most one hedge per call, for the oldest still-running unhedged task.
  // The "hedge.launch" fault gate still consumes the task's single hedge
  // slot when it fires, so injected suppression stays deterministic.
  void OnStuck() {
    if (launcher_ == nullptr) return;
    std::lock_guard<std::mutex> lock(mu_);
    bool found = false;
    size_t candidate = 0;
    std::chrono::steady_clock::time_point oldest{};
    for (size_t t = 0; t < states_.size(); ++t) {
      State& st = states_[t];
      if (!st.running || st.hedge_launched.load(std::memory_order_relaxed) ||
          st.winner.load(std::memory_order_relaxed) != -1) {
        continue;
      }
      if (!found || st.start < oldest) {
        found = true;
        oldest = st.start;
        candidate = t;
      }
    }
    if (!found) return;
    states_[candidate].hedge_launched.store(true, std::memory_order_release);
    if (Status s = FAULT_POINT_AT(
            "hedge.launch",
            fault_base_ + static_cast<uint64_t>(candidate) + 1);
        !s.ok()) {
      return;
    }
    launched_.fetch_add(1, std::memory_order_relaxed);
    launcher_(candidate);
  }

  uint64_t launched() const {
    return launched_.load(std::memory_order_relaxed);
  }
  uint64_t won() const { return won_.load(std::memory_order_relaxed); }

 private:
  struct State {
    CancellationToken primary;
    CancellationToken hedge;
    std::atomic<int> winner{-1};
    std::atomic<bool> hedge_launched{false};
    bool running = false;
    std::chrono::steady_clock::time_point start{};
  };

  std::mutex mu_;
  std::vector<State> states_;
  std::function<void(size_t)> launcher_;
  uint64_t fault_base_ = 0;
  std::atomic<uint64_t> launched_{0};
  std::atomic<uint64_t> won_{0};
};

// Runs `n` logical tasks on `pool` under the engine's fault-tolerance
// contract. Each task: (1) bails (counted cancelled) when the job token
// is already tripped; (2) evaluates the phase's FAULT_POINT — keyed by
// (task, attempt) via TaskAttemptFaultKey, and fired *here* it precedes
// any side effect, so it is retryable even for phases with no reset;
// (3) runs `body(task, attempt_token)`, catching exceptions into a
// Status. A retryable failure re-executes the task — after `reset(task)`
// restores its pristine state if the body had started — up to
// `max_retries` times; a fatal failure (or exhausted retries, or a
// retryable body failure in a phase that passed reset == nullptr because
// it consumes shared state destructively) trips the token with the root
// cause and sibling tasks stop at their next boundary.
//
// When `hedge` is non-null the body receives the task's per-attempt
// primary token (tripped only when its hedge wins) instead of the job
// token, and the primary's running window is reported to the controller.
inline void RunTasksWithRetryHedged(
    ThreadPool* pool, size_t n, size_t max_retries,
    CancellationToken token, const char* fault_site, uint64_t fault_base,
    TaskCounters* counters, const std::function<void(size_t)>& reset,
    const std::function<void(size_t, const CancellationToken&)>& body,
    HedgeController* hedge) {
  pool->ParallelFor(n, [&, token](size_t task) mutable {
    if (token.cancelled()) {
      counters->cancelled.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (size_t attempt = 0;; ++attempt) {
      Status s = FAULT_POINT_AT(
          fault_site, fault_base + TaskAttemptFaultKey(n, task, attempt));
      bool started = false;
      if (s.ok()) {
        started = true;
        if (hedge != nullptr) hedge->BeginPrimary(task);
        try {
          body(task, hedge != nullptr ? hedge->primary_token(task) : token);
        } catch (const std::bad_alloc&) {
          s = Status::ResourceExhausted("task threw std::bad_alloc");
        } catch (const std::exception& e) {
          s = Status::Internal(std::string("task threw: ") + e.what());
        } catch (...) {
          s = Status::Internal("task threw an unknown exception type");
        }
        if (hedge != nullptr) hedge->EndPrimary(task);
      }
      if (s.ok()) return;
      counters->failures.fetch_add(1, std::memory_order_relaxed);
      const bool resettable = !started || reset != nullptr;
      if (IsRetryableTaskStatus(s) && resettable && attempt < max_retries &&
          !token.cancelled()) {
        counters->retries.fetch_add(1, std::memory_order_relaxed);
        if (started && reset != nullptr) reset(task);
        continue;
      }
      token.Cancel(std::move(s));
      return;
    }
  });
}

// Unhedged wrapper: every existing phase call site funnels through the
// keyed evaluator above with no hedging.
inline void RunTasksWithRetry(
    ThreadPool* pool, size_t n, size_t max_retries,
    CancellationToken token, const char* fault_site, TaskCounters* counters,
    const std::function<void(size_t)>& reset,
    const std::function<void(size_t)>& body) {
  RunTasksWithRetryHedged(
      pool, n, max_retries, std::move(token), fault_site,
      ReservePhaseFaultBlock(fault_site, TaskFaultBlockSize(n)), counters,
      reset, [&body](size_t task, const CancellationToken&) { body(task); },
      /*hedge=*/nullptr);
}

// Folds the pool-level task accounting into the job's stats at job end:
// watchdog degradations, and — as a safety net — any exception the pool
// itself caught outside the retry wrapper becomes the job status.
inline void FinishTaskStats(ThreadPool* pool, const CancellationToken& token,
                            JobStats* stats) {
  stats->tasks_degraded += pool->tasks_degraded();
  if (token.cancelled()) stats->status = token.cause();
  if (Status s = pool->TakeStatus(); !s.ok() && stats->status.ok()) {
    stats->status = s;
  }
}

// Builds partition `p` of the sorted shuffle: concatenates every
// producer's bucket `p` in producer order (freeing the buckets), then
// stable-sorts by key, so equal keys form contiguous runs whose values
// keep producer emission order — the same per-group value order the
// legacy grouping produces.
template <typename Key, typename Value, typename Producers>
std::vector<std::pair<Key, Value>> MergeSortPartition(
    Producers* producers, size_t p, const GaugePair& gauge) {
  size_t total = 0;
  for (auto& producer : *producers) total += producer.bucket(p).size();
  std::vector<std::pair<Key, Value>> partition;
  partition.reserve(total);
  gauge.Add(total);
  for (auto& producer : *producers) {
    auto& bucket = producer.bucket(p);
    std::move(bucket.begin(), bucket.end(), std::back_inserter(partition));
    bucket.clear();
    bucket.shrink_to_fit();
  }
  gauge.Sub(total);  // the source buckets are gone; the partition remains
  std::stable_sort(
      partition.begin(), partition.end(),
      [](const std::pair<Key, Value>& a, const std::pair<Key, Value>& b) {
        return a.first < b.first;
      });
  return partition;
}

// Scans one sorted partition run by run, moving each run's values into
// the reused `run_values` buffer and invoking `reduce_run(key, span)`
// per run, with optional per-group load collection.
template <typename Key, typename Value, typename ReduceRun>
void ReduceSortedRuns(std::vector<std::pair<Key, Value>>* partition,
                      bool collect_loads, std::vector<GroupLoad>* loads,
                      uint64_t* num_groups,
                      const ReduceRun& reduce_run) {
  StableHash hasher;
  std::vector<Value> run_values;  // reused across runs: no per-key node
  size_t i = 0;
  while (i < partition->size()) {
    const Key& key = (*partition)[i].first;
    size_t j = i + 1;
    while (j < partition->size() && (*partition)[j].first == key) ++j;
    run_values.clear();
    for (size_t r = i; r < j; ++r) {
      run_values.push_back(std::move((*partition)[r].second));
    }
    ++*num_groups;
    if (collect_loads) {
      // Deterministic work units (work_units.h) are the preferred cost
      // source for the simulated-cluster makespan; per-group wall time
      // is kept as a fallback for reduce functions that report none.
      Stopwatch group_watch;
      TakeWorkUnits();
      reduce_run(key, std::span<Value>(run_values));
      loads->push_back(GroupLoad{hasher(key), j - i, TakeWorkUnits(),
                                 group_watch.ElapsedSeconds()});
    } else {
      reduce_run(key, std::span<Value>(run_values));
    }
    i = j;
  }
}

// ---- External-memory spill: reduce-time merge (see spill.h) ---------------

// Budget resolution: an explicit per-job budget wins; otherwise the
// CC_SHUFFLE_SPILL_BUDGET test-tier override applies; 0 = no spill.
inline size_t EffectiveSpillBudget(const MapReduceOptions& options) {
  if (options.memory_budget_records > 0) {
    return options.memory_budget_records;
  }
  return SpillBudgetFromEnv();
}

// Creates and initializes the job's spill context; on failure the error
// lands in *stats (spill_status) and the job runs in memory.
inline std::unique_ptr<SpillContext> MakeSpillContext(
    const MapReduceOptions& options, JobStats* stats) {
  const size_t budget = EffectiveSpillBudget(options);
  if (budget == 0) return nullptr;
  SpillFormatOptions format = options.spill_format;
  ApplySpillFormatEnv(&format);
  auto context = std::make_unique<SpillContext>(
      budget, options.spill_dir, options.spill_io_factory, format);
  if (Status s = context->Init(); !s.ok()) {
    stats->spill_status = s;
    return nullptr;
  }
  return context;
}

// One sorted run feeding the k-way merge: either a producer's in-memory
// bucket (records are moved out; the vector is cleared by the caller
// afterwards) or a spill run file streamed one record at a time.
template <typename Key, typename Value>
struct RunCursor {
  std::vector<std::pair<Key, Value>>* memory = nullptr;
  size_t memory_index = 0;
  std::unique_ptr<SpillRunReader<Key, Value>> reader;
  bool from_disk = false;

  std::pair<Key, Value> head;
  bool has_head = false;

  Status Advance() {
    if (memory != nullptr) {
      if (memory_index < memory->size()) {
        head = std::move((*memory)[memory_index++]);
        has_head = true;
      } else {
        has_head = false;
      }
      return Status::OK();
    }
    bool done = false;
    Status s = reader->Next(&head, &done);
    if (!s.ok()) {
      has_head = false;
      return s;
    }
    has_head = !done;
    if (done) return reader->Close();
    return Status::OK();
  }
};

// Min-heap of run-cursor indices keyed by (head key, source index) — the
// heap discipline shared by the pre-merge and the reduce-time merge.
// Pop() yields the cursor holding the smallest head key, ties going to
// the lowest source index so earlier producers/runs drain first (what
// preserves the in-memory engine's (producer, emission) value order);
// the caller consumes the head, Advances the cursor, and Reinserts it
// while it still has one.
template <typename Key, typename Value>
class RunCursorHeap {
 public:
  explicit RunCursorHeap(std::vector<RunCursor<Key, Value>>* cursors)
      : cursors_(cursors) {
    for (size_t i = 0; i < cursors_->size(); ++i) {
      if ((*cursors_)[i].has_head) heap_.push_back(i);
    }
    std::make_heap(heap_.begin(), heap_.end(), Later());
  }

  bool empty() const { return heap_.empty(); }

  size_t Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later());
    const size_t index = heap_.back();
    heap_.pop_back();
    return index;
  }

  void Reinsert(size_t index) {
    heap_.push_back(index);
    std::push_heap(heap_.begin(), heap_.end(), Later());
  }

 private:
  auto Later() const {
    return [cursors = cursors_](size_t a, size_t b) {
      const Key& ka = (*cursors)[a].head.first;
      const Key& kb = (*cursors)[b].head.first;
      if (kb < ka) return true;
      if (ka < kb) return false;
      return a > b;  // equal keys: lower source index drains first
    };
  }

  std::vector<RunCursor<Key, Value>>* cursors_;
  std::vector<size_t> heap_;
};

// Fan-in of one merge (open run files at a time) and the per-producer run
// count above which runs are pre-merged into fewer, larger runs. Together
// they bound the file descriptors one partition merge holds open to
// roughly #producers * kSpillRunsPerProducerTarget.
inline constexpr size_t kSpillMergeFanIn = 16;
inline constexpr size_t kSpillRunsPerProducerTarget = 4;

// Streams `runs` (consecutive runs of one producer and partition, in run
// order) through a k-way merge into one new single-run file, re-combining
// each contiguous key run when a combiner is configured — the "combined
// again at merge time" half of the spill-aware-combine contract. Consumed
// input runs are released on success (a segment file is deleted once the
// last run it backs is released). Not counted into the job's combiner
// statistics: the map-side counters keep their exact "every record
// scanned once" meaning (the existing combiner tests pin it).
template <typename Key, typename Value>
Status MergeRunBatchToFile(SpillContext* context, uint32_t partition,
                           const std::vector<SpillRunRef>& runs,
                           const CombinerFn<Key, Value>& combiner,
                           SpillRunRef* out_run) {
  std::vector<RunCursor<Key, Value>> cursors(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    cursors[i].from_disk = true;
    cursors[i].reader = std::make_unique<SpillRunReader<Key, Value>>(
        context->NewIo());
    cursors[i].reader->set_prefetcher(context->prefetcher());
    cursors[i].reader->set_checksum_failure_counter(
        context->checksum_failure_counter());
    if (Status s = cursors[i].reader->Open(runs[i]); !s.ok()) return s;
    if (Status s = cursors[i].Advance(); !s.ok()) return s;
  }
  const std::string out_path = context->NewRunPath();
  SpillRunWriter<Key, Value> writer(context->NewIo(), context->format());
  if (Status s = writer.Open(out_path); !s.ok()) return s;
  writer.BeginRun(partition);

  RunCursorHeap<Key, Value> heap(&cursors);
  std::vector<std::pair<Key, Value>> run;  // the active key's records
  // Window residency is published in batches (one shared-gauge RMW per
  // kSpillResidentPublishBatch records, drained before every Sub so the
  // unsigned gauge never underflows), like the emit side.
  size_t window_unpublished = 0;
  auto publish_window = [&]() {
    if (window_unpublished > 0) {
      context->resident().Add(window_unpublished);
      window_unpublished = 0;
    }
  };
  auto flush_run = [&]() -> Status {
    if (run.empty()) return Status::OK();
    const size_t window = run.size();  // residency added pre-combine
    if (combiner != nullptr && run.size() > 1) {
      std::vector<Value> values;
      values.reserve(run.size());
      for (auto& record : run) values.push_back(std::move(record.second));
      combiner(run.front().first, &values);
      const Key key = std::move(run.front().first);
      run.clear();
      for (auto& value : values) run.emplace_back(key, std::move(value));
    }
    for (auto& record : run) {
      if (Status s = writer.Append(record); !s.ok()) return s;
    }
    publish_window();
    context->resident().Sub(window);
    run.clear();
    return Status::OK();
  };

  while (!heap.empty()) {
    const size_t index = heap.Pop();
    auto& cursor = cursors[index];
    if (!run.empty() && run.front().first < cursor.head.first) {
      if (Status s = flush_run(); !s.ok()) return s;
    }
    run.push_back(std::move(cursor.head));
    // The merge window's only residency.
    if (++window_unpublished >= kSpillResidentPublishBatch) {
      publish_window();
    }
    if (Status s = cursor.Advance(); !s.ok()) return s;
    if (cursor.has_head) heap.Reinsert(index);
  }
  if (Status s = flush_run(); !s.ok()) return s;
  if (Status s = writer.EndRun(out_run); !s.ok()) return s;
  if (Status s = writer.Finish(); !s.ok()) return s;
  context->RegisterRuns(out_path, 1);
  context->AddRunFile(writer.records_written(), writer.bytes_written(),
                      writer.raw_bytes());
  for (const SpillRunRef& run : runs) context->ReleaseRun(run.path);
  return Status::OK();
}

// Hierarchical pre-merge: while one producer contributed more runs to a
// partition than the merge should open at once, batches of consecutive
// runs collapse into single larger runs (order-preserving: batches are
// contiguous in run order). Each sweep over the run list is one
// merge pass (JobStats::merge_passes).
template <typename Key, typename Value>
Status PreMergeProducerRuns(SpillContext* context, uint32_t partition,
                            const CombinerFn<Key, Value>& combiner,
                            std::vector<SpillRunRef>* runs) {
  while (runs->size() > kSpillRunsPerProducerTarget) {
    context->AddMergePass();
    std::vector<SpillRunRef> merged;
    for (size_t begin = 0; begin < runs->size();
         begin += kSpillMergeFanIn) {
      const size_t end = std::min(begin + kSpillMergeFanIn, runs->size());
      if (end - begin == 1) {
        merged.push_back((*runs)[begin]);
        continue;
      }
      const std::vector<SpillRunRef> batch(runs->begin() + begin,
                                           runs->begin() + end);
      SpillRunRef out_run;
      if (Status s = MergeRunBatchToFile<Key, Value>(
              context, partition, batch, combiner, &out_run);
          !s.ok()) {
        return s;
      }
      merged.push_back(std::move(out_run));
    }
    *runs = std::move(merged);
  }
  return Status::OK();
}

// Frees every producer's in-memory residue bucket of partition `p` after
// its spill-mode merge consumed them, returning the record count released
// (what the caller Subs from the job's shuffle gauge).
template <typename Producers>
size_t ReleasePartitionResidue(Producers* producers, size_t p) {
  size_t residue = 0;
  for (auto& producer : *producers) {
    residue += producer.bucket(p).size();
    producer.bucket(p).clear();
    producer.bucket(p).shrink_to_fit();
  }
  return residue;
}

// Reduces one shuffle partition straight from the k-way merge of every
// producer's spill runs and in-memory bucket — the spill-mode counterpart
// of MergeSortPartition + ReduceSortedRuns. Sources are ordered producer-
// major with each producer's disk runs (flush order) before its residue,
// and ties in the merge break toward the lower source index, so a key
// run's values arrive in exactly the (producer, emission) order the
// in-memory engine produces — as ONE contiguous span, even when the run
// was split across several spill files. The span points into a buffer
// reused across runs, stable for the duration of one reduce_run call
// (the same contract as the in-memory mode). A configured combiner
// re-combines each merged run before the reducer sees it.
//
// Only the active run's values are memory-resident (context->resident()
// tracks the window). In-memory buckets are consumed by moving; the
// caller clears them afterwards. Returns the first I/O error; the caller
// records it on the context (outputs of that partition may then be
// incomplete — never silently, the error is sticky).
template <typename Key, typename Value, typename Producers,
          typename ReduceRun>
Status ReduceMergedRuns(Producers* producers, size_t p,
                        SpillContext* context,
                        const CombinerFn<Key, Value>& combiner,
                        bool collect_loads, std::vector<GroupLoad>* loads,
                        uint64_t* num_groups, const ReduceRun& reduce_run) {
  // Hierarchical pre-merge per producer, then one cursor per remaining
  // run plus one per in-memory residue.
  std::vector<std::vector<SpillRunRef>> producer_runs;
  bool any_disk = false;
  for (auto& producer : *producers) {
    std::vector<SpillRunRef> runs = producer.spill_runs(p);
    if (!runs.empty()) any_disk = true;
    if (Status s = PreMergeProducerRuns<Key, Value>(
            context, static_cast<uint32_t>(p), combiner, &runs);
        !s.ok()) {
      return s;
    }
    producer_runs.push_back(std::move(runs));
  }
  if (any_disk) context->AddMergePass();  // the final streamed merge

  std::vector<RunCursor<Key, Value>> cursors;
  size_t producer_index = 0;
  for (auto& producer : *producers) {
    for (const SpillRunRef& run : producer_runs[producer_index]) {
      RunCursor<Key, Value> cursor;
      cursor.from_disk = true;
      cursor.reader = std::make_unique<SpillRunReader<Key, Value>>(
          context->NewIo());
      cursor.reader->set_prefetcher(context->prefetcher());
      cursor.reader->set_checksum_failure_counter(
          context->checksum_failure_counter());
      if (Status s = cursor.reader->Open(run); !s.ok()) return s;
      cursors.push_back(std::move(cursor));
    }
    if (!producer.bucket(p).empty()) {
      RunCursor<Key, Value> cursor;
      cursor.memory = &producer.bucket(p);
      cursors.push_back(std::move(cursor));
    }
    ++producer_index;
  }
  for (auto& cursor : cursors) {
    if (Status s = cursor.Advance(); !s.ok()) return s;
  }

  RunCursorHeap<Key, Value> heap(&cursors);
  StableHash hasher;
  std::vector<Value> run_values;  // reused across runs, like the in-memory
                                  // mode: no per-key heap node
  Key current_key{};
  bool have_run = false;
  // Disk-record window residency, published in batches and drained
  // before every Sub (see MergeRunBatchToFile).
  size_t window_unpublished = 0;
  auto publish_window = [&]() {
    if (window_unpublished > 0) {
      context->resident().Add(window_unpublished);
      window_unpublished = 0;
    }
  };
  auto emit_run = [&]() {
    const size_t window = run_values.size();  // residency added pre-combine
    if (combiner != nullptr && run_values.size() > 1) {
      combiner(current_key, &run_values);  // merge-time re-combine
    }
    ++*num_groups;
    if (collect_loads) {
      Stopwatch group_watch;
      const uint64_t records = run_values.size();
      TakeWorkUnits();
      reduce_run(current_key, std::span<Value>(run_values));
      loads->push_back(GroupLoad{hasher(current_key), records,
                                 TakeWorkUnits(),
                                 group_watch.ElapsedSeconds()});
    } else {
      reduce_run(current_key, std::span<Value>(run_values));
    }
    publish_window();
    context->resident().Sub(window);
    run_values.clear();
    have_run = false;
  };

  while (!heap.empty()) {
    const size_t index = heap.Pop();
    auto& cursor = cursors[index];
    if (have_run && current_key < cursor.head.first) emit_run();
    if (!have_run) {
      current_key = cursor.head.first;
      have_run = true;
    }
    run_values.push_back(std::move(cursor.head.second));
    // Disk records enter residency here; memory records were already
    // counted at emit time and merely change buffers.
    if (cursor.from_disk &&
        ++window_unpublished >= kSpillResidentPublishBatch) {
      publish_window();
    }
    if (Status s = cursor.Advance(); !s.ok()) return s;
    if (cursor.has_head) heap.Reinsert(index);
  }
  if (have_run) emit_run();
  return Status::OK();
}

// 64-bit FNV-1a over the job name + phase tag, with fingerprint and task
// geometry mixed in: the checkpoint job identity. Any mismatch between
// the writing and restoring run yields a different id, and ReadManifest
// rejects the stale file.
inline uint64_t CheckpointJobId(const std::string& job_name,
                                const char* phase_tag, uint64_t fingerprint,
                                size_t num_tasks, size_t num_partitions) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : job_name) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  for (const char* p = phase_tag; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ULL;
  }
  const uint64_t mixed[3] = {fingerprint, num_tasks, num_partitions};
  for (uint64_t v : mixed) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

// Builds the checkpoint context for one map phase, or nullptr when
// checkpointing is off (or the directory cannot be prepared — checkpoints
// are an optimization, never a new failure mode). `restore_enabled` is
// true only for an explicit options.checkpoint_dir: the CC_CHECKPOINT_DIR
// env fallback arms the WRITE side only (see the file comment).
inline std::unique_ptr<CheckpointContext> MakeCheckpointContext(
    const MapReduceOptions& options, const std::string& job_name,
    const char* phase_tag, size_t num_tasks, size_t num_partitions,
    bool* restore_enabled) {
  *restore_enabled = !options.checkpoint_dir.empty();
  std::string dir = options.checkpoint_dir;
  if (dir.empty()) dir = CheckpointDirFromEnv();
  if (dir.empty() || num_tasks == 0) return nullptr;
  const uint64_t job_id =
      CheckpointJobId(job_name, phase_tag, options.checkpoint_fingerprint,
                      num_tasks, num_partitions);
  auto context = std::make_unique<CheckpointContext>(
      std::move(dir), job_id, options.checkpoint_fingerprint,
      options.spill_io_factory);
  if (!context->Init().ok()) {
    *restore_enabled = false;
    return nullptr;
  }
  context->fault_write_base = ReservePhaseFaultBlock(
      "ckpt.write", static_cast<uint64_t>(num_tasks) + 1);
  context->fault_read_base = ReservePhaseFaultBlock(
      "ckpt.read", static_cast<uint64_t>(num_tasks) + 1);
  return context;
}

// Seals a completed map task's output — in-memory residue plus any spill
// runs — into one checkpoint segment and manifest. Read-only over the
// task's live state: residue records are COPIED (the emitter keeps
// serving this job's own shuffle) and spill runs are streamed without
// being released. Each partition becomes one run holding the exact
// record sequence ReduceMergedRuns would consume for it (disk runs in
// flush order, then residue, ties to the earlier source), so a restart
// replays byte-identically. Any failure — including an injected
// "ckpt.write" fault — discards the partial checkpoint and returns; the
// job itself is unaffected (degraded semantics).
template <typename Key, typename Value>
void WriteTaskCheckpoint(CheckpointContext* ckpt, size_t task,
                         PartitionedEmitter<Key, Value>* emitter,
                         SpillContext* spill) {
  if (Status s = FAULT_POINT_AT(
          "ckpt.write",
          ckpt->fault_write_base + static_cast<uint64_t>(task) + 1);
      !s.ok()) {
    return;
  }
  const std::string path = ckpt->DataPath(task);
  SpillRunWriter<Key, Value> writer(ckpt->NewIo(),
                                    CheckpointContext::Format());
  Status s = writer.Open(path);
  std::vector<SpillSegmentEntry> entries;
  for (size_t p = 0; s.ok() && p < emitter->num_partitions(); ++p) {
    const std::vector<SpillRunRef>& runs = emitter->spill_runs(p);
    std::vector<std::pair<Key, Value>>& bucket = emitter->bucket(p);
    if (runs.empty() && bucket.empty()) continue;
    writer.BeginRun(static_cast<uint32_t>(p));
    if (runs.empty()) {
      // Pure in-memory partition: the residue is already the full run.
      for (size_t i = 0; s.ok() && i < bucket.size(); ++i) {
        s = writer.Append(bucket[i]);
      }
    } else {
      std::vector<RunCursor<Key, Value>> cursors;
      cursors.reserve(runs.size() + 1);
      for (const SpillRunRef& run : runs) {
        RunCursor<Key, Value> cursor;
        cursor.from_disk = true;
        // Read back through the checkpoint's raw io, NOT spill->NewIo():
        // the fault-wrapped spill io charges every Read to "merge.read",
        // and sealing must never consume fires scheduled against the
        // job's real k-way merge (a seal-read failure is degraded, not
        // lossy — its injection site is "ckpt.write" above).
        cursor.reader =
            std::make_unique<SpillRunReader<Key, Value>>(ckpt->NewIo());
        cursor.reader->set_checksum_failure_counter(
            spill->checksum_failure_counter());
        s = cursor.reader->Open(run);
        if (!s.ok()) break;
        cursors.push_back(std::move(cursor));
      }
      // RunCursor's memory mode MOVES records out — merge from a copy so
      // the live residue stays intact for the job's own reduce.
      std::vector<std::pair<Key, Value>> residue(bucket.begin(),
                                                 bucket.end());
      if (s.ok() && !residue.empty()) {
        RunCursor<Key, Value> cursor;
        cursor.memory = &residue;
        cursors.push_back(std::move(cursor));
      }
      for (auto& cursor : cursors) {
        if (!s.ok()) break;
        s = cursor.Advance();
      }
      if (s.ok()) {
        RunCursorHeap<Key, Value> heap(&cursors);
        while (s.ok() && !heap.empty()) {
          const size_t index = heap.Pop();
          auto& cursor = cursors[index];
          s = writer.Append(cursor.head);
          if (!s.ok()) break;
          s = cursor.Advance();
          if (s.ok() && cursor.has_head) heap.Reinsert(index);
        }
      }
    }
    if (s.ok()) {
      SpillRunRef out_ref;
      s = writer.EndRun(&out_ref);
      if (s.ok()) {
        entries.push_back(SpillSegmentEntry{static_cast<uint32_t>(p),
                                            out_ref.offset, out_ref.length,
                                            out_ref.records});
      }
    }
  }
  if (s.ok()) s = writer.Finish();
  if (s.ok()) s = ckpt->WriteManifest(task, entries, writer.bytes_written());
  if (!s.ok()) {
    ckpt->Discard(task);
    return;
  }
  ckpt->RecordCheckpointed();
}

// Attempts to supply map task `task`'s output from its checkpoint.
// Returns true when the emitter was populated (the caller skips the map
// body). A missing / corrupt / mismatched checkpoint — or an injected
// "ckpt.read" fault — discards the on-disk artifacts and returns false:
// the task re-runs from its input, a suspect checkpoint is never trusted.
// Spill mode protects the segment file in the SpillContext BEFORE
// adopting any extent, so no later release path can delete it.
template <typename Key, typename Value>
bool TryRestoreTaskCheckpoint(CheckpointContext* ckpt, size_t task,
                              PartitionedEmitter<Key, Value>* emitter,
                              SpillContext* spill) {
  std::vector<SpillSegmentEntry> entries;
  Status s = FAULT_POINT_AT(
      "ckpt.read", ckpt->fault_read_base + static_cast<uint64_t>(task) + 1);
  if (s.ok()) s = ckpt->ReadManifest(task, &entries);
  for (const SpillSegmentEntry& entry : entries) {
    if (!s.ok()) break;
    if (entry.partition >= emitter->num_partitions()) {
      s = Status::Internal("checkpoint entry partition out of range");
    }
  }
  const std::string data_path = ckpt->DataPath(task);
  if (s.ok() && spill != nullptr) {
    spill->RegisterProtectedRuns(data_path, entries.size());
    for (const SpillSegmentEntry& entry : entries) {
      emitter->AdoptCheckpointRun(
          entry.partition,
          SpillRunRef{data_path, entry.offset, entry.length, entry.records});
    }
  } else if (s.ok()) {
    // In-memory job: load each partition's run back into its bucket.
    std::vector<std::vector<std::pair<Key, Value>>> buckets(
        emitter->num_partitions());
    for (const SpillSegmentEntry& entry : entries) {
      SpillRunReader<Key, Value> reader(ckpt->NewIo());
      s = reader.Open(
          SpillRunRef{data_path, entry.offset, entry.length, entry.records});
      auto& bucket = buckets[entry.partition];
      bucket.reserve(entry.records);
      while (s.ok()) {
        std::pair<Key, Value> record;
        bool done = false;
        s = reader.Next(&record, &done);
        if (!s.ok() || done) break;
        bucket.push_back(std::move(record));
      }
      if (s.ok()) s = reader.Close();
      if (!s.ok()) break;
    }
    if (s.ok()) {
      for (size_t p = 0; p < buckets.size(); ++p) {
        if (!buckets[p].empty()) {
          emitter->AdoptSortedBucket(p, std::move(buckets[p]));
        }
      }
    }
  }
  if (!s.ok()) {
    emitter->Abandon();  // drop anything a partial restore installed
    ckpt->Discard(task);
    return false;
  }
  ckpt->RecordSkipped();
  return true;
}

// Drives one map phase: retry wrapper + optional checkpoint-aware,
// optionally hedged attempts. `attempt(task, emitter, token, claim)` runs
// one attempt of one task against the given emitter, polling `token`
// between records and calling `claim()` exactly once when its results are
// complete — a false return means a concurrent attempt won and ALL of
// this attempt's bookkeeping must be skipped. `emitter_at(task)` yields
// the phase's installed emitter slot; `make_emitter()` builds the fresh
// spill-armed emitter a hedged attempt works against. After the phase,
// each hedge-won task's emitter slot is replaced by its hedge's emitter
// (the loser Abandon'ed), so downstream phases see exactly one winner.
template <typename Key, typename Value>
void RunMapPhase(
    ThreadPool* pool, size_t n, size_t max_retries, CancellationToken token,
    const char* fault_site, TaskCounters* counters,
    const std::function<void(size_t)>& reset, bool hedging,
    const std::function<PartitionedEmitter<Key, Value>&(size_t)>& emitter_at,
    const std::function<std::unique_ptr<PartitionedEmitter<Key, Value>>()>&
        make_emitter,
    const std::function<void(size_t, PartitionedEmitter<Key, Value>&,
                             const CancellationToken&,
                             const std::function<bool()>&)>& attempt,
    uint64_t* hedges_launched, uint64_t* hedges_won) {
  const uint64_t fault_base =
      ReservePhaseFaultBlock(fault_site, TaskFaultBlockSize(n));
  HedgeController hedge(n);
  std::vector<std::unique_ptr<PartitionedEmitter<Key, Value>>> hedge_emitters(
      n);
  if (hedging) {
    hedge.set_fault_base(ReservePhaseFaultBlock(
        "hedge.launch", static_cast<uint64_t>(n) + 1));
    hedge.set_launcher([&, pool, n, fault_base](size_t task) {
      pool->Submit([&, n, fault_base, task] {
        if (Status s = FAULT_POINT_AT(
                fault_site,
                fault_base + TaskAttemptFaultKey(n, task, kFaultHedgeAttempt));
            !s.ok()) {
          return;  // injected: the hedge aborts, the primary continues
        }
        try {
          hedge_emitters[task] = make_emitter();
          attempt(task, *hedge_emitters[task], hedge.hedge_token(task),
                  [&hedge, task] { return hedge.ClaimWin(task, 1); });
        } catch (...) {
          // A failed hedge is a no-op: it never claimed, the primary
          // attempt (and its retry budget) is unaffected.
        }
      });
    });
    pool->SetStuckTaskCallback([&hedge] { hedge.OnStuck(); });
  }
  RunTasksWithRetryHedged(
      pool, n, max_retries, std::move(token), fault_site, fault_base,
      counters, reset,
      [&](size_t task, const CancellationToken& attempt_token) {
        attempt(task, emitter_at(task), attempt_token,
                hedging ? std::function<bool()>([&hedge, task] {
                  return hedge.ClaimWin(task, 0);
                })
                        : std::function<bool()>([] { return true; }));
      },
      hedging ? &hedge : nullptr);
  if (!hedging) return;
  // Blocks until any in-flight callback returns; afterwards the
  // controller (a stack local) can no longer be reached.
  pool->SetStuckTaskCallback(nullptr);
  for (size_t t = 0; t < n; ++t) {
    if (hedge_emitters[t] == nullptr) continue;
    if (hedge.winner(t) == 1) {
      emitter_at(t).Abandon();
      emitter_at(t) = std::move(*hedge_emitters[t]);
    } else {
      hedge_emitters[t]->Abandon();
    }
  }
  if (hedges_launched != nullptr) *hedges_launched += hedge.launched();
  if (hedges_won != nullptr) *hedges_won += hedge.won();
}

}  // namespace mapreduce_internal

/// Runs one MapReduce job (legacy hash-shuffle mode).
///
/// `map_fn(input, emitter)` is called once per input record; it may emit any
/// number of (Key, Value) pairs. `reduce_fn(key, values, output)` is called
/// once per distinct key with every value emitted under that key; it appends
/// results to `output`. Key must be equality-comparable and hashable by
/// StableHash. Both functions must be thread-safe with respect to their own
/// captured state (they run concurrently on different records/groups).
///
/// Returns all reduce outputs (unspecified but deterministic order for a
/// fixed number of partitions). `stats`, if non-null, receives execution
/// statistics.
template <typename Input, typename Key, typename Value, typename Output>
std::vector<Output> RunMapReduce(
    const std::string& job_name, const std::vector<Input>& inputs,
    const std::function<void(const Input&, Emitter<Key, Value>*)>& map_fn,
    const std::function<void(const Key&, std::vector<Value>*,
                             std::vector<Output>*)>& reduce_fn,
    const MapReduceOptions& options = {}, JobStats* stats = nullptr,
    const CombinerFn<Key, Value>& combiner = nullptr) {
  const size_t num_workers = options.effective_workers();
  const size_t num_partitions = std::max<size_t>(1, options.num_partitions);
  ThreadPool pool(num_workers);
  JobStats local_stats;
  local_stats.name = job_name;
  local_stats.input_records = inputs.size();
  local_stats.executed_workers = num_workers;
  ShuffleGauge local_gauge;
  const mapreduce_internal::GaugePair gauge{&local_gauge,
                                            options.shuffle_gauge};
  CancellationToken cancel;
  mapreduce_internal::TaskCounters task_counters;

  // ---- Map phase -----------------------------------------------------
  Stopwatch map_watch;
  const size_t num_map_tasks =
      mapreduce_internal::NumMapTasks(inputs.size(), num_workers);
  std::vector<Emitter<Key, Value>> emitters(num_map_tasks);
  std::vector<uint64_t> map_task_units(num_map_tasks, 0);
  mapreduce_internal::RunTasksWithRetry(
      &pool, num_map_tasks, options.max_task_retries, cancel, "task.map",
      &task_counters,
      [&](size_t task) {  // reset: drop the attempt's buffered emissions
        emitters[task].pairs().clear();
        emitters[task].pairs().shrink_to_fit();
        map_task_units[task] = 0;
      },
      [&](size_t task) {
    const size_t begin = inputs.size() * task / num_map_tasks;
    const size_t end = inputs.size() * (task + 1) / num_map_tasks;
    TakeWorkUnits();  // clear leftovers from other tasks on this thread
    for (size_t i = begin; i < end; ++i) {
      map_fn(inputs[i], &emitters[task]);
    }
    if (combiner != nullptr) {
      // Local pre-aggregation: group this task's emissions by key and let
      // the combiner shrink each value list before the shuffle.
      struct HashAdapter {
        size_t operator()(const Key& k) const { return StableHash()(k); }
      };
      std::unordered_map<Key, std::vector<Value>, HashAdapter> local;
      for (auto& kv : emitters[task].pairs()) {
        local[std::move(kv.first)].push_back(std::move(kv.second));
      }
      auto& pairs = emitters[task].pairs();
      pairs.clear();
      for (auto& [key, values] : local) {
        combiner(key, &values);
        for (auto& value : values) {
          pairs.emplace_back(key, std::move(value));
        }
      }
    }
    map_task_units[task] = TakeWorkUnits();
    gauge.Add(emitters[task].pairs().size());
  });
  uint64_t map_output_records = 0;
  for (const auto& e : emitters) map_output_records += e.pairs().size();
  for (uint64_t units : map_task_units) {
    local_stats.map_work_units += units;
  }
  local_stats.map_output_records = map_output_records;
  local_stats.shuffle_records = map_output_records;
  local_stats.map_wall_seconds = map_watch.ElapsedSeconds();

  // ---- Shuffle phase ---------------------------------------------------
  Stopwatch shuffle_watch;
  StableHash hasher;
  // Each map task scatters its pairs into per-partition buckets, then the
  // buckets are concatenated per partition.
  std::vector<std::vector<std::vector<std::pair<Key, Value>>>> scattered(
      num_map_tasks);
  // Shuffle tasks consume the emitters destructively, so only start
  // faults retry here (reset == nullptr; see the fault contract).
  mapreduce_internal::RunTasksWithRetry(
      &pool, num_map_tasks, options.max_task_retries, cancel,
      "alloc.shuffle", &task_counters, nullptr, [&](size_t task) {
    auto& buckets = scattered[task];
    buckets.resize(num_partitions);
    const size_t task_records = emitters[task].pairs().size();
    gauge.Add(task_records);  // buckets fill while the emitter still lives
    for (auto& kv : emitters[task].pairs()) {
      const size_t p = hasher(kv.first) % num_partitions;
      buckets[p].push_back(std::move(kv));
    }
    emitters[task].pairs().clear();
    emitters[task].pairs().shrink_to_fit();
    gauge.Sub(task_records);
  });
  std::vector<std::vector<std::pair<Key, Value>>> partitions(num_partitions);
  mapreduce_internal::RunTasksWithRetry(
      &pool, num_partitions, options.max_task_retries, cancel,
      "alloc.shuffle", &task_counters, nullptr, [&](size_t p) {
    size_t total = 0;
    for (size_t task = 0; task < num_map_tasks; ++task) {
      total += scattered[task][p].size();
    }
    partitions[p].reserve(total);
    gauge.Add(total);
    for (size_t task = 0; task < num_map_tasks; ++task) {
      auto& bucket = scattered[task][p];
      std::move(bucket.begin(), bucket.end(),
                std::back_inserter(partitions[p]));
      bucket.clear();
      bucket.shrink_to_fit();
    }
    gauge.Sub(total);
  });
  scattered.clear();
  local_stats.shuffle_wall_seconds = shuffle_watch.ElapsedSeconds();

  // ---- Reduce phase ----------------------------------------------------
  Stopwatch reduce_watch;
  struct PartitionResult {
    std::vector<Output> outputs;
    std::vector<GroupLoad> loads;
    uint64_t num_groups = 0;
  };
  std::vector<PartitionResult> results(num_partitions);
  mapreduce_internal::RunTasksWithRetry(
      &pool, num_partitions, options.max_task_retries, cancel,
      "task.reduce", &task_counters, nullptr, [&](size_t p) {
    // Group the partition's pairs by key.
    struct HashAdapter {
      size_t operator()(const Key& k) const { return StableHash()(k); }
    };
    const size_t partition_records = partitions[p].size();
    gauge.Add(partition_records);  // the grouping map duplicates the records
    std::unordered_map<Key, std::vector<Value>, HashAdapter> groups;
    for (auto& kv : partitions[p]) {
      groups[kv.first].push_back(std::move(kv.second));
    }
    partitions[p].clear();
    partitions[p].shrink_to_fit();
    gauge.Sub(partition_records);
    auto& result = results[p];
    result.num_groups = groups.size();
    if (options.collect_group_loads) result.loads.reserve(groups.size());
    for (auto& [key, values] : groups) {
      if (options.collect_group_loads) {
        // Deterministic work units (work_units.h) are the preferred cost
        // source for the simulated-cluster makespan; per-group wall time
        // is kept as a fallback for reduce functions that report none.
        Stopwatch group_watch;
        const uint64_t records = values.size();
        TakeWorkUnits();
        reduce_fn(key, &values, &result.outputs);
        result.loads.push_back(GroupLoad{hasher(key), records,
                                         TakeWorkUnits(),
                                         group_watch.ElapsedSeconds()});
      } else {
        reduce_fn(key, &values, &result.outputs);
      }
    }
    gauge.Sub(partition_records);  // groups die with this task
    if (options.reduce_partition_epilogue) options.reduce_partition_epilogue();
  });
  std::vector<Output> outputs;
  {
    size_t total = 0;
    for (const auto& r : results) total += r.outputs.size();
    outputs.reserve(total);
  }
  for (auto& r : results) {
    local_stats.num_groups += r.num_groups;
    std::move(r.outputs.begin(), r.outputs.end(),
              std::back_inserter(outputs));
    if (options.collect_group_loads) {
      local_stats.group_loads.insert(local_stats.group_loads.end(),
                                     r.loads.begin(), r.loads.end());
    }
  }
  local_stats.reduce_output_records = outputs.size();
  local_stats.reduce_wall_seconds = reduce_watch.ElapsedSeconds();
  local_stats.peak_shuffle_records = local_gauge.peak();
  task_counters.AddTo(&local_stats);
  mapreduce_internal::FinishTaskStats(&pool, cancel, &local_stats);
  if (!local_stats.status.ok()) outputs.clear();  // aborted: outputs void

  if (stats != nullptr) *stats = std::move(local_stats);
  return outputs;
}

/// Runs one MapReduce job in streaming sorted-shuffle mode (see the file
/// comment): records are partitioned at emit time and each partition is
/// grouped by stable-sorting by key, so the reducer sees each run's
/// values as a mutable std::span (reducers may reorder in place; the
/// values arrive in map-task emission order, like the legacy grouping).
///
/// Same contract and statistics as RunMapReduce, with one difference:
/// Key must additionally be less-than-comparable. The optional combiner
/// runs as a run-scan over each map task's emitter buckets after the
/// task finishes emitting (PartitionedEmitter::Combine — combine-at-sort,
/// before the records cross into the shuffle); pre/post-combine volumes
/// are reported through JobStats::combiner_{input,output}_records, and
/// map_output_records/shuffle_records count the post-combine records,
/// like the legacy mode.
template <typename Input, typename Key, typename Value, typename Output>
std::vector<Output> RunMapReduceSorted(
    const std::string& job_name, const std::vector<Input>& inputs,
    const std::function<void(const Input&, PartitionedEmitter<Key, Value>*)>&
        map_fn,
    const std::function<void(const Key&, std::span<Value>,
                             std::vector<Output>*)>& reduce_fn,
    const MapReduceOptions& options = {}, JobStats* stats = nullptr,
    const CombinerFn<Key, Value>& combiner = nullptr) {
  const size_t num_workers = options.effective_workers();
  const size_t num_partitions = std::max<size_t>(1, options.num_partitions);
  ThreadPool pool(num_workers);
  JobStats local_stats;
  local_stats.name = job_name;
  local_stats.input_records = inputs.size();
  local_stats.executed_workers = num_workers;
  ShuffleGauge local_gauge;
  const mapreduce_internal::GaugePair gauge{&local_gauge,
                                            options.shuffle_gauge};
  std::unique_ptr<SpillContext> spill_context =
      mapreduce_internal::MakeSpillContext(options, &local_stats);
  const bool spilling = spill_context != nullptr;
  CancellationToken cancel;
  mapreduce_internal::TaskCounters task_counters;

  // ---- Map phase: partition at emit. -----------------------------------
  Stopwatch map_watch;
  const size_t num_map_tasks =
      mapreduce_internal::NumMapTasks(inputs.size(), num_workers);
  std::vector<PartitionedEmitter<Key, Value>> emitters;
  emitters.reserve(num_map_tasks);
  for (size_t t = 0; t < num_map_tasks; ++t) {
    emitters.emplace_back(num_partitions);
  }
  if (spilling) {
    // Each producer gets an even share of the job budget: per-producer
    // triggers are contention-free and deterministic for a fixed task
    // count, and the shares sum to (at most) the budget.
    const size_t share =
        std::max<size_t>(1, spill_context->budget() / num_map_tasks);
    for (auto& e : emitters) {
      e.EnableSpill(spill_context.get(), share, combiner);
    }
  }
  std::vector<uint64_t> map_task_units(num_map_tasks, 0);
  std::vector<uint64_t> combiner_in(num_map_tasks, 0);
  std::vector<uint64_t> combiner_out(num_map_tasks, 0);
  bool restore_enabled = false;
  std::unique_ptr<CheckpointContext> ckpt =
      mapreduce_internal::MakeCheckpointContext(options, job_name, "map",
                                                num_map_tasks, num_partitions,
                                                &restore_enabled);
  const bool hedging =
      options.enable_hedged_execution && pool.watchdog_enabled();
  mapreduce_internal::RunMapPhase<Key, Value>(
      &pool, num_map_tasks, options.max_task_retries, cancel, "task.map",
      &task_counters,
      [&](size_t task) {  // reset: rebuild the emitter from scratch
        emitters[task].Abandon();
        map_task_units[task] = 0;
        combiner_in[task] = 0;
        combiner_out[task] = 0;
      },
      hedging,
      [&](size_t task) -> PartitionedEmitter<Key, Value>& {
        return emitters[task];
      },
      [&]() {  // fresh emitter for a hedged attempt
        auto em =
            std::make_unique<PartitionedEmitter<Key, Value>>(num_partitions);
        if (spilling) {
          const size_t share =
              std::max<size_t>(1, spill_context->budget() / num_map_tasks);
          em->EnableSpill(spill_context.get(), share, combiner);
        }
        return em;
      },
      [&](size_t task, PartitionedEmitter<Key, Value>& em,
          const CancellationToken& attempt_token,
          const std::function<bool()>& claim) {
        if (ckpt != nullptr && restore_enabled &&
            mapreduce_internal::TryRestoreTaskCheckpoint<Key, Value>(
                ckpt.get(), task, &em, spill_context.get())) {
          if (!claim()) return;
          gauge.Add(em.size());
          return;
        }
        const size_t begin = inputs.size() * task / num_map_tasks;
        const size_t end = inputs.size() * (task + 1) / num_map_tasks;
        TakeWorkUnits();  // clear leftovers from other tasks on this thread
        for (size_t i = begin; i < end; ++i) {
          if (attempt_token.cancelled()) return;  // job abort or lost hedge
          map_fn(inputs[i], &em);
        }
        if (attempt_token.cancelled()) return;
        uint64_t cin = 0;
        uint64_t cout = 0;
        if (combiner != nullptr) em.Combine(combiner, &cin, &cout);
        em.FinishSpill();  // sort the residue for the merge
        const uint64_t units = TakeWorkUnits();
        if (!claim()) return;  // a concurrent attempt finished first
        map_task_units[task] = units;
        combiner_in[task] = cin;
        combiner_out[task] = cout;
        if (ckpt != nullptr) {
          mapreduce_internal::WriteTaskCheckpoint<Key, Value>(
              ckpt.get(), task, &em, spill_context.get());
        }
        gauge.Add(em.size());
      },
      &local_stats.hedges_launched, &local_stats.hedges_won);
  if (ckpt != nullptr) {
    local_stats.tasks_checkpointed += ckpt->tasks_checkpointed();
    local_stats.tasks_skipped_by_checkpoint += ckpt->tasks_skipped();
  }
  for (const auto& e : emitters) {
    local_stats.map_output_records += e.size() + e.spilled_records();
  }
  for (uint64_t units : map_task_units) {
    local_stats.map_work_units += units;
  }
  for (size_t t = 0; t < num_map_tasks; ++t) {
    local_stats.combiner_input_records +=
        combiner_in[t] + emitters[t].spill_combiner_input();
    local_stats.combiner_output_records +=
        combiner_out[t] + emitters[t].spill_combiner_output();
  }
  local_stats.shuffle_records = local_stats.map_output_records;
  local_stats.map_wall_seconds = map_watch.ElapsedSeconds();

  // ---- Shuffle phase: concatenate buckets, sort by key. -----------------
  // Under a spill budget there is nothing to do here: runs are already
  // sorted (on disk and in the residue buckets) and the merge happens
  // inside the reduce phase, streaming.
  Stopwatch shuffle_watch;
  std::vector<std::vector<std::pair<Key, Value>>> partitions(
      spilling ? 0 : num_partitions);
  if (!spilling) {
    mapreduce_internal::RunTasksWithRetry(
        &pool, num_partitions, options.max_task_retries, cancel,
        "alloc.shuffle", &task_counters, nullptr, [&](size_t p) {
      partitions[p] = mapreduce_internal::MergeSortPartition<Key, Value>(
          &emitters, p, gauge);
    });
  }
  local_stats.shuffle_wall_seconds = shuffle_watch.ElapsedSeconds();

  // ---- Reduce phase: contiguous key runs. -------------------------------
  Stopwatch reduce_watch;
  struct PartitionResult {
    std::vector<Output> outputs;
    std::vector<GroupLoad> loads;
    uint64_t num_groups = 0;
  };
  std::vector<PartitionResult> results(num_partitions);
  mapreduce_internal::RunTasksWithRetry(
      &pool, num_partitions, options.max_task_retries, cancel,
      "task.reduce", &task_counters, nullptr, [&](size_t p) {
    auto& result = results[p];
    if (spilling) {
      Status s = mapreduce_internal::ReduceMergedRuns<Key, Value>(
          &emitters, p, spill_context.get(), combiner,
          options.collect_group_loads, &result.loads, &result.num_groups,
          [&](const Key& key, std::span<Value> values) {
            reduce_fn(key, values, &result.outputs);
          });
      if (!s.ok()) spill_context->RecordDataLoss(s);
      // This partition's in-memory residue is gone.
      gauge.Sub(mapreduce_internal::ReleasePartitionResidue(&emitters, p));
    } else {
      auto& partition = partitions[p];
      mapreduce_internal::ReduceSortedRuns<Key, Value>(
          &partition, options.collect_group_loads, &result.loads,
          &result.num_groups, [&](const Key& key, std::span<Value> values) {
            reduce_fn(key, values, &result.outputs);
          });
      gauge.Sub(partition.size());
      partition.clear();
      partition.shrink_to_fit();
    }
    if (options.reduce_partition_epilogue) options.reduce_partition_epilogue();
  });
  std::vector<Output> outputs;
  {
    size_t total = 0;
    for (const auto& r : results) total += r.outputs.size();
    outputs.reserve(total);
  }
  for (auto& r : results) {
    local_stats.num_groups += r.num_groups;
    std::move(r.outputs.begin(), r.outputs.end(),
              std::back_inserter(outputs));
    if (options.collect_group_loads) {
      local_stats.group_loads.insert(local_stats.group_loads.end(),
                                     r.loads.begin(), r.loads.end());
    }
  }
  local_stats.reduce_output_records = outputs.size();
  local_stats.reduce_wall_seconds = reduce_watch.ElapsedSeconds();
  local_stats.peak_shuffle_records = local_gauge.peak();
  if (spilling) {
    local_stats.spilled_records = spill_context->spilled_records();
    local_stats.spill_files = spill_context->spill_files();
    local_stats.spill_bytes = spill_context->spill_bytes();
    local_stats.spill_raw_bytes = spill_context->spill_raw_bytes();
    local_stats.merge_passes = spill_context->merge_passes();
    local_stats.checksum_failures = spill_context->checksum_failures();
    local_stats.prefetch_hits = spill_context->prefetch_hits();
    local_stats.peak_resident_records = spill_context->resident().peak();
    local_stats.spill_status = spill_context->status();
    local_stats.spill_data_loss = spill_context->data_loss();
  } else {
    local_stats.peak_resident_records = local_gauge.peak();
  }
  task_counters.AddTo(&local_stats);
  mapreduce_internal::FinishTaskStats(&pool, cancel, &local_stats);
  if (!local_stats.status.ok()) outputs.clear();  // aborted: outputs void

  if (stats != nullptr) *stats = std::move(local_stats);
  return outputs;
}

/// Runs two sorted-shuffle stages fused into one job: stage 1's reduce
/// emits (Key2, Value2) records directly into stage 2's partition-at-emit
/// shuffle — the intermediate record vector a two-job pipeline would
/// materialize between them never exists — and `stage2_side_inputs` are
/// mapped by `map2_fn` into the same shuffle (pass an empty vector and
/// any map2_fn when there is no side input). Stage-1 partitions are freed
/// as they are reduced, so the peak of shuffle-resident records is
/// bounded by one stage's records plus transients instead of the sum of
/// both stages.
///
/// Both stages record their own JobStats (names `stage1_name` /
/// `stage2_name`, group loads included); they share one ShuffleGauge and
/// report the same fused-job peak. Determinism: like the other modes,
/// outputs are deterministic for fixed worker/partition counts; the order
/// of values within a stage-2 run follows producer order (stage-1
/// partitions first, then side-input map tasks), so reducers that must be
/// invariant across partition counts should be value-order-insensitive.
///
/// Combiners: `combiner1` pre-aggregates each stage-1 map task's emitter
/// buckets; `combiner2` pre-aggregates every stage-2 producer — both the
/// buckets stage 1's reduce emitted into and the side-input map tasks' —
/// right where they are filled (combine-at-sort, inside the producing
/// task, before the records cross the stage boundary). This is what
/// shrinks a hot reduce key's record run at its source: with `combiner2`
/// a stage-2 key that stage 1 emitted k times from one partition crosses
/// into the stage-2 shuffle as the combined records only. Reduction
/// volumes land in the respective stage's combiner_{input,output}
/// JobStats counters.
template <typename Input1, typename Key1, typename Value1, typename Input2,
          typename Key2, typename Value2, typename Output>
std::vector<Output> RunFusedMapReduceSorted(
    const std::string& stage1_name, const std::string& stage2_name,
    const std::vector<Input1>& stage1_inputs,
    const std::function<void(const Input1&,
                             PartitionedEmitter<Key1, Value1>*)>& map1_fn,
    const std::function<void(const Key1&, std::span<Value1>,
                             PartitionedEmitter<Key2, Value2>*)>& reduce1_fn,
    const std::vector<Input2>& stage2_side_inputs,
    const std::function<void(const Input2&,
                             PartitionedEmitter<Key2, Value2>*)>& map2_fn,
    const std::function<void(const Key2&, std::span<Value2>,
                             std::vector<Output>*)>& reduce2_fn,
    const MapReduceOptions& options = {}, JobStats* stage1_stats = nullptr,
    JobStats* stage2_stats = nullptr,
    const CombinerFn<Key1, Value1>& combiner1 = nullptr,
    const CombinerFn<Key2, Value2>& combiner2 = nullptr) {
  const size_t num_workers = options.effective_workers();
  const size_t num_partitions = std::max<size_t>(1, options.num_partitions);
  ThreadPool pool(num_workers);
  JobStats s1, s2;
  s1.name = stage1_name;
  s1.input_records = stage1_inputs.size();
  s1.executed_workers = num_workers;
  s2.name = stage2_name;
  s2.input_records = stage2_side_inputs.size();
  s2.executed_workers = num_workers;
  ShuffleGauge local_gauge;
  const mapreduce_internal::GaugePair gauge{&local_gauge,
                                            options.shuffle_gauge};
  std::unique_ptr<SpillContext> spill_context =
      mapreduce_internal::MakeSpillContext(options, &s1);
  const bool spilling = spill_context != nullptr;
  // One failure domain for the fused job: both stages share the token
  // (stage 2 cannot produce anything meaningful from an aborted stage 1)
  // but account their tasks separately.
  CancellationToken cancel;
  mapreduce_internal::TaskCounters counters1, counters2;

  // ---- Stage 1 map. -----------------------------------------------------
  Stopwatch map1_watch;
  const size_t num_map1_tasks =
      mapreduce_internal::NumMapTasks(stage1_inputs.size(), num_workers);
  std::vector<PartitionedEmitter<Key1, Value1>> emitters1;
  emitters1.reserve(num_map1_tasks);
  for (size_t t = 0; t < num_map1_tasks; ++t) {
    emitters1.emplace_back(num_partitions);
  }
  if (spilling) {
    // Both stages' producers are live at once while stage 1's reduce
    // feeds stage 2's shuffle, so each stage gets half the job budget,
    // split evenly over its producers.
    const size_t share = std::max<size_t>(
        1, spill_context->budget() / 2 / num_map1_tasks);
    for (auto& e : emitters1) {
      e.EnableSpill(spill_context.get(), share, combiner1);
    }
  }
  std::vector<uint64_t> map1_task_units(num_map1_tasks, 0);
  std::vector<uint64_t> combiner1_in(num_map1_tasks, 0);
  std::vector<uint64_t> combiner1_out(num_map1_tasks, 0);
  bool restore1 = false;
  std::unique_ptr<CheckpointContext> ckpt1 =
      mapreduce_internal::MakeCheckpointContext(options, stage1_name, "map1",
                                                num_map1_tasks,
                                                num_partitions, &restore1);
  const bool hedging =
      options.enable_hedged_execution && pool.watchdog_enabled();
  mapreduce_internal::RunMapPhase<Key1, Value1>(
      &pool, num_map1_tasks, options.max_task_retries, cancel, "task.map",
      &counters1,
      [&](size_t task) {  // reset: rebuild the emitter from scratch
        emitters1[task].Abandon();
        map1_task_units[task] = 0;
        combiner1_in[task] = 0;
        combiner1_out[task] = 0;
      },
      hedging,
      [&](size_t task) -> PartitionedEmitter<Key1, Value1>& {
        return emitters1[task];
      },
      [&]() {
        auto em =
            std::make_unique<PartitionedEmitter<Key1, Value1>>(num_partitions);
        if (spilling) {
          const size_t share = std::max<size_t>(
              1, spill_context->budget() / 2 / num_map1_tasks);
          em->EnableSpill(spill_context.get(), share, combiner1);
        }
        return em;
      },
      [&](size_t task, PartitionedEmitter<Key1, Value1>& em,
          const CancellationToken& attempt_token,
          const std::function<bool()>& claim) {
        if (ckpt1 != nullptr && restore1 &&
            mapreduce_internal::TryRestoreTaskCheckpoint<Key1, Value1>(
                ckpt1.get(), task, &em, spill_context.get())) {
          if (!claim()) return;
          gauge.Add(em.size());
          return;
        }
        const size_t begin = stage1_inputs.size() * task / num_map1_tasks;
        const size_t end = stage1_inputs.size() * (task + 1) / num_map1_tasks;
        TakeWorkUnits();
        for (size_t i = begin; i < end; ++i) {
          if (attempt_token.cancelled()) return;
          map1_fn(stage1_inputs[i], &em);
        }
        if (attempt_token.cancelled()) return;
        uint64_t cin = 0;
        uint64_t cout = 0;
        if (combiner1 != nullptr) em.Combine(combiner1, &cin, &cout);
        em.FinishSpill();
        const uint64_t units = TakeWorkUnits();
        if (!claim()) return;
        map1_task_units[task] = units;
        combiner1_in[task] = cin;
        combiner1_out[task] = cout;
        if (ckpt1 != nullptr) {
          mapreduce_internal::WriteTaskCheckpoint<Key1, Value1>(
              ckpt1.get(), task, &em, spill_context.get());
        }
        gauge.Add(em.size());
      },
      &s1.hedges_launched, &s1.hedges_won);
  if (ckpt1 != nullptr) {
    s1.tasks_checkpointed += ckpt1->tasks_checkpointed();
    s1.tasks_skipped_by_checkpoint += ckpt1->tasks_skipped();
  }
  for (const auto& e : emitters1) {
    s1.map_output_records += e.size() + e.spilled_records();
  }
  for (uint64_t units : map1_task_units) s1.map_work_units += units;
  for (size_t t = 0; t < num_map1_tasks; ++t) {
    s1.combiner_input_records +=
        combiner1_in[t] + emitters1[t].spill_combiner_input();
    s1.combiner_output_records +=
        combiner1_out[t] + emitters1[t].spill_combiner_output();
  }
  s1.shuffle_records = s1.map_output_records;
  s1.map_wall_seconds = map1_watch.ElapsedSeconds();

  // ---- Stage 1 shuffle (in-memory mode only; under a spill budget the
  // merge happens streaming, inside the stage-1 reduce). ------------------
  Stopwatch shuffle1_watch;
  std::vector<std::vector<std::pair<Key1, Value1>>> partitions1(
      spilling ? 0 : num_partitions);
  if (!spilling) {
    mapreduce_internal::RunTasksWithRetry(
        &pool, num_partitions, options.max_task_retries, cancel,
        "alloc.shuffle", &counters1, nullptr, [&](size_t p) {
      partitions1[p] = mapreduce_internal::MergeSortPartition<Key1, Value1>(
          &emitters1, p, gauge);
    });
  }
  s1.shuffle_wall_seconds = shuffle1_watch.ElapsedSeconds();

  // ---- Stage 2 producers: one per stage-1 reduce partition, then one per
  // side-input map task (fixed order keeps the run concatenation
  // deterministic).
  const size_t num_map2_tasks =
      stage2_side_inputs.empty()
          ? 0
          : mapreduce_internal::NumMapTasks(stage2_side_inputs.size(),
                                            num_workers);
  std::vector<PartitionedEmitter<Key2, Value2>> producers2;
  producers2.reserve(num_partitions + num_map2_tasks);
  for (size_t t = 0; t < num_partitions + num_map2_tasks; ++t) {
    producers2.emplace_back(num_partitions);
  }
  if (spilling) {
    const size_t share = std::max<size_t>(
        1, spill_context->budget() / 2 / producers2.size());
    for (auto& producer : producers2) {
      producer.EnableSpill(spill_context.get(), share, combiner2);
    }
  }

  // ---- Stage 2 side map. -------------------------------------------------
  Stopwatch map2_watch;
  std::vector<uint64_t> map2_task_units(num_map2_tasks, 0);
  // One slot per stage-2 producer: stage-1 reduce partitions first, then
  // side-input map tasks (same layout as producers2).
  std::vector<uint64_t> combiner2_in(num_partitions + num_map2_tasks, 0);
  std::vector<uint64_t> combiner2_out(num_partitions + num_map2_tasks, 0);
  bool restore2 = false;
  std::unique_ptr<CheckpointContext> ckpt2 =
      num_map2_tasks == 0
          ? nullptr
          : mapreduce_internal::MakeCheckpointContext(
                options, stage2_name, "map2", num_map2_tasks, num_partitions,
                &restore2);
  mapreduce_internal::RunMapPhase<Key2, Value2>(
      &pool, num_map2_tasks, options.max_task_retries, cancel, "task.map",
      &counters2,
      [&](size_t task) {  // reset: rebuild the side-input producer
        producers2[num_partitions + task].Abandon();
        map2_task_units[task] = 0;
        combiner2_in[num_partitions + task] = 0;
        combiner2_out[num_partitions + task] = 0;
      },
      hedging && num_map2_tasks > 0,
      [&](size_t task) -> PartitionedEmitter<Key2, Value2>& {
        return producers2[num_partitions + task];
      },
      [&]() {
        auto em =
            std::make_unique<PartitionedEmitter<Key2, Value2>>(num_partitions);
        if (spilling) {
          const size_t share = std::max<size_t>(
              1, spill_context->budget() / 2 / producers2.size());
          em->EnableSpill(spill_context.get(), share, combiner2);
        }
        return em;
      },
      [&](size_t task, PartitionedEmitter<Key2, Value2>& em,
          const CancellationToken& attempt_token,
          const std::function<bool()>& claim) {
        if (ckpt2 != nullptr && restore2 &&
            mapreduce_internal::TryRestoreTaskCheckpoint<Key2, Value2>(
                ckpt2.get(), task, &em, spill_context.get())) {
          if (!claim()) return;
          gauge.Add(em.size());
          return;
        }
        const size_t begin =
            stage2_side_inputs.size() * task / num_map2_tasks;
        const size_t end =
            stage2_side_inputs.size() * (task + 1) / num_map2_tasks;
        TakeWorkUnits();
        for (size_t i = begin; i < end; ++i) {
          if (attempt_token.cancelled()) return;
          map2_fn(stage2_side_inputs[i], &em);
        }
        if (attempt_token.cancelled()) return;
        uint64_t cin = 0;
        uint64_t cout = 0;
        if (combiner2 != nullptr) em.Combine(combiner2, &cin, &cout);
        em.FinishSpill();
        const uint64_t units = TakeWorkUnits();
        if (!claim()) return;
        map2_task_units[task] = units;
        combiner2_in[num_partitions + task] = cin;
        combiner2_out[num_partitions + task] = cout;
        if (ckpt2 != nullptr) {
          mapreduce_internal::WriteTaskCheckpoint<Key2, Value2>(
              ckpt2.get(), task, &em, spill_context.get());
        }
        gauge.Add(em.size());
      },
      &s2.hedges_launched, &s2.hedges_won);
  if (ckpt2 != nullptr) {
    s2.tasks_checkpointed += ckpt2->tasks_checkpointed();
    s2.tasks_skipped_by_checkpoint += ckpt2->tasks_skipped();
  }
  for (uint64_t units : map2_task_units) s2.map_work_units += units;
  s2.map_wall_seconds = map2_watch.ElapsedSeconds();

  // ---- Stage 1 reduce, emitting into stage 2's shuffle. ------------------
  Stopwatch reduce1_watch;
  struct Stage1Result {
    std::vector<GroupLoad> loads;
    uint64_t num_groups = 0;
  };
  std::vector<Stage1Result> results1(num_partitions);
  mapreduce_internal::RunTasksWithRetry(
      &pool, num_partitions, options.max_task_retries, cancel,
      "task.reduce", &counters1, nullptr, [&](size_t p) {
    auto& result = results1[p];
    auto* out = &producers2[p];
    if (spilling) {
      Status s = mapreduce_internal::ReduceMergedRuns<Key1, Value1>(
          &emitters1, p, spill_context.get(), combiner1,
          options.collect_group_loads, &result.loads, &result.num_groups,
          [&](const Key1& key, std::span<Value1> values) {
            reduce1_fn(key, values, out);
          });
      if (!s.ok()) spill_context->RecordDataLoss(s);
      const size_t residue =
          mapreduce_internal::ReleasePartitionResidue(&emitters1, p);
      if (combiner2 != nullptr) {
        out->Combine(combiner2, &combiner2_in[p], &combiner2_out[p]);
      }
      out->FinishSpill();
      gauge.Add(out->size());  // records now live in stage 2's buckets
      gauge.Sub(residue);      // this stage-1 partition's residue is gone
    } else {
      auto& partition = partitions1[p];
      mapreduce_internal::ReduceSortedRuns<Key1, Value1>(
          &partition, options.collect_group_loads, &result.loads,
          &result.num_groups,
          [&](const Key1& key, std::span<Value1> values) {
            reduce1_fn(key, values, out);
          });
      if (combiner2 != nullptr) {
        // Combine-at-sort on the stage boundary: this partition's
        // emissions shrink before they are ever counted as stage-2
        // shuffle residents.
        out->Combine(combiner2, &combiner2_in[p], &combiner2_out[p]);
      }
      gauge.Add(out->size());       // records now live in stage 2's buckets
      gauge.Sub(partition.size());  // this stage-1 partition is done
      partition.clear();
      partition.shrink_to_fit();
    }
    if (options.reduce_partition_epilogue) options.reduce_partition_epilogue();
  });
  for (auto& r : results1) {
    s1.num_groups += r.num_groups;
    if (options.collect_group_loads) {
      s1.group_loads.insert(s1.group_loads.end(), r.loads.begin(),
                            r.loads.end());
    }
  }
  for (size_t p = 0; p < combiner2_in.size(); ++p) {
    s2.combiner_input_records +=
        combiner2_in[p] + producers2[p].spill_combiner_input();
    s2.combiner_output_records +=
        combiner2_out[p] + producers2[p].spill_combiner_output();
  }
  for (size_t p = 0; p < num_partitions; ++p) {
    s1.reduce_output_records +=
        producers2[p].size() + producers2[p].spilled_records();
  }
  s1.reduce_wall_seconds = reduce1_watch.ElapsedSeconds();
  for (const auto& producer : producers2) {
    s2.map_output_records += producer.size() + producer.spilled_records();
  }
  s2.shuffle_records = s2.map_output_records;

  // ---- Stage 2 shuffle (in-memory mode only, like stage 1's). ------------
  Stopwatch shuffle2_watch;
  std::vector<std::vector<std::pair<Key2, Value2>>> partitions2(
      spilling ? 0 : num_partitions);
  if (!spilling) {
    mapreduce_internal::RunTasksWithRetry(
        &pool, num_partitions, options.max_task_retries, cancel,
        "alloc.shuffle", &counters2, nullptr, [&](size_t p) {
      partitions2[p] = mapreduce_internal::MergeSortPartition<Key2, Value2>(
          &producers2, p, gauge);
    });
  }
  s2.shuffle_wall_seconds = shuffle2_watch.ElapsedSeconds();

  // ---- Stage 2 reduce. ---------------------------------------------------
  Stopwatch reduce2_watch;
  struct Stage2Result {
    std::vector<Output> outputs;
    std::vector<GroupLoad> loads;
    uint64_t num_groups = 0;
  };
  std::vector<Stage2Result> results2(num_partitions);
  mapreduce_internal::RunTasksWithRetry(
      &pool, num_partitions, options.max_task_retries, cancel,
      "task.reduce", &counters2, nullptr, [&](size_t p) {
    auto& result = results2[p];
    if (spilling) {
      Status s = mapreduce_internal::ReduceMergedRuns<Key2, Value2>(
          &producers2, p, spill_context.get(), combiner2,
          options.collect_group_loads, &result.loads, &result.num_groups,
          [&](const Key2& key, std::span<Value2> values) {
            reduce2_fn(key, values, &result.outputs);
          });
      if (!s.ok()) spill_context->RecordDataLoss(s);
      gauge.Sub(
          mapreduce_internal::ReleasePartitionResidue(&producers2, p));
    } else {
      auto& partition = partitions2[p];
      mapreduce_internal::ReduceSortedRuns<Key2, Value2>(
          &partition, options.collect_group_loads, &result.loads,
          &result.num_groups,
          [&](const Key2& key, std::span<Value2> values) {
            reduce2_fn(key, values, &result.outputs);
          });
      gauge.Sub(partition.size());
      partition.clear();
      partition.shrink_to_fit();
    }
    if (options.reduce_partition_epilogue) options.reduce_partition_epilogue();
  });
  std::vector<Output> outputs;
  {
    size_t total = 0;
    for (const auto& r : results2) total += r.outputs.size();
    outputs.reserve(total);
  }
  for (auto& r : results2) {
    s2.num_groups += r.num_groups;
    std::move(r.outputs.begin(), r.outputs.end(),
              std::back_inserter(outputs));
    if (options.collect_group_loads) {
      s2.group_loads.insert(s2.group_loads.end(), r.loads.begin(),
                            r.loads.end());
    }
  }
  s2.reduce_output_records = outputs.size();
  s2.reduce_wall_seconds = reduce2_watch.ElapsedSeconds();
  s1.peak_shuffle_records = local_gauge.peak();
  s2.peak_shuffle_records = local_gauge.peak();
  if (spilling) {
    // The stages share one spill context (budget, directory, gauge); the
    // fused-job totals are reported on stage 2 — the stage whose stats
    // callers inspect for the job's end state — with the shared peak and
    // status mirrored on both, like the shuffle gauge.
    s2.spilled_records = spill_context->spilled_records();
    s2.spill_files = spill_context->spill_files();
    s2.spill_bytes = spill_context->spill_bytes();
    s2.spill_raw_bytes = spill_context->spill_raw_bytes();
    s2.merge_passes = spill_context->merge_passes();
    s2.checksum_failures = spill_context->checksum_failures();
    s2.prefetch_hits = spill_context->prefetch_hits();
    s1.peak_resident_records = spill_context->resident().peak();
    s2.peak_resident_records = spill_context->resident().peak();
    s1.spill_status = spill_context->status();
    s2.spill_status = spill_context->status();
    s1.spill_data_loss = spill_context->data_loss();
    s2.spill_data_loss = spill_context->data_loss();
  } else {
    s1.peak_resident_records = local_gauge.peak();
    s2.peak_resident_records = local_gauge.peak();
  }
  counters1.AddTo(&s1);
  counters2.AddTo(&s2);
  // The fused job is one failure domain: the watchdog count and the pool
  // safety-net status land on stage 2 (the stage whose stats carry the
  // job's end state), with the fatal status mirrored on both stages like
  // the spill status.
  mapreduce_internal::FinishTaskStats(&pool, cancel, &s2);
  s1.status = s2.status;
  if (!s2.status.ok()) outputs.clear();  // aborted: outputs void

  if (stage1_stats != nullptr) *stage1_stats = std::move(s1);
  if (stage2_stats != nullptr) *stage2_stats = std::move(s2);
  return outputs;
}

}  // namespace tsj

#endif  // TSJ_MAPREDUCE_MAPREDUCE_H_
