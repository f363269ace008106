// MassJoin: a MapReduce-distributed string similarity join (Deng, Li, Hao,
// Wang & Feng [19]), adapted from LD thresholds to NLD thresholds via
// Lemmas 8 and 9, exactly as TSJ requires (Sec. III-D).
//
// Job 1 (massjoin-generate: signatures, pairing, verification) — each
// token plays two roles:
//  * segment role (token as the shorter side): for every feasible longer
//    length ly, the token is partitioned into MaxLdForNld(T, ly)+1 even
//    segments; each segment is emitted under the signature of
//    (ly, |token|, segment index, chunk text);
//  * substring role (token as the longer side): for every feasible shorter
//    length lx, the multi-match-aware selection enumerates the substrings
//    that could match a segment of an lx-length string, emitted under the
//    signature of the same tuple.
// A signature is one 64-bit hash of that tuple (a collision only merges
// two groups, which can add candidates but never lose one). The reducer
// pairs segment-role tokens with substring-role tokens sharing a
// signature and verifies each pair on the spot: the Lemma 8 LD budget of
// the pair's own lengths, the character-count lower bound
// (distance/char_counts.h), the bounded Myers kernel, then NLD <= T. Only
// matching pairs are emitted, keyed by the normalized (a, b) token ids
// with their LD as the value.
//
// Job 2 (massjoin-verify: dedup) — the verified pairs are grouped by
// pair id, so a pair found under several signatures is reported once; a
// keep-first combiner collapses the duplicates before they cross the
// stage boundary, and the reducer builds the NldPair from the carried LD.
//
// The result equals PassJoinSelfNld on the same input (tested), but every
// stage is a MapReduce job with recorded JobStats — the pairing reducer
// charges banded-verify work units for every pair the kernel checks and
// one unit for a pair the count bound rejects — so TSJ's
// cluster-time simulation covers the token join too.

#ifndef TSJ_MASSJOIN_MASS_JOIN_H_
#define TSJ_MASSJOIN_MASS_JOIN_H_

#include <string>
#include <vector>

#include "mapreduce/job_stats.h"
#include "mapreduce/mapreduce.h"
#include "passjoin/pass_join.h"

namespace tsj {

/// MassJoin configuration.
struct MassJoinOptions {
  /// Engine options used by both jobs.
  MapReduceOptions mapreduce;
  /// Skew-adaptive shuffle partitioning (mapreduce/cluster_model.h): the
  /// partition count is planned from the token-length profile — each
  /// token's signature fan-out scales with its length and the threshold
  /// — instead of the fixed mapreduce.num_partitions knob (which remains
  /// the fallback and the off-switch value). Signature keys are hashes
  /// that spread evenly over the key space, so the profile is
  /// near-uniform and the planner mostly picks the classic 4-per-worker
  /// granularity bounded by the key count. Lossless: results are
  /// partition-count-invariant.
  bool adaptive_partitions = true;
  /// External-memory shuffle spill (mapreduce/spill.h): when enabled AND
  /// mapreduce.memory_budget_records is set, the fused generate/verify
  /// job bounds its resident shuffle records by the budget (sorted runs
  /// on disk, k-way merge at reduce time). Lossless. Off by default (the
  /// budget is then ignored). MassJoinSelfNld returns a plain vector, so
  /// spill faults surface through the JobStats::spill_status /
  /// spill_data_loss entries appended to `stats` — TSJ checks the lossy
  /// class and fails its join on it.
  bool enable_shuffle_spill = false;
  /// Checkpoint/restart (mapreduce.h "Checkpoint validity"; same
  /// semantics as TsjOptions::enable_checkpointing): when enabled AND
  /// mapreduce.checkpoint_dir is set, the fused job seals completed map
  /// tasks under that directory and a restarted run over the same tokens
  /// skips tasks whose checkpoint validates. A zero
  /// mapreduce.checkpoint_fingerprint is derived from the token
  /// statistics and the threshold; a tag of the job's record layout is
  /// folded into every fingerprint, supplied or derived, so checkpoints
  /// sealed with another record shape are never restored. Off by default: the engine-level dir
  /// is stripped unless this is set. TSJ forwards its own switch here.
  bool enable_checkpointing = false;
};

/// Self-joins `tokens` under NLD <= threshold (0 <= threshold < 1) using
/// the two-job MapReduce plan described above. Returns duplicate-free
/// pairs (a < b). Per-job statistics are appended to `stats` if non-null.
std::vector<NldPair> MassJoinSelfNld(const std::vector<std::string>& tokens,
                                     double threshold,
                                     const MassJoinOptions& options = {},
                                     PipelineStats* stats = nullptr);

/// Status-returning entry point with the same fault contract as
/// TokenizedStringJoiner::SelfJoin and HybridMetricJoiner::SelfJoin: a
/// lossy spill fault (failed run read — outputs may be incomplete) or a
/// fatal task error (a job aborted; see the fault-tolerance contract in
/// mapreduce.h) fails the join with the root-cause Status; degraded
/// write faults and retry-absorbed task failures keep their complete
/// results and surface only through `stats` (JobStats::spill_status and
/// the task counters). MassJoinSelfNld above is the legacy thin wrapper
/// that drops the Status.
StatusOr<std::vector<NldPair>> RunMassJoinSelfNld(
    const std::vector<std::string>& tokens, double threshold,
    const MassJoinOptions& options = {}, PipelineStats* stats = nullptr);

}  // namespace tsj

#endif  // TSJ_MASSJOIN_MASS_JOIN_H_
