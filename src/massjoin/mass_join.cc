#include "massjoin/mass_join.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "distance/char_counts.h"
#include "distance/myers.h"
#include "distance/normalized_levenshtein.h"
#include "mapreduce/cluster_model.h"
#include "mapreduce/work_units.h"
#include "passjoin/partition.h"

namespace tsj {

namespace {

// Key of the signature space: one 64-bit hash of (longer length, shorter
// length, segment index, chunk text), i.e.
//   HashCombine(Mix64(packed ly/lx/segment), Fingerprint64(chunk)),
// with the chunk hashed straight from a string_view of the token (no
// substring copy, no allocation per signature). A fixed-width key keeps
// the shuffle sort and the spill codec on plain integers.
//
// Collisions are harmless. Two distinct signatures that hash alike only
// merge their groups; a merged group pairs a superset of the tokens the
// separate groups would have paired, so it can add candidate pairs but
// never lose one. Every candidate is verified exactly in the pairing
// reducer (Lemma 8 bound from the pair's own lengths, then NLD <= T), so
// an extra candidate from a merge is rejected or, if it truly matches,
// already belongs in the result. The join output does not depend on the
// hash. The same argument covers bits that overlap in the packing below.
using SignatureKey = uint64_t;

SignatureKey MakeSignatureKey(size_t ly, size_t lx, size_t segment,
                              std::string_view chunk) {
  const uint64_t packed = (static_cast<uint64_t>(ly) << 40) ^
                          (static_cast<uint64_t>(lx) << 20) ^
                          static_cast<uint64_t>(segment);
  return HashCombine(Mix64(packed), Fingerprint64(chunk));
}

// Value: token id plus its role under this signature.
struct RoleValue {
  uint32_t token_id;
  bool is_substring_role;  // false = segment role (shorter side)
};

// A verified token pair, normalized a < b; the stage-2 value is its LD.
using TokenPair = std::pair<uint32_t, uint32_t>;

// Record layout of the fused job (key/value types of both stages), folded
// into the checkpoint fingerprint: a restart must never adopt segments
// sealed by a build whose records have another shape, even when they
// happen to decode. Bump it whenever SignatureKey, RoleValue or the
// stage-2 record changes.
constexpr uint64_t kRecordLayoutTag = 0x4d4a2d7632ULL;  // "MJ-v2"

// The full join body; both public entry points are thin wrappers over it
// (RunMassJoinSelfNld adds the fault checks, MassJoinSelfNld the legacy
// stats-only fault surfacing).
std::vector<NldPair> MassJoinSelfNldImpl(
    const std::vector<std::string>& tokens, double threshold,
    const MassJoinOptions& options, PipelineStats* stats) {
  assert(threshold >= 0.0 && threshold < 1.0);

  // The two jobs run fused on the streaming sorted-shuffle engine
  // (mapreduce.h): the pairing reduce of the generation stage verifies
  // its pairs and emits only the matching ones straight into the dedup
  // shuffle, so neither the raw candidate set nor the verified pairs are
  // materialized between the stages.
  //
  // ---- Stage 1: signature generation + pairing + verification. ----------
  // Input records are token ids; the token texts are read-only side data
  // (in a real deployment they ship with the record).
  std::vector<uint32_t> ids(tokens.size());
  for (uint32_t i = 0; i < tokens.size(); ++i) ids[i] = i;

  // Skew-adaptive partition planning from the token-length profile: a
  // token's signature fan-out scales with its length, and the hashed
  // signature keys spread evenly over the key space, so the profile is
  // near-uniform — the planner lands at the classic 4-per-worker
  // granularity bounded by the token count, instead of whatever fixed
  // knob the caller configured.
  MapReduceOptions mr_options = options.mapreduce;
  if (!options.enable_shuffle_spill) mr_options.memory_budget_records = 0;
  // Checkpoint gating (same contract as the TSJ gate): strip the
  // engine-level dir unless the join-level switch is on; derive a zero
  // fingerprint from the token statistics and the threshold. The record
  // layout is folded in either way, caller-supplied fingerprints too.
  if (!options.enable_checkpointing) {
    mr_options.checkpoint_dir.clear();
  } else {
    uint64_t fp = mr_options.checkpoint_fingerprint;
    if (fp == 0) {
      fp = MixCheckpointFingerprint(0, tokens.size());
      uint64_t total_bytes = 0;
      for (const std::string& token : tokens) total_bytes += token.size();
      fp = MixCheckpointFingerprint(fp, total_bytes);
      fp = MixCheckpointFingerprint(fp,
                                    static_cast<uint64_t>(threshold * 1e9));
    }
    mr_options.checkpoint_fingerprint =
        MixCheckpointFingerprint(fp, kRecordLayoutTag);
  }
  if (options.adaptive_partitions) {
    uint64_t total_len = 0, max_len = 0;
    for (const std::string& token : tokens) {
      total_len += token.size() + 1;
      max_len = std::max<uint64_t>(max_len, token.size() + 1);
    }
    mr_options.num_partitions = AdaptivePartitionCount(
        mr_options.effective_workers(), tokens.size(), total_len, max_len,
        mr_options.num_partitions);
  }

  auto map_signatures = [&tokens, threshold](
                            const uint32_t& id,
                            PartitionedEmitter<SignatureKey, RoleValue>* out) {
    const size_t emitted_before = out->size();
    const std::string_view text = tokens[id];
    const size_t len = text.size();
    // Segment role: this token as the shorter side of a future pair.
    const size_t max_longer = MaxLongerLengthForNld(threshold, len);
    for (size_t ly = len; ly <= max_longer; ++ly) {
      const uint32_t tau = MaxLdForNld(threshold, ly, /*x_is_shorter=*/true);
      const auto segments = EvenPartition(len, tau + 1);
      for (size_t i = 0; i < segments.size(); ++i) {
        const Segment& seg = segments[i];
        out->Emit(MakeSignatureKey(ly, len, i,
                                   text.substr(seg.start, seg.length)),
                  RoleValue{id, /*is_substring_role=*/false});
      }
    }
    // Substring role: this token as the longer side.
    const uint32_t tau = MaxLdForNld(threshold, len, /*x_is_shorter=*/true);
    const size_t min_lx = MinShorterLengthForNld(threshold, len);
    for (size_t lx = min_lx; lx <= len; ++lx) {
      const auto segments = EvenPartition(lx, tau + 1);
      for (size_t i = 0; i < segments.size(); ++i) {
        const Segment& seg = segments[i];
        const StartRange range =
            SubstringStartRange(len, lx, tau, i, segments[i]);
        for (int64_t start = range.lo; start <= range.hi; ++start) {
          out->Emit(
              MakeSignatureKey(len, lx, i, ExtractChunk(text, start, seg)),
              RoleValue{id, /*is_substring_role=*/true});
        }
      }
    }
    AddWorkUnits(1 + (out->size() - emitted_before));
  };

  // Per-call tables for the pairing reducer: each token's character
  // counts, and the Lemma 8 budget of a pair by its longer length.
  std::vector<CharCounts> char_counts(tokens.size());
  size_t max_token_length = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    char_counts[i] = CountChars(tokens[i]);
    max_token_length = std::max(max_token_length, tokens[i].size());
  }
  std::vector<uint32_t> tau_by_length(max_token_length + 1);
  for (size_t len = 0; len <= max_token_length; ++len) {
    tau_by_length[len] = MaxLdForNld(threshold, len, /*x_is_shorter=*/true);
  }

  auto reduce_pairs = [&tokens, &char_counts, &tau_by_length, threshold](
                          const SignatureKey& /*key*/,
                          std::span<RoleValue> values,
                          PartitionedEmitter<TokenPair, uint32_t>* out) {
    uint64_t units = values.size();
    // Pair every segment-role token with every substring-role token and
    // verify the pair here, under the Lemma 8 budget of its own lengths;
    // only matching pairs cross into the dedup shuffle, carrying their LD.
    for (const RoleValue& seg : values) {
      if (seg.is_substring_role) continue;
      const std::string& x = tokens[seg.token_id];
      const CharCounts& x_counts = char_counts[seg.token_id];
      for (const RoleValue& sub : values) {
        if (!sub.is_substring_role) continue;
        if (seg.token_id == sub.token_id) continue;
        const std::string& y = tokens[sub.token_id];
        const uint32_t tau = tau_by_length[std::max(x.size(), y.size())];
        // The character-count bound rejects most pairs without the kernel
        // (lossless: it never exceeds LD); charged one unit.
        if (CharCountLdLowerBound(x_counts, char_counts[sub.token_id]) >
            tau) {
          ++units;
          continue;
        }
        // Charged as the banded verifier: at most (2*tau+1) cells per row.
        units += (2 * static_cast<uint64_t>(tau) + 1) *
                     std::min(x.size(), y.size()) +
                 1;
        const uint32_t ld = MyersBoundedLevenshtein(x, y, tau);
        if (ld > tau) continue;
        if (NldFromLd(ld, x.size(), y.size()) > threshold) continue;
        out->Emit(TokenPair{std::min(seg.token_id, sub.token_id),
                            std::max(seg.token_id, sub.token_id)},
                  ld);
        ++units;
      }
    }
    AddWorkUnits(units);
  };

  // ---- Stage 2: dedup (one contiguous run per distinct verified pair). --
  // No side input: the fused call gets an empty input list and an
  // explicit no-op mapper (never invoked).
  auto map_side = [](const TokenPair&,
                     PartitionedEmitter<TokenPair, uint32_t>*) {};
  auto reduce_dedup = [&tokens](const TokenPair& pair,
                                std::span<uint32_t> lds,
                                std::vector<NldPair>* out) {
    AddWorkUnits(lds.size());
    // Every record of a pair carries the same exact LD.
    const uint32_t ld = lds.front();
    out->push_back(NldPair{pair.first, pair.second, ld,
                           NldFromLd(ld, tokens[pair.first].size(),
                                     tokens[pair.second].size())});
  };

  JobStats generate_stats, verify_stats;
  std::vector<NldPair> results =
      RunFusedMapReduceSorted<uint32_t, SignatureKey, RoleValue, TokenPair,
                              TokenPair, uint32_t, NldPair>(
          "massjoin-generate", "massjoin-verify", ids, map_signatures,
          reduce_pairs, /*stage2_side_inputs=*/{}, map_side, reduce_dedup,
          mr_options, &generate_stats, &verify_stats,
          /*combiner1=*/nullptr,
          // A pair verified under several signatures collapses at the
          // stage boundary (its records are interchangeable).
          KeepFirstCombiner<TokenPair, uint32_t>());
  if (stats != nullptr) {
    stats->Add(std::move(generate_stats));
    stats->Add(std::move(verify_stats));
  }
  return results;
}

}  // namespace

std::vector<NldPair> MassJoinSelfNld(const std::vector<std::string>& tokens,
                                     double threshold,
                                     const MassJoinOptions& options,
                                     PipelineStats* stats) {
  return MassJoinSelfNldImpl(tokens, threshold, options, stats);
}

StatusOr<std::vector<NldPair>> RunMassJoinSelfNld(
    const std::vector<std::string>& tokens, double threshold,
    const MassJoinOptions& options, PipelineStats* stats) {
  PipelineStats local_stats;
  std::vector<NldPair> results =
      MassJoinSelfNldImpl(tokens, threshold, options, &local_stats);
  const Status data_loss = local_stats.first_spill_data_loss();
  const Status task_error = local_stats.first_task_error();
  if (stats != nullptr) stats->Append(std::move(local_stats));
  // Same fault contract as tsj/hmj: lossy spill faults and fatal task
  // errors (outputs may be incomplete) fail the join; degraded write
  // faults and retry-absorbed failures keep their complete results and
  // stay visible through the pipeline stats.
  if (!data_loss.ok()) return data_loss;
  if (!task_error.ok()) return task_error;
  return results;
}

}  // namespace tsj
