#include "tsj/tsj.h"

#include <algorithm>
#include <atomic>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "mapreduce/cluster_model.h"
#include "mapreduce/work_units.h"
#include "massjoin/mass_join.h"
#include "tokenized/bounds.h"
#include "tokenized/sld.h"

namespace tsj {

namespace {

// A pre-dedup candidate record flowing into the dedup/verify job: either a
// filtered string-id pair from the shared-token pass, or a similar-token
// pair still to be expanded against the token postings. The streaming
// pipeline only ever materializes the similar-token form (shared-token
// pairs stream straight from the generating reduce into the dedup
// shuffle). Every emit site applies the lossless filters (PairFilter), so
// the dedup shuffle only ever holds pairs that can still join.
struct RawCandidate {
  uint32_t a = 0;
  uint32_t b = 0;
  bool is_token_pair = false;
};

// Key choice of the grouping-on-one-string strategy (Sec. III-G.3): for a
// pair (tau, upsilon), tau becomes the key iff
//   int(HASH(tau) < HASH(upsilon)) == (HASH(tau) + HASH(upsilon)) % 2,
// which splits key duty evenly regardless of id distribution.
inline uint32_t PickGroupKey(uint32_t a, uint32_t b) {
  const uint64_t ha = Mix64(a);
  const uint64_t hb = Mix64(b);
  const uint64_t lt = (ha < hb) ? 1u : 0u;
  return (lt == ((ha + hb) & 1u)) ? a : b;
}

// One reduce group's verify counters, tallied without atomics by
// VerifyCandidate and published once at the group boundary.
struct VerifyTally {
  uint64_t distinct_candidates = 0;
  uint64_t verify_work_units = 0;
};

// What one emit site did with the pairs it generated: how many it emitted
// into the dedup shuffle and how many the histogram filter dropped. The
// rest of the generated pairs were dropped by the length filter.
struct EmitCounts {
  uint64_t emitted = 0;
  uint64_t histogram_filtered = 0;
};

// Thread-safe counters shared by the pipeline lambdas. Emit sites add
// once per token group or expansion, verify groups once per group.
struct Counters {
  std::atomic<uint64_t> shared_token_candidates{0};
  std::atomic<uint64_t> similar_token_candidates{0};
  std::atomic<uint64_t> distinct_candidates{0};
  std::atomic<uint64_t> length_filtered{0};
  std::atomic<uint64_t> histogram_filtered{0};
  std::atomic<uint64_t> verify_work_units{0};

  // Counts `generated` pre-dedup pairs of one emit site and what the
  // filters did with them.
  void AddEmitted(std::atomic<uint64_t>* source, uint64_t generated,
                  const EmitCounts& counts) {
    source->fetch_add(generated, std::memory_order_relaxed);
    const uint64_t length_pruned =
        generated - counts.emitted - counts.histogram_filtered;
    if (length_pruned != 0) {
      length_filtered.fetch_add(length_pruned, std::memory_order_relaxed);
    }
    if (counts.histogram_filtered != 0) {
      histogram_filtered.fetch_add(counts.histogram_filtered,
                                   std::memory_order_relaxed);
    }
  }

  void Publish(const VerifyTally& tally) {
    const auto add = [](std::atomic<uint64_t>& counter, uint64_t value) {
      if (value != 0) counter.fetch_add(value, std::memory_order_relaxed);
    };
    add(distinct_candidates, tally.distinct_candidates);
    add(verify_work_units, tally.verify_work_units);
  }
};

// A string as the emit sites see it: its aggregate length, its id and its
// sorted token-length histogram, read once from the Corpus columns so the
// pair loops touch no column per pair.
struct Member {
  uint32_t length = 0;
  uint32_t id = 0;
  std::span<const uint32_t> histogram;
};

inline Member MemberOf(const Corpus& corpus, uint32_t s) {
  return Member{corpus.aggregate_length(s), s, corpus.length_histogram(s)};
}

// The Lemma 6 length filter (Sec. III-E.1) as a pair predicate: false when
// the aggregate lengths alone prove NSLD > t.
inline bool LengthCompatible(size_t la, size_t lb, double t) {
  return NsldLowerBoundFromAggregateLengths(la, lb) <= t;
}

// Why a pair was pruned at its emit site, if it was.
enum class Prune { kNone, kLength, kHistogram };

// The two lossless filters of Sec. III-E, applied where candidates are
// emitted: the Lemma 6 length bound, then the token-length histogram bound
// (which dominates it but costs a walk over both histograms). Every emit
// site calls Check, so pruned pairs never enter the dedup shuffle and
// VerifyCandidate filters nothing.
struct PairFilter {
  double t = 0.0;
  bool length = true;     // TsjOptions::enable_length_filter
  bool histogram = true;  // TsjOptions::enable_histogram_filter

  Prune Check(const Member& a, const Member& b) const {
    if (length && !LengthCompatible(a.length, b.length, t)) {
      return Prune::kLength;
    }
    if (histogram && NsldLowerBoundFromHistograms(a.histogram, b.histogram,
                                                  a.length, b.length) > t) {
      return Prune::kHistogram;
    }
    return Prune::kNone;
  }
};

// Verifies one distinct candidate pair that passed the emit-time filters,
// with `a` resolved against `corpus_a` and `b` against `corpus_b` (the same
// corpus twice for self-joins); appends to `out` when the pair joins.
void VerifyCandidate(const Corpus& corpus_a, const Corpus& corpus_b,
                     const TsjOptions& options, VerifyTally* tally,
                     uint32_t a, uint32_t b, std::vector<TsjPair>* out) {
  const double t = options.threshold;
  const size_t la = corpus_a.aggregate_length(a);
  const size_t lb = corpus_b.aggregate_length(b);
  // Final verification (Sec. III-F) through the budget-aware SLD engine —
  // the NSLD threshold converts to an integer SLD budget (tokenized/sld.h),
  // and the bounded path only ever skips work, never changes the decision
  // or the reported NSLD.
  thread_local SldVerifyScratch scratch;
  if (options.enable_budgeted_verify) {
    const int64_t budget = SldBudgetFromThreshold(t, la, lb);
    BoundedSldResult verdict;
    if (options.enable_token_id_verify && &corpus_a == &corpus_b) {
      // Token-id verification: both sides live in one interned id space,
      // so the engine reads token texts in place — no materialization.
      verdict = BoundedSld(corpus_a, corpus_a.tokens(a), corpus_b.tokens(b),
                           budget, options.aligning, &scratch);
    } else {
      corpus_a.MaterializeInto(a, &scratch.x);
      corpus_b.MaterializeInto(b, &scratch.y);
      verdict =
          BoundedSld(scratch.x, scratch.y, budget, options.aligning, &scratch);
    }
    AddWorkUnits(verdict.work_units);
    tally->verify_work_units += verdict.work_units;
    if (verdict.within_budget) {
      out->push_back(TsjPair{a, b, NsldFromSld(verdict.sld, la, lb)});
    }
    return;
  }
  corpus_a.MaterializeInto(a, &scratch.x);
  corpus_b.MaterializeInto(b, &scratch.y);
  const uint64_t work = SldWorkUnits(la, lb, scratch.x.size(),
                                     scratch.y.size(), options.aligning);
  AddWorkUnits(work);
  tally->verify_work_units += work;
  const int64_t sld = Sld(scratch.x, scratch.y, options.aligning);
  const double nsld = NsldFromSld(sld, la, lb);
  if (nsld <= t) {
    out->push_back(TsjPair{a, b, nsld});
  }
}

// A group's strings sorted ascending by (aggregate length, id): the window
// the emit sites walk so that the length filter ends each row at its first
// rejected pair.
using LengthWindow = std::vector<Member>;

void SortWindow(LengthWindow* window) {
  std::sort(window->begin(), window->end(),
            [](const Member& x, const Member& y) {
              return x.length != y.length ? x.length < y.length : x.id < y.id;
            });
}

// Calls emit(a, b), a < b, for every unordered pair of the ascending
// `window` that passes `filter`. For la <= lb the length bound 1 - la/lb
// only grows with lb, and IEEE division is monotone, so breaking at a
// row's first length-rejected pair is exact: emission costs O(f +
// length-compatible pairs), not O(f^2).
template <typename Emit>
EmitCounts EmitFilteredPairs(const LengthWindow& window,
                             const PairFilter& filter, const Emit& emit) {
  EmitCounts counts;
  for (size_t i = 0; i < window.size(); ++i) {
    const Member& mi = window[i];
    for (size_t j = i + 1; j < window.size(); ++j) {
      const Member& mj = window[j];
      const Prune prune = filter.Check(mi, mj);
      if (prune == Prune::kLength) break;
      if (prune == Prune::kHistogram) {
        ++counts.histogram_filtered;
        continue;
      }
      emit(std::min(mi.id, mj.id), std::max(mi.id, mj.id));
      ++counts.emitted;
    }
  }
  return counts;
}

// The R x P form: calls emit(r, p) for every pair of the ascending windows
// `rs` and `ps` that passes `filter`. The p that pass the length filter for
// one r form a contiguous run of `ps`, and both ends of that run only move
// right as r grows, so the scan skips what is too short for every later r
// and breaks past what is too long.
template <typename Emit>
EmitCounts EmitFilteredCross(const LengthWindow& rs, const LengthWindow& ps,
                             const PairFilter& filter, const Emit& emit) {
  EmitCounts counts;
  size_t lo = 0;
  for (const Member& r : rs) {
    while (filter.length && lo < ps.size() && ps[lo].length < r.length &&
           !LengthCompatible(r.length, ps[lo].length, filter.t)) {
      ++lo;
    }
    for (size_t j = lo; j < ps.size(); ++j) {
      const Prune prune = filter.Check(r, ps[j]);
      if (prune == Prune::kLength) break;
      if (prune == Prune::kHistogram) {
        ++counts.histogram_filtered;
        continue;
      }
      emit(r.id, ps[j].id);
      ++counts.emitted;
    }
  }
  return counts;
}

// Distinct surviving tokens of every string of one corpus, mapped through
// `to_id` (a corpus-local to joint id map; identity when empty), as CSR:
// string s owns ids[offsets[s] .. offsets[s + 1]), sorted ascending. Built
// once per join; the postings and the shared-token map read spans of it.
struct DistinctTokens {
  std::vector<uint32_t> offsets{0};
  std::vector<uint32_t> ids;

  std::span<const uint32_t> of(uint32_t s) const {
    return {ids.data() + offsets[s], offsets[s + 1] - offsets[s]};
  }
};

DistinctTokens BuildDistinctTokens(const Corpus& corpus,
                                   const std::vector<uint32_t>& to_id,
                                   const std::vector<char>& surviving) {
  DistinctTokens out;
  out.offsets.reserve(corpus.size() + 1);
  for (uint32_t s = 0; s < corpus.size(); ++s) {
    const size_t begin = out.ids.size();
    for (TokenId token : corpus.tokens(s)) {
      const uint32_t id = to_id.empty() ? token : to_id[token];
      if (surviving[id]) out.ids.push_back(id);
    }
    std::sort(out.ids.begin() + begin, out.ids.end());
    out.ids.erase(std::unique(out.ids.begin() + begin, out.ids.end()),
                  out.ids.end());
    out.offsets.push_back(static_cast<uint32_t>(out.ids.size()));
  }
  return out;
}

// Sorts a reduce group's value run in place, dedups it, and returns the
// distinct prefix — the sorted-run grouping's dedup is this scan (the
// paper uses a hash set; sorting gives identical semantics and
// deterministic verification order).
std::span<uint32_t> DedupRun(std::span<uint32_t> others) {
  std::sort(others.begin(), others.end());
  const size_t distinct = static_cast<size_t>(
      std::unique(others.begin(), others.end()) - others.begin());
  return others.first(distinct);
}

}  // namespace

StatusOr<std::vector<TsjPair>> TokenizedStringJoiner::SelfJoin(
    const Corpus& corpus, TsjRunInfo* info) const {
  if (Status s = options_.Validate(); !s.ok()) return s;
  TsjRunInfo local_info;
  Counters counters;
  const double t = options_.threshold;
  // One gauge threads through every job of the run (and the candidate
  // vectors between jobs), so TsjRunInfo reports the pipeline-wide peak of
  // shuffle-resident records.
  ShuffleGauge gauge;
  MapReduceOptions mr_options = options_.mapreduce;
  mr_options.shuffle_gauge = &gauge;
  // Spill gating: the engine-level budget applies only when the
  // join-level switch is on (the CC_SHUFFLE_SPILL_BUDGET test override
  // is engine-level and bypasses this gate by design).
  if (!options_.enable_shuffle_spill) mr_options.memory_budget_records = 0;
  // Checkpoint gating mirrors spill gating. When armed and the caller
  // supplied no fingerprint, derive one from the corpus statistics and
  // the join parameters, so a restart restores checkpoints only when
  // they were written for this exact input and configuration.
  if (!options_.enable_checkpointing) {
    mr_options.checkpoint_dir.clear();
  } else if (mr_options.checkpoint_fingerprint == 0) {
    uint64_t fp = MixCheckpointFingerprint(0, corpus.size());
    fp = MixCheckpointFingerprint(fp, corpus.num_distinct_tokens());
    size_t total_token_occurrences = 0;
    for (uint32_t s = 0; s < corpus.size(); ++s) {
      total_token_occurrences += corpus.tokens(s).size();
    }
    fp = MixCheckpointFingerprint(fp, total_token_occurrences);
    fp = MixCheckpointFingerprint(fp, static_cast<uint64_t>(t * 1e9));
    fp = MixCheckpointFingerprint(fp, options_.max_token_frequency);
    mr_options.checkpoint_fingerprint = fp;
  }

  // ---- Token statistics: frequencies and the high-frequency cutoff. ----
  const std::vector<uint32_t> frequency =
      corpus.ComputeTokenStringFrequencies();
  std::vector<char> surviving(frequency.size(), 0);
  for (size_t token = 0; token < frequency.size(); ++token) {
    if (frequency[token] <= options_.max_token_frequency) {
      surviving[token] = 1;
    } else {
      ++local_info.dropped_tokens;
    }
  }

  // ---- Skew-adaptive partition planning. --------------------------------
  // The surviving-token frequency profile is exactly the per-key load
  // profile of the shared-token reduce (f records in, f*(f-1)/2 candidate
  // emissions out per token), so the partition count comes from the
  // cluster model's skew estimate instead of the fixed knob; every job of
  // the run (massjoin included) uses the planned count.
  if (options_.adaptive_partitions) {
    KeyLoadProfile profile;
    for (size_t token = 0; token < frequency.size(); ++token) {
      if (surviving[token]) profile.AddQuadraticKey(frequency[token]);
    }
    mr_options.num_partitions = AdaptivePartitionCount(
        mr_options.effective_workers(), profile, mr_options.num_partitions);
  }
  local_info.shuffle_partitions = mr_options.num_partitions;

  std::vector<uint32_t> string_ids(corpus.size());
  for (uint32_t i = 0; i < corpus.size(); ++i) string_ids[i] = i;

  // Distinct surviving tokens of each string, computed once: the
  // shared-token map and the postings both read them.
  const DistinctTokens distinct_tokens =
      BuildDistinctTokens(corpus, /*to_id=*/{}, surviving);

  // ---- Similar-token candidate generation (Sec. III-D). ----------------
  // Runs before the main job so its token pairs can feed the fused
  // pipeline as side inputs; its JobStats are spliced into the pipeline in
  // the documented order (shared-token, massjoin, dedup-verify) below.
  // Token postings (token -> strings containing it) expand similar token
  // pairs back into string pairs.
  std::vector<std::vector<uint32_t>> postings;
  std::vector<RawCandidate> token_pair_candidates;
  PipelineStats mass_stats;
  if (options_.matching == TokenMatching::kFuzzy) {
    // MassJoin NLD-join over the surviving token space. Distinct tokens
    // only: identical tokens are already covered by the shared-token pass.
    std::vector<std::string> token_texts;
    std::vector<TokenId> token_of_index;
    for (TokenId token = 0; token < surviving.size(); ++token) {
      if (surviving[token]) {
        token_texts.push_back(corpus.token_text(token));
        token_of_index.push_back(token);
      }
    }
    MassJoinOptions mass_options;
    mass_options.mapreduce = mr_options;
    mass_options.enable_shuffle_spill = options_.enable_shuffle_spill;
    mass_options.enable_checkpointing = options_.enable_checkpointing;
    const std::vector<NldPair> token_pairs =
        MassJoinSelfNld(token_texts, t, mass_options, &mass_stats);
    local_info.similar_token_pairs = token_pairs.size();

    postings.resize(corpus.num_distinct_tokens());
    for (uint32_t s = 0; s < corpus.size(); ++s) {
      for (TokenId token : distinct_tokens.of(s)) postings[token].push_back(s);
    }
    token_pair_candidates.reserve(token_pairs.size());
    for (const NldPair& pair : token_pairs) {
      token_pair_candidates.push_back(RawCandidate{token_of_index[pair.a],
                                                   token_of_index[pair.b],
                                                   /*is_token_pair=*/true});
    }
  }

  // Empty tokenized strings have no tokens and thus no signatures, yet any
  // two of them are identical (NSLD = 0): they are unconditional results,
  // emitted directly instead of pushing O(e^2) candidates through the
  // dedup/verify pipeline. No other pipeline path can rediscover them
  // (token-free strings never reach a posting), so no dedup is needed.
  std::vector<TsjPair> results;
  {
    std::vector<uint32_t> empties;
    for (uint32_t s = 0; s < corpus.size(); ++s) {
      if (corpus.tokens(s).empty()) empties.push_back(s);
    }
    for (size_t i = 0; i < empties.size(); ++i) {
      for (size_t j = i + 1; j < empties.size(); ++j) {
        results.push_back(TsjPair{empties[i], empties[j], 0.0});
      }
    }
  }

  const PairFilter filter{t, options_.enable_length_filter,
                          options_.enable_histogram_filter};

  // Shared-token map side (Sec. III-C): one (token, string) record per
  // distinct surviving token of the string.
  auto for_each_token = [&distinct_tokens](uint32_t s, const auto& fn) {
    const std::span<const uint32_t> tokens = distinct_tokens.of(s);
    AddWorkUnits(1 + tokens.size());
    for (uint32_t token : tokens) fn(token);
  };

  // Streams every filtered pair of one token group's strings (Sec.
  // III-C's reduce) to emit(a, b), a < b.
  auto emit_token_group = [&corpus, &counters, &filter](
                              std::span<const uint32_t> strings,
                              const auto& emit) {
    thread_local LengthWindow window;
    window.clear();
    for (uint32_t s : strings) window.push_back(MemberOf(corpus, s));
    SortWindow(&window);
    const EmitCounts counts = EmitFilteredPairs(window, filter, emit);
    AddWorkUnits(strings.size() + counts.emitted + counts.histogram_filtered);
    counters.AddEmitted(&counters.shared_token_candidates,
                        static_cast<uint64_t>(strings.size()) *
                            (strings.size() - 1) / 2,
                        counts);
  };

  // Expands one similar-token pair into the filtered string-pair
  // candidates of the postings (the dedup/verify stage's map side).
  auto expand_token_pair = [&corpus, &postings, &counters, &filter](
                               const RawCandidate& cand, const auto& emit) {
    AddWorkUnits(1 + postings[cand.a].size() * postings[cand.b].size());
    uint64_t generated = 0;
    EmitCounts counts;
    for (uint32_t s1 : postings[cand.a]) {
      const Member m1 = MemberOf(corpus, s1);
      for (uint32_t s2 : postings[cand.b]) {
        if (s1 == s2) continue;
        ++generated;
        const Prune prune = filter.Check(m1, MemberOf(corpus, s2));
        if (prune == Prune::kHistogram) ++counts.histogram_filtered;
        if (prune != Prune::kNone) continue;
        emit(std::min(s1, s2), std::max(s1, s2));
        ++counts.emitted;
      }
    }
    counters.AddEmitted(&counters.similar_token_candidates, generated,
                        counts);
  };

  const Corpus& corpus_ref = corpus;
  const TsjOptions& options_ref = options_;

  // One grouping-on-one-string dedup+verify body for both engine modes
  // (the legacy reducer adapts its vector to a span): keeping a single
  // copy is what makes the legacy path a trustworthy differential
  // reference for the streaming one.
  auto verify_one_string_group = [&corpus_ref, &options_ref, &counters](
                                     const uint32_t& key,
                                     std::span<uint32_t> others,
                                     std::vector<TsjPair>* out) {
    AddWorkUnits(others.size());
    const std::span<uint32_t> distinct = DedupRun(others);
    VerifyTally tally;
    tally.distinct_candidates = distinct.size();
    for (uint32_t other : distinct) {
      VerifyCandidate(corpus_ref, corpus_ref, options_ref, &tally,
                      std::min(key, other), std::max(key, other), out);
    }
    counters.Publish(tally);  // reduce-group boundary
  };
  // Likewise for grouping-on-both-strings: one distinct pair per group.
  auto verify_pair_group = [&corpus_ref, &options_ref, &counters](
                               const std::pair<uint32_t, uint32_t>& key,
                               size_t duplicates, std::vector<TsjPair>* out) {
    AddWorkUnits(duplicates);  // duplicate copies read and discarded
    VerifyTally tally;
    tally.distinct_candidates = 1;
    VerifyCandidate(corpus_ref, corpus_ref, options_ref, &tally, key.first,
                    key.second, out);
    counters.Publish(tally);  // reduce-group boundary
  };

  if (options_.enable_streaming_shuffle) {
    // ---- Fused streaming pipeline: candidate generation streams into the
    // dedup/verify shuffle; the pre-dedup candidate universe is never
    // materialized, and the shuffle holds only pairs that pass both
    // filters (every emit site applies PairFilter). The similar-token
    // pairs ride along as side inputs.
    auto map_tokens = [&](const uint32_t& s,
                          PartitionedEmitter<uint32_t, uint32_t>* out) {
      for_each_token(s, [&](uint32_t token) { out->Emit(token, s); });
    };
    JobStats stage1_stats, stage2_stats;
    gauge.Add(token_pair_candidates.size());  // side-input vector
    std::vector<TsjPair> streamed;
    if (options_.dedup == DedupStrategy::kGroupOnBothStrings) {
      using PairKey = std::pair<uint32_t, uint32_t>;
      auto reduce_shared = [&](const uint32_t& /*token*/,
                               std::span<uint32_t> strings,
                               PartitionedEmitter<PairKey, char>* out) {
        emit_token_group(strings, [&](uint32_t a, uint32_t b) {
          out->Emit(PairKey{a, b}, 0);
        });
      };
      auto map_expand = [&](const RawCandidate& cand,
                            PartitionedEmitter<PairKey, char>* out) {
        expand_token_pair(cand, [&](uint32_t a, uint32_t b) {
          out->Emit(PairKey{a, b}, 0);
        });
      };
      auto reduce_verify = [&verify_pair_group](const PairKey& key,
                                                std::span<char> values,
                                                std::vector<TsjPair>* out) {
        verify_pair_group(key, values.size(), out);
      };
      // Shuffle combiner: duplicate copies of one pair collapse inside
      // the producing task (the reducer treats the run length only as a
      // duplicate tally).
      const CombinerFn<PairKey, char> combine_duplicates =
          options_.enable_shuffle_combiner ? KeepFirstCombiner<PairKey, char>()
                                           : nullptr;
      streamed = RunFusedMapReduceSorted<uint32_t, uint32_t, uint32_t,
                                         RawCandidate, PairKey, char,
                                         TsjPair>(
          "tsj-shared-token", "tsj-dedup-verify-both", string_ids, map_tokens,
          reduce_shared, token_pair_candidates, map_expand, reduce_verify,
          mr_options, &stage1_stats, &stage2_stats,
          /*combiner1=*/nullptr, combine_duplicates);
    } else {
      auto emit_keyed = [](uint32_t a, uint32_t b,
                           PartitionedEmitter<uint32_t, uint32_t>* out) {
        const uint32_t key = PickGroupKey(a, b);
        out->Emit(key, key == a ? b : a);
      };
      auto reduce_shared = [&](const uint32_t& /*token*/,
                               std::span<uint32_t> strings,
                               PartitionedEmitter<uint32_t, uint32_t>* out) {
        emit_token_group(strings, [&](uint32_t a, uint32_t b) {
          emit_keyed(a, b, out);
        });
      };
      auto map_expand = [&](const RawCandidate& cand,
                            PartitionedEmitter<uint32_t, uint32_t>* out) {
        expand_token_pair(
            cand, [&](uint32_t a, uint32_t b) { emit_keyed(a, b, out); });
      };
      auto reduce_verify = [&verify_one_string_group](
                               const uint32_t& key, std::span<uint32_t> others,
                               std::vector<TsjPair>* out) {
        verify_one_string_group(key, others, out);
      };
      // Shuffle combiner: one string's candidate list dedups inside the
      // producing task (sort + unique, the same scan DedupRun finishes
      // across producers at the reducer).
      const CombinerFn<uint32_t, uint32_t> combine_duplicates =
          options_.enable_shuffle_combiner
              ? SortUniqueCombiner<uint32_t, uint32_t>()
              : nullptr;
      streamed = RunFusedMapReduceSorted<uint32_t, uint32_t, uint32_t,
                                         RawCandidate, uint32_t, uint32_t,
                                         TsjPair>(
          "tsj-shared-token", "tsj-dedup-verify-one", string_ids, map_tokens,
          reduce_shared, token_pair_candidates, map_expand, reduce_verify,
          mr_options, &stage1_stats, &stage2_stats,
          /*combiner1=*/nullptr, combine_duplicates);
    }
    gauge.Sub(token_pair_candidates.size());
    results.insert(results.end(), streamed.begin(), streamed.end());
    local_info.pipeline.Add(std::move(stage1_stats));
    local_info.pipeline.Append(std::move(mass_stats));
    local_info.pipeline.Add(std::move(stage2_stats));
  } else {
    // ---- Legacy two-job pipeline (the differential reference). ----------
    // Job 1 materializes the filtered pre-dedup candidates; Job 2
    // expands, scatters, groups per key, and verifies. Both jobs emit
    // through the streaming path's emit helpers, so the candidate
    // counters match it exactly.
    auto map_tokens = [&](const uint32_t& s,
                          Emitter<uint32_t, uint32_t>* out) {
      for_each_token(s, [&](uint32_t token) { out->Emit(token, s); });
    };
    auto reduce_shared = [&emit_token_group](const uint32_t& /*token*/,
                                             std::vector<uint32_t>* strings,
                                             std::vector<RawCandidate>* out) {
      emit_token_group(*strings, [&](uint32_t a, uint32_t b) {
        out->push_back(RawCandidate{a, b, /*is_token_pair=*/false});
      });
    };
    JobStats shared_stats;
    std::vector<RawCandidate> candidates =
        RunMapReduce<uint32_t, uint32_t, uint32_t, RawCandidate>(
            "tsj-shared-token", string_ids, map_tokens, reduce_shared,
            mr_options, &shared_stats);
    local_info.pipeline.Add(std::move(shared_stats));
    local_info.pipeline.Append(std::move(mass_stats));
    candidates.insert(candidates.end(), token_pair_candidates.begin(),
                      token_pair_candidates.end());

    // ---- Job 2: expand + dedup + verify. --------------------------------
    auto expand = [&expand_token_pair](
                      const RawCandidate& cand,
                      const std::function<void(uint32_t, uint32_t)>& emit) {
      if (!cand.is_token_pair) {
        AddWorkUnits(1);
        emit(cand.a, cand.b);
        return;
      }
      expand_token_pair(cand, emit);
    };

    std::vector<TsjPair> verified;
    JobStats verify_stats;
    // The intermediate candidate vector is pipeline-resident while Job 2's
    // map re-emits every record: the co-residency the fused mode removes.
    gauge.Add(candidates.size());
    if (options_.dedup == DedupStrategy::kGroupOnBothStrings) {
      using PairKey = std::pair<uint32_t, uint32_t>;
      auto map_fn = [&expand](const RawCandidate& cand,
                              Emitter<PairKey, char>* out) {
        expand(cand,
               [&](uint32_t a, uint32_t b) { out->Emit(PairKey{a, b}, 0); });
      };
      auto reduce_fn = [&verify_pair_group](const PairKey& key,
                                            std::vector<char>* values,
                                            std::vector<TsjPair>* out) {
        verify_pair_group(key, values->size(), out);
      };
      verified = RunMapReduce<RawCandidate, PairKey, char, TsjPair>(
          "tsj-dedup-verify-both", candidates, map_fn, reduce_fn, mr_options,
          &verify_stats);
    } else {
      auto map_fn = [&expand](const RawCandidate& cand,
                              Emitter<uint32_t, uint32_t>* out) {
        expand(cand, [&](uint32_t a, uint32_t b) {
          const uint32_t key = PickGroupKey(a, b);
          out->Emit(key, key == a ? b : a);
        });
      };
      auto reduce_fn = [&verify_one_string_group](
                           const uint32_t& key, std::vector<uint32_t>* others,
                           std::vector<TsjPair>* out) {
        verify_one_string_group(key, std::span<uint32_t>(*others), out);
      };
      verified = RunMapReduce<RawCandidate, uint32_t, uint32_t, TsjPair>(
          "tsj-dedup-verify-one", candidates, map_fn, reduce_fn, mr_options,
          &verify_stats);
    }
    gauge.Sub(candidates.size());
    results.insert(results.end(), verified.begin(), verified.end());
    local_info.pipeline.Add(std::move(verify_stats));
  }

  local_info.shared_token_candidates = counters.shared_token_candidates;
  local_info.similar_token_candidates = counters.similar_token_candidates;
  local_info.distinct_candidates = counters.distinct_candidates;
  local_info.length_filtered = counters.length_filtered;
  local_info.histogram_filtered = counters.histogram_filtered;
  local_info.verified_candidates = counters.distinct_candidates;
  local_info.verify_work_units = counters.verify_work_units;
  local_info.combiner_input_records =
      local_info.pipeline.total_combiner_input_records();
  local_info.combiner_output_records =
      local_info.pipeline.total_combiner_output_records();
  local_info.spilled_records = local_info.pipeline.total_spilled_records();
  local_info.spill_files = local_info.pipeline.total_spill_files();
  local_info.spill_bytes = local_info.pipeline.total_spill_bytes();
  local_info.spill_raw_bytes =
      local_info.pipeline.total_spill_raw_bytes();
  local_info.merge_passes = local_info.pipeline.total_merge_passes();
  local_info.checksum_failures =
      local_info.pipeline.total_checksum_failures();
  local_info.prefetch_hits = local_info.pipeline.total_prefetch_hits();
  local_info.peak_resident_records =
      local_info.pipeline.max_peak_resident_records();
  local_info.task_failures = local_info.pipeline.total_task_failures();
  local_info.task_retries = local_info.pipeline.total_task_retries();
  local_info.tasks_cancelled =
      local_info.pipeline.total_tasks_cancelled();
  local_info.tasks_degraded = local_info.pipeline.total_tasks_degraded();
  local_info.tasks_checkpointed =
      local_info.pipeline.total_tasks_checkpointed();
  local_info.tasks_skipped_by_checkpoint =
      local_info.pipeline.total_tasks_skipped_by_checkpoint();
  local_info.hedges_launched = local_info.pipeline.total_hedges_launched();
  local_info.hedges_won = local_info.pipeline.total_hedges_won();
  local_info.result_pairs = results.size();
  local_info.peak_shuffle_records = gauge.peak();
  // Lossy spill faults (failed run reads: a partition's merge aborted,
  // records may be missing) become the join's error. Degraded write
  // faults are deliberately NOT an error — their records stayed in
  // memory and the result is complete; they remain visible through the
  // per-job JobStats::spill_status entries in the pipeline.
  if (Status s = local_info.pipeline.first_spill_data_loss(); !s.ok()) {
    if (info != nullptr) *info = std::move(local_info);
    return s;
  }
  // A fatal task error aborted a job (outputs incomplete): fail the join
  // with the root cause. Retryable faults a retry absorbed are not
  // errors — they are visible through the task counters only.
  if (Status s = local_info.pipeline.first_task_error(); !s.ok()) {
    if (info != nullptr) *info = std::move(local_info);
    return s;
  }
  if (info != nullptr) *info = std::move(local_info);
  return results;
}

namespace {

// A string id tagged with the collection it belongs to, packed for use as
// a MapReduce key in the R x P join.
inline uint64_t TagId(bool is_p_side, uint32_t id) {
  return (static_cast<uint64_t>(is_p_side) << 32) | id;
}
inline bool TagIsP(uint64_t tagged) { return (tagged >> 32) != 0; }
inline uint32_t TagStringId(uint64_t tagged) {
  return static_cast<uint32_t>(tagged);
}

// Hash-balanced key choice for grouping-on-one-string over the tagged id
// space: either the R or the P string becomes the reduce key.
inline bool KeyIsR(uint64_t tag_r, uint64_t tag_p) {
  const uint64_t hr = Mix64(tag_r);
  const uint64_t hp = Mix64(tag_p);
  const uint64_t lt = (hr < hp) ? 1u : 0u;
  return lt == ((hr + hp) & 1u);
}

}  // namespace

StatusOr<std::vector<TsjPair>> TokenizedStringJoiner::Join(
    const Corpus& r_corpus, const Corpus& p_corpus, TsjRunInfo* info) const {
  if (Status s = options_.Validate(); !s.ok()) return s;
  TsjRunInfo local_info;
  Counters counters;
  const double t = options_.threshold;
  ShuffleGauge gauge;
  MapReduceOptions mr_options = options_.mapreduce;
  mr_options.shuffle_gauge = &gauge;
  // Spill gating, as in SelfJoin.
  if (!options_.enable_shuffle_spill) mr_options.memory_budget_records = 0;
  // Checkpoint gating, as in SelfJoin, with both corpora folded into the
  // derived fingerprint.
  if (!options_.enable_checkpointing) {
    mr_options.checkpoint_dir.clear();
  } else if (mr_options.checkpoint_fingerprint == 0) {
    uint64_t fp = MixCheckpointFingerprint(0, r_corpus.size());
    fp = MixCheckpointFingerprint(fp, r_corpus.num_distinct_tokens());
    fp = MixCheckpointFingerprint(fp, p_corpus.size());
    fp = MixCheckpointFingerprint(fp, p_corpus.num_distinct_tokens());
    size_t total_token_occurrences = 0;
    for (uint32_t s = 0; s < r_corpus.size(); ++s) {
      total_token_occurrences += r_corpus.tokens(s).size();
    }
    for (uint32_t s = 0; s < p_corpus.size(); ++s) {
      total_token_occurrences += p_corpus.tokens(s).size();
    }
    fp = MixCheckpointFingerprint(fp, total_token_occurrences);
    fp = MixCheckpointFingerprint(fp, static_cast<uint64_t>(t * 1e9));
    fp = MixCheckpointFingerprint(fp, options_.max_token_frequency);
    mr_options.checkpoint_fingerprint = fp;
  }

  // ---- Joint token space. ------------------------------------------------
  // Tokens are interned per corpus; the join needs one id space covering
  // both, with document frequency summed across collections (M bounds a
  // token's total string count, matching the reduce-group size it causes).
  // Keys are string_views into the corpora's interned token texts (both
  // corpora outlive the join), so building the joint space copies no token
  // text; the map is pre-sized for the no-overlap worst case.
  std::unordered_map<std::string_view, uint32_t> joint_ids;
  joint_ids.reserve(r_corpus.num_distinct_tokens() +
                    p_corpus.num_distinct_tokens());
  std::vector<std::string_view> joint_texts;
  joint_texts.reserve(r_corpus.num_distinct_tokens() +
                      p_corpus.num_distinct_tokens());
  auto joint_of = [&](const std::string& text) {
    const auto [it, inserted] = joint_ids.emplace(
        std::string_view(text), static_cast<uint32_t>(joint_texts.size()));
    if (inserted) joint_texts.push_back(it->first);
    return it->second;
  };
  std::vector<uint32_t> r_joint(r_corpus.num_distinct_tokens());
  for (TokenId token = 0; token < r_corpus.num_distinct_tokens(); ++token) {
    r_joint[token] = joint_of(r_corpus.token_text(token));
  }
  std::vector<uint32_t> p_joint(p_corpus.num_distinct_tokens());
  for (TokenId token = 0; token < p_corpus.num_distinct_tokens(); ++token) {
    p_joint[token] = joint_of(p_corpus.token_text(token));
  }
  std::vector<uint32_t> joint_freq(joint_texts.size(), 0);
  {
    const auto r_freq = r_corpus.ComputeTokenStringFrequencies();
    for (TokenId token = 0; token < r_freq.size(); ++token) {
      joint_freq[r_joint[token]] += r_freq[token];
    }
    const auto p_freq = p_corpus.ComputeTokenStringFrequencies();
    for (TokenId token = 0; token < p_freq.size(); ++token) {
      joint_freq[p_joint[token]] += p_freq[token];
    }
  }
  std::vector<char> surviving(joint_texts.size(), 0);
  for (size_t j = 0; j < joint_texts.size(); ++j) {
    if (joint_freq[j] <= options_.max_token_frequency) {
      surviving[j] = 1;
    } else {
      ++local_info.dropped_tokens;
    }
  }

  // ---- Skew-adaptive partition planning (joint-token profile; the R x P
  // reduce group of a token with joint frequency f carries at most
  // (f/2)^2 cross pairs, the f*(f-1)/2 bound stays the consistent
  // upper-bound proxy used by SelfJoin). ------------------------------
  if (options_.adaptive_partitions) {
    KeyLoadProfile profile;
    for (size_t j = 0; j < joint_texts.size(); ++j) {
      if (surviving[j]) profile.AddQuadraticKey(joint_freq[j]);
    }
    mr_options.num_partitions = AdaptivePartitionCount(
        mr_options.effective_workers(), profile, mr_options.num_partitions);
  }
  local_info.shuffle_partitions = mr_options.num_partitions;

  // Distinct surviving joint tokens of each string, computed once per
  // side: the shared-token map and the postings both read them.
  const DistinctTokens r_tokens =
      BuildDistinctTokens(r_corpus, r_joint, surviving);
  const DistinctTokens p_tokens =
      BuildDistinctTokens(p_corpus, p_joint, surviving);

  // ---- Similar-token candidates (Sec. III-D, two-collection form). ------
  std::vector<std::vector<uint32_t>> r_postings;
  std::vector<std::vector<uint32_t>> p_postings;
  std::vector<RawCandidate> token_pair_candidates;
  PipelineStats mass_stats;
  if (options_.matching == TokenMatching::kFuzzy) {
    std::vector<std::string> survivor_texts;
    std::vector<uint32_t> survivor_joint;
    for (uint32_t j = 0; j < joint_texts.size(); ++j) {
      if (surviving[j]) {
        survivor_texts.emplace_back(joint_texts[j]);
        survivor_joint.push_back(j);
      }
    }
    MassJoinOptions mass_options;
    mass_options.mapreduce = mr_options;
    mass_options.enable_shuffle_spill = options_.enable_shuffle_spill;
    mass_options.enable_checkpointing = options_.enable_checkpointing;
    const std::vector<NldPair> token_pairs =
        MassJoinSelfNld(survivor_texts, t, mass_options, &mass_stats);
    local_info.similar_token_pairs = token_pairs.size();

    r_postings.resize(joint_texts.size());
    for (uint32_t s = 0; s < r_corpus.size(); ++s) {
      for (uint32_t j : r_tokens.of(s)) r_postings[j].push_back(s);
    }
    p_postings.resize(joint_texts.size());
    for (uint32_t s = 0; s < p_corpus.size(); ++s) {
      for (uint32_t j : p_tokens.of(s)) p_postings[j].push_back(s);
    }
    token_pair_candidates.reserve(token_pairs.size());
    for (const NldPair& pair : token_pairs) {
      token_pair_candidates.push_back(RawCandidate{survivor_joint[pair.a],
                                                   survivor_joint[pair.b],
                                                   /*is_token_pair=*/true});
    }
  }

  // Empty strings on both sides are identical (NSLD = 0) but
  // signature-less: unconditional results, emitted directly (no pipeline
  // path can rediscover a token-free string).
  std::vector<TsjPair> results;
  {
    std::vector<uint32_t> r_empty, p_empty;
    for (uint32_t s = 0; s < r_corpus.size(); ++s) {
      if (r_corpus.tokens(s).empty()) r_empty.push_back(s);
    }
    for (uint32_t s = 0; s < p_corpus.size(); ++s) {
      if (p_corpus.tokens(s).empty()) p_empty.push_back(s);
    }
    for (uint32_t r : r_empty) {
      for (uint32_t p : p_empty) {
        results.push_back(TsjPair{r, p, 0.0});
      }
    }
  }

  // ---- Candidate generation inputs. --------------------------------------
  std::vector<uint64_t> tagged_ids;
  tagged_ids.reserve(r_corpus.size() + p_corpus.size());
  for (uint32_t s = 0; s < r_corpus.size(); ++s) {
    tagged_ids.push_back(TagId(false, s));
  }
  for (uint32_t s = 0; s < p_corpus.size(); ++s) {
    tagged_ids.push_back(TagId(true, s));
  }

  const PairFilter filter{t, options_.enable_length_filter,
                          options_.enable_histogram_filter};

  // Shared-token map side: one (joint token, tagged string) record per
  // distinct surviving joint token of the string.
  auto for_each_token = [&r_tokens, &p_tokens](uint64_t tagged,
                                               const auto& fn) {
    const uint32_t s = TagStringId(tagged);
    const std::span<const uint32_t> tokens =
        TagIsP(tagged) ? p_tokens.of(s) : r_tokens.of(s);
    AddWorkUnits(1 + tokens.size());
    for (uint32_t j : tokens) fn(j);
  };

  // Cross product of the R-side and P-side strings sharing one token (the
  // reduce of Sec. III-C in its two-collection form): streams its filtered
  // pairs to emit(r, p).
  auto for_each_cross = [&r_corpus, &p_corpus, &counters, &filter](
                            std::span<const uint64_t> values,
                            const auto& emit) {
    thread_local LengthWindow rs;
    thread_local LengthWindow ps;
    rs.clear();
    ps.clear();
    for (uint64_t tagged : values) {
      const uint32_t s = TagStringId(tagged);
      if (TagIsP(tagged)) {
        ps.push_back(MemberOf(p_corpus, s));
      } else {
        rs.push_back(MemberOf(r_corpus, s));
      }
    }
    SortWindow(&rs);
    SortWindow(&ps);
    const EmitCounts counts = EmitFilteredCross(rs, ps, filter, emit);
    AddWorkUnits(values.size() + counts.emitted + counts.histogram_filtered);
    counters.AddEmitted(&counters.shared_token_candidates,
                        static_cast<uint64_t>(rs.size()) * ps.size(), counts);
  };

  // A similar token pair (j1, j2) joins R strings containing either token
  // with P strings containing the other; only filtered pairs are emitted.
  auto expand_token_pair = [&](const RawCandidate& cand, const auto& emit) {
    AddWorkUnits(1);
    uint64_t generated = 0;
    EmitCounts counts;
    auto cross = [&](uint32_t jr, uint32_t jp) {
      const uint64_t pairs = r_postings[jr].size() * p_postings[jp].size();
      AddWorkUnits(pairs);
      generated += pairs;
      for (uint32_t r : r_postings[jr]) {
        const Member mr = MemberOf(r_corpus, r);
        for (uint32_t p : p_postings[jp]) {
          const Prune prune = filter.Check(mr, MemberOf(p_corpus, p));
          if (prune == Prune::kHistogram) ++counts.histogram_filtered;
          if (prune != Prune::kNone) continue;
          emit(r, p);
          ++counts.emitted;
        }
      }
    };
    cross(cand.a, cand.b);
    cross(cand.b, cand.a);
    counters.AddEmitted(&counters.similar_token_candidates, generated,
                        counts);
  };

  const Corpus& r_ref = r_corpus;
  const Corpus& p_ref = p_corpus;

  // Shared dedup+verify bodies for both engine modes (see SelfJoin): the
  // legacy reducers adapt their vectors to spans, so the differential
  // reference and the streaming path execute the same verification code.
  auto verify_one_string_group = [&](const uint64_t& key,
                                     std::span<uint32_t> others,
                                     std::vector<TsjPair>* out) {
    AddWorkUnits(others.size());
    const std::span<uint32_t> distinct = DedupRun(others);
    VerifyTally tally;
    tally.distinct_candidates = distinct.size();
    const bool key_is_p = TagIsP(key);
    const uint32_t key_id = TagStringId(key);
    for (uint32_t other : distinct) {
      const uint32_t r = key_is_p ? other : key_id;
      const uint32_t p = key_is_p ? key_id : other;
      VerifyCandidate(r_ref, p_ref, options_, &tally, r, p, out);
    }
    counters.Publish(tally);  // reduce-group boundary
  };
  auto verify_pair_group = [&](const std::pair<uint32_t, uint32_t>& key,
                               size_t duplicates, std::vector<TsjPair>* out) {
    AddWorkUnits(duplicates);
    VerifyTally tally;
    tally.distinct_candidates = 1;
    VerifyCandidate(r_ref, p_ref, options_, &tally, key.first, key.second,
                    out);
    counters.Publish(tally);  // reduce-group boundary
  };

  if (options_.enable_streaming_shuffle) {
    // ---- Fused streaming pipeline (two-collection form; the shuffle
    // holds only filtered pairs, as in SelfJoin). ----------------------
    auto map_tokens = [&](const uint64_t& tagged,
                          PartitionedEmitter<uint32_t, uint64_t>* out) {
      for_each_token(tagged, [&](uint32_t j) { out->Emit(j, tagged); });
    };
    JobStats stage1_stats, stage2_stats;
    gauge.Add(token_pair_candidates.size());  // side-input vector
    std::vector<TsjPair> streamed;
    if (options_.dedup == DedupStrategy::kGroupOnBothStrings) {
      using PairKey = std::pair<uint32_t, uint32_t>;
      auto reduce_shared = [&](const uint32_t& /*token*/,
                               std::span<uint64_t> values,
                               PartitionedEmitter<PairKey, char>* out) {
        for_each_cross(values, [&](uint32_t r, uint32_t p) {
          out->Emit(PairKey{r, p}, 0);
        });
      };
      auto map_expand = [&](const RawCandidate& cand,
                            PartitionedEmitter<PairKey, char>* out) {
        expand_token_pair(cand, [&](uint32_t r, uint32_t p) {
          out->Emit(PairKey{r, p}, 0);
        });
      };
      auto reduce_verify = [&](const PairKey& key, std::span<char> values,
                               std::vector<TsjPair>* out) {
        verify_pair_group(key, values.size(), out);
      };
      const CombinerFn<PairKey, char> combine_duplicates =
          options_.enable_shuffle_combiner ? KeepFirstCombiner<PairKey, char>()
                                           : nullptr;
      streamed = RunFusedMapReduceSorted<uint64_t, uint32_t, uint64_t,
                                         RawCandidate, PairKey, char,
                                         TsjPair>(
          "tsj-rp-shared-token", "tsj-rp-dedup-verify-both", tagged_ids,
          map_tokens, reduce_shared, token_pair_candidates, map_expand,
          reduce_verify, mr_options, &stage1_stats, &stage2_stats,
          /*combiner1=*/nullptr, combine_duplicates);
    } else {
      auto emit_keyed = [](uint32_t r, uint32_t p,
                           PartitionedEmitter<uint64_t, uint32_t>* out) {
        const uint64_t tag_r = TagId(false, r);
        const uint64_t tag_p = TagId(true, p);
        const bool key_is_r = KeyIsR(tag_r, tag_p);
        out->Emit(key_is_r ? tag_r : tag_p, key_is_r ? p : r);
      };
      auto reduce_shared = [&](const uint32_t& /*token*/,
                               std::span<uint64_t> values,
                               PartitionedEmitter<uint64_t, uint32_t>* out) {
        for_each_cross(values, [&](uint32_t r, uint32_t p) {
          emit_keyed(r, p, out);
        });
      };
      auto map_expand = [&](const RawCandidate& cand,
                            PartitionedEmitter<uint64_t, uint32_t>* out) {
        expand_token_pair(
            cand, [&](uint32_t r, uint32_t p) { emit_keyed(r, p, out); });
      };
      auto reduce_verify = [&](const uint64_t& key, std::span<uint32_t> others,
                               std::vector<TsjPair>* out) {
        verify_one_string_group(key, others, out);
      };
      const CombinerFn<uint64_t, uint32_t> combine_duplicates =
          options_.enable_shuffle_combiner
              ? SortUniqueCombiner<uint64_t, uint32_t>()
              : nullptr;
      streamed = RunFusedMapReduceSorted<uint64_t, uint32_t, uint64_t,
                                         RawCandidate, uint64_t, uint32_t,
                                         TsjPair>(
          "tsj-rp-shared-token", "tsj-rp-dedup-verify-one", tagged_ids,
          map_tokens, reduce_shared, token_pair_candidates, map_expand,
          reduce_verify, mr_options, &stage1_stats, &stage2_stats,
          /*combiner1=*/nullptr, combine_duplicates);
    }
    gauge.Sub(token_pair_candidates.size());
    results.insert(results.end(), streamed.begin(), streamed.end());
    local_info.pipeline.Add(std::move(stage1_stats));
    local_info.pipeline.Append(std::move(mass_stats));
    local_info.pipeline.Add(std::move(stage2_stats));
  } else {
    // ---- Legacy two-job pipeline (the differential reference). ----------
    auto map_tokens = [&](const uint64_t& tagged,
                          Emitter<uint32_t, uint64_t>* out) {
      for_each_token(tagged, [&](uint32_t j) { out->Emit(j, tagged); });
    };
    auto reduce_shared = [&for_each_cross](const uint32_t& /*token*/,
                                           std::vector<uint64_t>* values,
                                           std::vector<RawCandidate>* out) {
      for_each_cross(*values, [&](uint32_t r, uint32_t p) {
        out->push_back(RawCandidate{r, p, /*is_token_pair=*/false});
      });
    };
    JobStats shared_stats;
    std::vector<RawCandidate> candidates =
        RunMapReduce<uint64_t, uint32_t, uint64_t, RawCandidate>(
            "tsj-rp-shared-token", tagged_ids, map_tokens, reduce_shared,
            mr_options, &shared_stats);
    local_info.pipeline.Add(std::move(shared_stats));
    local_info.pipeline.Append(std::move(mass_stats));
    candidates.insert(candidates.end(), token_pair_candidates.begin(),
                      token_pair_candidates.end());

    // ---- Job 2: expand + dedup + verify. --------------------------------
    auto expand = [&](const RawCandidate& cand,
                      const std::function<void(uint32_t, uint32_t)>& emit) {
      if (!cand.is_token_pair) {
        AddWorkUnits(1);
        emit(cand.a, cand.b);
        return;
      }
      expand_token_pair(cand, emit);
    };

    std::vector<TsjPair> verified;
    JobStats verify_stats;
    gauge.Add(candidates.size());
    if (options_.dedup == DedupStrategy::kGroupOnBothStrings) {
      using PairKey = std::pair<uint32_t, uint32_t>;
      auto map_fn = [&expand](const RawCandidate& cand,
                              Emitter<PairKey, char>* out) {
        expand(cand,
               [&](uint32_t r, uint32_t p) { out->Emit(PairKey{r, p}, 0); });
      };
      auto reduce_fn = [&](const PairKey& key, std::vector<char>* values,
                           std::vector<TsjPair>* out) {
        verify_pair_group(key, values->size(), out);
      };
      verified = RunMapReduce<RawCandidate, PairKey, char, TsjPair>(
          "tsj-rp-dedup-verify-both", candidates, map_fn, reduce_fn,
          mr_options, &verify_stats);
    } else {
      // grouping-on-one-string over the tagged id space: the hash-balanced
      // rule picks either the R or the P string as the reduce key.
      auto map_fn = [&](const RawCandidate& cand,
                        Emitter<uint64_t, uint32_t>* out) {
        expand(cand, [&](uint32_t r, uint32_t p) {
          const uint64_t tag_r = TagId(false, r);
          const uint64_t tag_p = TagId(true, p);
          const bool key_is_r = KeyIsR(tag_r, tag_p);
          out->Emit(key_is_r ? tag_r : tag_p, key_is_r ? p : r);
        });
      };
      auto reduce_fn = [&](const uint64_t& key, std::vector<uint32_t>* others,
                           std::vector<TsjPair>* out) {
        verify_one_string_group(key, std::span<uint32_t>(*others), out);
      };
      verified = RunMapReduce<RawCandidate, uint64_t, uint32_t, TsjPair>(
          "tsj-rp-dedup-verify-one", candidates, map_fn, reduce_fn,
          mr_options, &verify_stats);
    }
    gauge.Sub(candidates.size());
    results.insert(results.end(), verified.begin(), verified.end());
    local_info.pipeline.Add(std::move(verify_stats));
  }

  local_info.shared_token_candidates = counters.shared_token_candidates;
  local_info.similar_token_candidates = counters.similar_token_candidates;
  local_info.distinct_candidates = counters.distinct_candidates;
  local_info.length_filtered = counters.length_filtered;
  local_info.histogram_filtered = counters.histogram_filtered;
  local_info.verified_candidates = counters.distinct_candidates;
  local_info.verify_work_units = counters.verify_work_units;
  local_info.combiner_input_records =
      local_info.pipeline.total_combiner_input_records();
  local_info.combiner_output_records =
      local_info.pipeline.total_combiner_output_records();
  local_info.spilled_records = local_info.pipeline.total_spilled_records();
  local_info.spill_files = local_info.pipeline.total_spill_files();
  local_info.spill_bytes = local_info.pipeline.total_spill_bytes();
  local_info.spill_raw_bytes =
      local_info.pipeline.total_spill_raw_bytes();
  local_info.merge_passes = local_info.pipeline.total_merge_passes();
  local_info.checksum_failures =
      local_info.pipeline.total_checksum_failures();
  local_info.prefetch_hits = local_info.pipeline.total_prefetch_hits();
  local_info.peak_resident_records =
      local_info.pipeline.max_peak_resident_records();
  local_info.task_failures = local_info.pipeline.total_task_failures();
  local_info.task_retries = local_info.pipeline.total_task_retries();
  local_info.tasks_cancelled =
      local_info.pipeline.total_tasks_cancelled();
  local_info.tasks_degraded = local_info.pipeline.total_tasks_degraded();
  local_info.tasks_checkpointed =
      local_info.pipeline.total_tasks_checkpointed();
  local_info.tasks_skipped_by_checkpoint =
      local_info.pipeline.total_tasks_skipped_by_checkpoint();
  local_info.hedges_launched = local_info.pipeline.total_hedges_launched();
  local_info.hedges_won = local_info.pipeline.total_hedges_won();
  local_info.result_pairs = results.size();
  local_info.peak_shuffle_records = gauge.peak();
  // Lossy spill faults become the join's error (see SelfJoin).
  if (Status s = local_info.pipeline.first_spill_data_loss(); !s.ok()) {
    if (info != nullptr) *info = std::move(local_info);
    return s;
  }
  // Fatal task errors fail the join too (see SelfJoin).
  if (Status s = local_info.pipeline.first_task_error(); !s.ok()) {
    if (info != nullptr) *info = std::move(local_info);
    return s;
  }
  if (info != nullptr) *info = std::move(local_info);
  return results;
}

}  // namespace tsj
