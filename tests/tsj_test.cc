#include "tsj/tsj.h"

#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "eval/join_metrics.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "tokenized/corpus.h"
#include "workload/ring_workload.h"

namespace tsj {
namespace {

using PairSet = std::set<std::pair<uint32_t, uint32_t>>;

PairSet ToSet(const std::vector<TsjPair>& pairs) {
  PairSet s;
  for (const auto& p : pairs) s.emplace(p.a, p.b);
  return s;
}

// A small corpus with planted near-duplicate tokenized strings.
Corpus MakeCorpus(Rng* rng, size_t n) {
  Corpus corpus;
  size_t added = 0;
  while (added < n) {
    auto base = testutil::RandomTokenizedString(rng, 1, 3, 2, 7, 4);
    corpus.AddString(base);
    ++added;
    const size_t copies = rng->Uniform(3);
    for (size_t c = 0; c < copies && added < n; ++c) {
      auto variant = base;
      // Edit one character of one token, sometimes shuffle.
      const size_t tok = rng->Uniform(variant.size());
      variant[tok] = testutil::RandomEdit(rng, variant[tok], 4);
      if (rng->Bernoulli(0.5)) rng->Shuffle(&variant);
      corpus.AddString(variant);
      ++added;
    }
  }
  return corpus;
}

TsjOptions Lossless(double t) {
  TsjOptions options;
  options.threshold = t;
  options.max_token_frequency = 1u << 30;  // no high-frequency dropping
  options.matching = TokenMatching::kFuzzy;
  options.aligning = TokenAligning::kExact;
  return options;
}

TEST(TsjOptionsTest, ValidateRejectsBadThreshold) {
  TsjOptions options;
  options.threshold = 1.0;
  EXPECT_FALSE(options.Validate().ok());
  options.threshold = -0.1;
  EXPECT_FALSE(options.Validate().ok());
  options.threshold = 0.5;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(TsjOptionsTest, ValidateRejectsZeroMaxFrequency) {
  TsjOptions options;
  options.max_token_frequency = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(TsjTest, SelfJoinRejectsInvalidOptions) {
  TsjOptions options;
  options.threshold = 2.0;
  TokenizedStringJoiner joiner(options);
  Corpus corpus;
  EXPECT_FALSE(joiner.SelfJoin(corpus).ok());
}

class TsjExactnessTest : public ::testing::TestWithParam<double> {};

TEST_P(TsjExactnessTest, FuzzyModeMatchesBruteForce) {
  // The central correctness claim: with fuzzy matching, exact aligning and
  // no high-frequency dropping, TSJ computes the exact NSLD join.
  const double t = GetParam();
  Rng rng(100 + static_cast<uint64_t>(t * 1000));
  for (int round = 0; round < 4; ++round) {
    Corpus corpus = MakeCorpus(&rng, 60);
    const auto expected = BruteForceNsldSelfJoin(corpus, t);
    TokenizedStringJoiner joiner(Lossless(t));
    const auto actual = joiner.SelfJoin(corpus);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(ToSet(*actual), ToSet(expected)) << "T=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, TsjExactnessTest,
                         ::testing::Values(0.025, 0.1, 0.15, 0.225));

TEST(TsjTest, ReportedNsldValuesAreExact) {
  Rng rng(321);
  Corpus corpus = MakeCorpus(&rng, 50);
  TokenizedStringJoiner joiner(Lossless(0.2));
  const auto result = joiner.SelfJoin(corpus);
  ASSERT_TRUE(result.ok());
  for (const TsjPair& p : *result) {
    const double expected =
        Nsld(corpus.Materialize(p.a), corpus.Materialize(p.b));
    EXPECT_DOUBLE_EQ(p.nsld, expected);
    EXPECT_LE(p.nsld, 0.2);
    EXPECT_LT(p.a, p.b);
  }
}

TEST(TsjTest, DedupStrategiesProduceIdenticalResults) {
  Rng rng(654);
  Corpus corpus = MakeCorpus(&rng, 80);
  TsjOptions one = Lossless(0.15);
  one.dedup = DedupStrategy::kGroupOnOneString;
  TsjOptions both = Lossless(0.15);
  both.dedup = DedupStrategy::kGroupOnBothStrings;
  const auto r1 = TokenizedStringJoiner(one).SelfJoin(corpus);
  const auto r2 = TokenizedStringJoiner(both).SelfJoin(corpus);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(ToSet(*r1), ToSet(*r2));
}

TEST(TsjTest, GroupingStrategiesDifferInGroupCounts) {
  // grouping-on-both-strings instantiates one reduce group per pair;
  // grouping-on-one-string one per string — the paper's Fig. 1 mechanism.
  Rng rng(655);
  Corpus corpus = MakeCorpus(&rng, 80);
  TsjOptions one = Lossless(0.15);
  TsjOptions both = Lossless(0.15);
  both.dedup = DedupStrategy::kGroupOnBothStrings;
  TsjRunInfo info_one, info_both;
  ASSERT_TRUE(TokenizedStringJoiner(one).SelfJoin(corpus, &info_one).ok());
  ASSERT_TRUE(TokenizedStringJoiner(both).SelfJoin(corpus, &info_both).ok());
  const JobStats& verify_one = info_one.pipeline.jobs.back();
  const JobStats& verify_both = info_both.pipeline.jobs.back();
  EXPECT_GE(verify_both.num_groups, verify_one.num_groups);
  EXPECT_EQ(info_one.distinct_candidates, info_both.distinct_candidates);
}

TEST(TsjTest, FiltersAreLossless) {
  Rng rng(987);
  Corpus corpus = MakeCorpus(&rng, 70);
  TsjOptions filtered = Lossless(0.2);
  TsjOptions unfiltered = Lossless(0.2);
  unfiltered.enable_length_filter = false;
  unfiltered.enable_histogram_filter = false;
  TsjRunInfo info_f, info_u;
  const auto rf = TokenizedStringJoiner(filtered).SelfJoin(corpus, &info_f);
  const auto ru = TokenizedStringJoiner(unfiltered).SelfJoin(corpus, &info_u);
  ASSERT_TRUE(rf.ok());
  ASSERT_TRUE(ru.ok());
  EXPECT_EQ(ToSet(*rf), ToSet(*ru));
  // The filters actually did something.
  EXPECT_GT(info_f.length_filtered + info_f.histogram_filtered, 0u);
  EXPECT_EQ(info_u.length_filtered, 0u);
  EXPECT_LT(info_f.verified_candidates, info_u.verified_candidates);
}

TEST(TsjTest, ApproximationsNeverAddPairs) {
  // Precision stays 1.0 for every approximation (Sec. V-B.2): greedy and
  // exact-token results are subsets of the fuzzy/exact reference.
  Rng rng(1111);
  Corpus corpus = MakeCorpus(&rng, 80);
  const double t = 0.2;
  const auto reference = TokenizedStringJoiner(Lossless(t)).SelfJoin(corpus);
  ASSERT_TRUE(reference.ok());
  const PairSet ref_set = ToSet(*reference);

  TsjOptions greedy = Lossless(t);
  greedy.aligning = TokenAligning::kGreedy;
  TsjOptions exact_token = Lossless(t);
  exact_token.matching = TokenMatching::kExact;
  for (const TsjOptions& options : {greedy, exact_token}) {
    const auto result = TokenizedStringJoiner(options).SelfJoin(corpus);
    ASSERT_TRUE(result.ok());
    for (const auto& pair : ToSet(*result)) {
      EXPECT_TRUE(ref_set.count(pair)) << pair.first << "," << pair.second;
    }
  }
}

TEST(TsjTest, ExactTokenMatchingSkipsMassJoin) {
  Rng rng(2222);
  Corpus corpus = MakeCorpus(&rng, 50);
  TsjOptions options = Lossless(0.15);
  options.matching = TokenMatching::kExact;
  TsjRunInfo info;
  ASSERT_TRUE(TokenizedStringJoiner(options).SelfJoin(corpus, &info).ok());
  EXPECT_EQ(info.similar_token_pairs, 0u);
  // Pipeline: shared-token + dedup/verify only (no massjoin jobs).
  EXPECT_EQ(info.pipeline.jobs.size(), 2u);
}

TEST(TsjTest, FuzzyPipelineHasFourJobs) {
  Rng rng(2223);
  Corpus corpus = MakeCorpus(&rng, 50);
  TsjRunInfo info;
  ASSERT_TRUE(
      TokenizedStringJoiner(Lossless(0.15)).SelfJoin(corpus, &info).ok());
  // shared-token, massjoin-generate, massjoin-verify, dedup-verify.
  EXPECT_EQ(info.pipeline.jobs.size(), 4u);
  EXPECT_EQ(info.pipeline.jobs[0].name, "tsj-shared-token");
}

TEST(TsjTest, HighFrequencyTokenDroppingLosesOnlySharedPairs) {
  // Build a corpus where "john" is ubiquitous: with M small, pairs that
  // are similar only through "john" are dropped; recall < 1, precision 1.
  Corpus corpus;
  for (int i = 0; i < 30; ++i) {
    corpus.AddString({"john", "u" + std::to_string(i) + "xyzq"});
  }
  corpus.AddString({"alice", "wonderland"});
  corpus.AddString({"alice", "wonderlanb"});
  const double t = 0.35;
  TsjOptions unlimited = Lossless(t);
  TsjOptions capped = Lossless(t);
  capped.max_token_frequency = 5;  // "john" (30 strings) is dropped
  const auto full = TokenizedStringJoiner(unlimited).SelfJoin(corpus);
  const auto reduced = TokenizedStringJoiner(capped).SelfJoin(corpus);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(reduced.ok());
  TsjRunInfo info;
  ASSERT_TRUE(TokenizedStringJoiner(capped).SelfJoin(corpus, &info).ok());
  EXPECT_GT(info.dropped_tokens, 0u);
  // Precision 1: everything found is truly similar.
  const PairSet full_set = ToSet(*full);
  for (const auto& pair : ToSet(*reduced)) {
    EXPECT_TRUE(full_set.count(pair));
  }
  // The alice pair survives (its tokens are rare).
  EXPECT_TRUE(ToSet(*reduced).count({30u, 31u}));
}

TEST(TsjTest, EmptyCorpus) {
  Corpus corpus;
  const auto result = TokenizedStringJoiner(Lossless(0.1)).SelfJoin(corpus);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(TsjTest, EmptyTokenizedStringsPairTogether) {
  Corpus corpus;
  corpus.AddString({});
  corpus.AddString({});
  corpus.AddString({"bob"});
  const auto result = TokenizedStringJoiner(Lossless(0.1)).SelfJoin(corpus);
  ASSERT_TRUE(result.ok());
  // NSLD(empty, empty) = 0; empty vs "bob" = 1.
  EXPECT_EQ(ToSet(*result), (PairSet{{0u, 1u}}));
}

TEST(TsjTest, ResultIndependentOfWorkerCount) {
  Rng rng(3333);
  Corpus corpus = MakeCorpus(&rng, 60);
  TsjOptions a = Lossless(0.15);
  a.mapreduce.num_workers = 1;
  a.mapreduce.num_partitions = 1;
  TsjOptions b = Lossless(0.15);
  b.mapreduce.num_workers = 8;
  b.mapreduce.num_partitions = 61;
  const auto ra = TokenizedStringJoiner(a).SelfJoin(corpus);
  const auto rb = TokenizedStringJoiner(b).SelfJoin(corpus);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ToSet(*ra), ToSet(*rb));
}

TEST(TsjTest, RunInfoCountersAreConsistent) {
  Rng rng(4444);
  Corpus corpus = MakeCorpus(&rng, 70);
  TsjRunInfo info;
  const auto result =
      TokenizedStringJoiner(Lossless(0.15)).SelfJoin(corpus, &info);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(info.result_pairs, result->size());
  // The length filter runs where candidates are emitted, before dedup;
  // every distinct candidate is histogram-pruned or verified.
  EXPECT_EQ(info.distinct_candidates,
            info.histogram_filtered + info.verified_candidates);
  EXPECT_LE(info.length_filtered + info.distinct_candidates,
            info.shared_token_candidates + info.similar_token_candidates);
  EXPECT_GE(info.verified_candidates, info.result_pairs);
  EXPECT_GT(info.shared_token_candidates + info.similar_token_candidates,
            0u);
}

TEST(TsjTest, ContentionReliefTogglesAreLossless) {
  // Fast-tier pin (the randomized differential harness has the deep
  // version): the shuffle combiner and the skew-adaptive partition
  // planner — both on by default — must not change the joined pairs or
  // their NSLD values; and the default run must actually exercise them
  // (nonzero combiner traffic, a planned partition count). Multi-worker so
  // the sanitizer jobs drive the combiner concurrently.
  Rng rng(90210);
  Corpus corpus = MakeCorpus(&rng, 90);
  TsjOptions all_on = Lossless(0.2);
  all_on.mapreduce.num_workers = 4;
  TsjRunInfo on_info;
  const auto reference =
      TokenizedStringJoiner(all_on).SelfJoin(corpus, &on_info);
  ASSERT_TRUE(reference.ok());
  EXPECT_GT(on_info.combiner_input_records, 0u);
  EXPECT_GE(on_info.combiner_input_records, on_info.combiner_output_records);
  EXPECT_GT(on_info.shuffle_partitions, 0u);

  for (int toggle = 0; toggle < 2; ++toggle) {
    TsjOptions options = all_on;
    if (toggle == 0) options.enable_shuffle_combiner = false;
    if (toggle == 1) options.adaptive_partitions = false;
    TsjRunInfo off_info;
    const auto result =
        TokenizedStringJoiner(options).SelfJoin(corpus, &off_info);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(ToSet(*result), ToSet(*reference)) << "toggle=" << toggle;
    EXPECT_EQ(off_info.result_pairs, on_info.result_pairs);
    EXPECT_EQ(off_info.distinct_candidates, on_info.distinct_candidates);
    EXPECT_EQ(off_info.verified_candidates, on_info.verified_candidates);
  }
}

TEST(TsjTest, BudgetedVerifyIsByteIdenticalToUnbounded) {
  // The budget-aware verification engine may only skip work: the joined
  // pairs AND their reported NSLD values must match the unbounded path
  // bit-for-bit, across thresholds and both alignings, while doing no more
  // verify work.
  Rng rng(5150);
  Corpus corpus = MakeCorpus(&rng, 80);
  for (double t : {0.05, 0.1, 0.2, 0.35}) {
    for (TokenAligning aligning :
         {TokenAligning::kExact, TokenAligning::kGreedy}) {
      TsjOptions budgeted = Lossless(t);
      budgeted.aligning = aligning;
      TsjOptions unbounded = budgeted;
      unbounded.enable_budgeted_verify = false;
      TsjRunInfo budgeted_info, unbounded_info;
      auto budgeted_result =
          TokenizedStringJoiner(budgeted).SelfJoin(corpus, &budgeted_info);
      auto unbounded_result =
          TokenizedStringJoiner(unbounded).SelfJoin(corpus, &unbounded_info);
      ASSERT_TRUE(budgeted_result.ok());
      ASSERT_TRUE(unbounded_result.ok());
      auto by_pair = [](const TsjPair& p, const TsjPair& q) {
        return std::make_pair(p.a, p.b) < std::make_pair(q.a, q.b);
      };
      std::sort(budgeted_result->begin(), budgeted_result->end(), by_pair);
      std::sort(unbounded_result->begin(), unbounded_result->end(), by_pair);
      ASSERT_EQ(budgeted_result->size(), unbounded_result->size())
          << "T=" << t;
      for (size_t i = 0; i < budgeted_result->size(); ++i) {
        EXPECT_EQ((*budgeted_result)[i].a, (*unbounded_result)[i].a);
        EXPECT_EQ((*budgeted_result)[i].b, (*unbounded_result)[i].b);
        // Byte-identical NSLD, not just approximately equal.
        EXPECT_EQ((*budgeted_result)[i].nsld, (*unbounded_result)[i].nsld);
      }
      EXPECT_LE(budgeted_info.verify_work_units,
                unbounded_info.verify_work_units);
    }
  }
}

TEST(TsjTest, FindsShuffledAndEditedRingNames) {
  // End-to-end sanity on the motivating example (Sec. I-A).
  Corpus corpus;
  const StringId a = corpus.AddString({"barak", "obama"});
  const StringId b = corpus.AddString({"obama", "barak"});   // shuffle
  const StringId c = corpus.AddString({"boraak", "obamma"});  // edits
  corpus.AddString({"john", "smith"});                        // unrelated
  const auto result = TokenizedStringJoiner(Lossless(0.25)).SelfJoin(corpus);
  ASSERT_TRUE(result.ok());
  const PairSet pairs = ToSet(*result);
  EXPECT_TRUE(pairs.count({a, b}));
  EXPECT_TRUE(pairs.count({a, c}));
  EXPECT_TRUE(pairs.count({b, c}));
  EXPECT_EQ(pairs.size(), 3u);
}

}  // namespace
}  // namespace tsj
