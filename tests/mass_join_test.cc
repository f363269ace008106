#include "massjoin/mass_join.h"

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "distance/levenshtein.h"
#include "distance/normalized_levenshtein.h"
#include "gtest/gtest.h"
#include "passjoin/pass_join.h"
#include "test_util.h"

namespace tsj {
namespace {

using PairSet = std::set<std::pair<uint32_t, uint32_t>>;

PairSet ToSet(const std::vector<NldPair>& pairs) {
  PairSet s;
  for (const auto& p : pairs) s.emplace(p.a, p.b);
  return s;
}

std::vector<std::string> MakeTokens(Rng* rng, size_t n) {
  std::set<std::string> distinct;  // token spaces are distinct by nature
  while (distinct.size() < n) {
    distinct.insert(testutil::RandomString(rng, 2, 9, 3));
  }
  return std::vector<std::string>(distinct.begin(), distinct.end());
}

// Full result rows (a, b, ld, nld), sorted: the oracle comparisons check
// the reported distances, not only which pairs were found.
using Row = std::tuple<uint32_t, uint32_t, uint32_t, double>;

std::vector<Row> SortedRows(const std::vector<NldPair>& pairs) {
  std::vector<Row> rows;
  rows.reserve(pairs.size());
  for (const NldPair& p : pairs) rows.emplace_back(p.a, p.b, p.ld, p.nld);
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Brute-force NLD self-join over every pair, with the exact LD.
std::vector<Row> BruteForceRows(const std::vector<std::string>& tokens,
                                double t) {
  std::vector<Row> rows;
  for (uint32_t i = 0; i < tokens.size(); ++i) {
    for (uint32_t j = i + 1; j < tokens.size(); ++j) {
      const uint32_t ld = Levenshtein(tokens[i], tokens[j]);
      const double nld = NldFromLd(ld, tokens[i].size(), tokens[j].size());
      if (nld <= t) rows.emplace_back(i, j, ld, nld);
    }
  }
  return rows;  // generated in (a, b) order
}

// Distinct tokens of 65-130 characters, built as random bases plus a few
// edited variants of each, so matching pairs exist and the Myers kernel
// takes its blocked (> 64-character pattern) path.
std::vector<std::string> MakeLongTokens(Rng* rng, size_t bases) {
  std::set<std::string> distinct;
  for (size_t b = 0; b < bases; ++b) {
    const std::string base = testutil::RandomString(rng, 70, 125, 4);
    distinct.insert(base);
    for (int v = 0; v < 3; ++v) {
      std::string variant = base;
      const uint64_t edits = 1 + rng->Uniform(8);
      for (uint64_t e = 0; e < edits; ++e) {
        variant = testutil::RandomEdit(rng, variant);
      }
      if (variant.size() >= 65 && variant.size() <= 130) {
        distinct.insert(variant);
      }
    }
  }
  return std::vector<std::string>(distinct.begin(), distinct.end());
}

// Periodic tokens ("aaaa...", "abab...", "aabaab...") and one-edit
// variants of them: a substring-role token emits the same signature at
// several start positions, so one reduce group holds the same token more
// than once.
std::vector<std::string> MakeRepeatedChunkTokens(Rng* rng) {
  std::set<std::string> distinct;
  for (const char* unit : {"a", "ab", "aab", "abc"}) {
    for (size_t len = 2; len <= 24; ++len) {
      std::string token;
      while (token.size() < len) token += unit;
      token.resize(len);
      distinct.insert(token);
      distinct.insert(testutil::RandomEdit(rng, token, 3));
    }
  }
  return std::vector<std::string>(distinct.begin(), distinct.end());
}

class MassJoinTest : public ::testing::TestWithParam<double> {};

TEST_P(MassJoinTest, MatchesSerialPassJoin) {
  const double t = GetParam();
  Rng rng(3000 + static_cast<uint64_t>(t * 1000));
  for (int round = 0; round < 5; ++round) {
    const auto tokens = MakeTokens(&rng, 80);
    const auto serial = PassJoinSelfNld(tokens, t);
    const auto distributed = MassJoinSelfNld(tokens, t);
    EXPECT_EQ(ToSet(distributed), ToSet(serial)) << "T=" << t;
  }
}

TEST_P(MassJoinTest, MatchesBruteForce) {
  const double t = GetParam();
  Rng rng(4000 + static_cast<uint64_t>(t * 1000));
  const auto tokens = MakeTokens(&rng, 60);
  PairSet expected;
  for (uint32_t i = 0; i < tokens.size(); ++i) {
    for (uint32_t j = i + 1; j < tokens.size(); ++j) {
      if (NormalizedLevenshtein(tokens[i], tokens[j]) <= t + 1e-12) {
        expected.emplace(i, j);
      }
    }
  }
  const auto result = MassJoinSelfNld(tokens, t);
  EXPECT_EQ(ToSet(result), expected);
  EXPECT_EQ(SortedRows(result), BruteForceRows(tokens, t));
}

TEST_P(MassJoinTest, MatchesBruteForceOnLongAndPeriodicTokens) {
  const double t = GetParam();
  Rng rng(4200 + static_cast<uint64_t>(t * 1000));
  for (const auto& tokens :
       {MakeLongTokens(&rng, 8), MakeRepeatedChunkTokens(&rng)}) {
    const auto expected = BruteForceRows(tokens, t);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(SortedRows(MassJoinSelfNld(tokens, t)), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, MassJoinTest,
                         ::testing::Values(0.05, 0.1, 0.15, 0.225, 0.3));

TEST(MassJoinTest, EmptyInput) {
  EXPECT_TRUE(MassJoinSelfNld({}, 0.1).empty());
}

TEST(MassJoinTest, ReportsPerJobStats) {
  Rng rng(5000);
  const auto tokens = MakeTokens(&rng, 50);
  PipelineStats stats;
  const auto pairs = MassJoinSelfNld(tokens, 0.2, {}, &stats);
  ASSERT_FALSE(pairs.empty());
  ASSERT_EQ(stats.jobs.size(), 2u);
  EXPECT_EQ(stats.jobs[0].name, "massjoin-generate");
  EXPECT_EQ(stats.jobs[1].name, "massjoin-verify");
  EXPECT_EQ(stats.jobs[0].input_records, tokens.size());
  EXPECT_GT(stats.jobs[0].map_output_records, 0u);
  // Pairs are verified in the pairing reducer: only matching pairs cross
  // the stage boundary, so every verify group is one result pair.
  EXPECT_EQ(stats.jobs[1].num_groups, pairs.size());
  EXPECT_EQ(stats.jobs[1].reduce_output_records, pairs.size());
  EXPECT_GE(stats.jobs[1].shuffle_records, pairs.size());
}

TEST(MassJoinTest, PairingReducerChargesBandedVerifyWorkUnits) {
  // Two tokens at LD 1. Each signature group that pairs them charges its
  // records, the banded-verify cost (2*tau+1)*min(|x|,|y|) + 1 of the
  // check, and one unit for the emitted pair; nothing else is paired.
  const std::vector<std::string> tokens = {"abcdefgh", "abcdefgx"};
  PipelineStats stats;
  const auto pairs = MassJoinSelfNld(tokens, 0.2, {}, &stats);
  ASSERT_EQ(pairs.size(), 1u);
  ASSERT_EQ(stats.jobs.size(), 2u);
  uint64_t units = 0, records = 0;
  for (const GroupLoad& load : stats.jobs[0].group_loads) {
    units += load.work_units;
    records += load.records;
  }
  const uint32_t tau = MaxLdForNld(0.2, 8, /*x_is_shorter=*/true);
  const uint64_t per_pairing = (2 * uint64_t{tau} + 1) * 8 + 1 + 1;
  ASSERT_GT(units, records);
  EXPECT_EQ((units - records) % per_pairing, 0u);
}

TEST(MassJoinTest, PairingReducerChargesOneUnitForCountRejectedPair) {
  // Both tokens have length 8 (tau 1, two segments) and share the first
  // segment "abcd", so the signature group (8, 8, 0, "abcd") pairs them
  // twice: each token's segment against the other's substring. Their
  // other four characters fall in distinct count bins, so the count bound
  // is 4 > tau and each pairing is charged 1 unit instead of the banded
  // (2*tau+1)*8 + 1. No other group pairs them.
  const std::vector<std::string> tokens = {"abcdefgh", "abcdwxyz"};
  ASSERT_EQ(MaxLdForNld(0.2, 8, /*x_is_shorter=*/true), 1u);
  PipelineStats stats;
  const auto pairs = MassJoinSelfNld(tokens, 0.2, {}, &stats);
  EXPECT_TRUE(pairs.empty());
  ASSERT_EQ(stats.jobs.size(), 2u);
  const JobStats& generate = stats.jobs[0];
  uint64_t units = generate.residual_work_units;
  uint64_t records = generate.residual_records;
  for (const GroupLoad& load : generate.group_loads) {
    units += load.work_units;
    records += load.records;
  }
  EXPECT_EQ(records, generate.map_output_records);
  EXPECT_EQ(units - records, 2u);
}

TEST(MassJoinTest, RowsIdenticalAcrossWorkersAndSpill) {
  Rng rng(6100);
  const auto tokens = MakeTokens(&rng, 80);
  const auto reference = SortedRows(MassJoinSelfNld(tokens, 0.2));
  ASSERT_FALSE(reference.empty());
  for (size_t workers : {1u, 4u}) {
    for (bool spill : {false, true}) {
      MassJoinOptions options;
      options.mapreduce.num_workers = workers;
      options.enable_shuffle_spill = spill;
      options.mapreduce.memory_budget_records = 16;
      PipelineStats stats;
      auto result = RunMassJoinSelfNld(tokens, 0.2, options, &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(SortedRows(*result), reference)
          << "workers=" << workers << " spill=" << spill;
      if (spill) EXPECT_GT(stats.total_spilled_records(), 0u);
    }
  }
}

TEST(MassJoinTest, ResultIndependentOfWorkerCount) {
  Rng rng(6000);
  const auto tokens = MakeTokens(&rng, 70);
  MassJoinOptions one_worker, many_workers;
  one_worker.mapreduce.num_workers = 1;
  many_workers.mapreduce.num_workers = 8;
  many_workers.mapreduce.num_partitions = 7;
  EXPECT_EQ(ToSet(MassJoinSelfNld(tokens, 0.15, one_worker)),
            ToSet(MassJoinSelfNld(tokens, 0.15, many_workers)));
}

TEST(MassJoinTest, NoDuplicateOrSelfPairs) {
  Rng rng(7000);
  const auto tokens = MakeTokens(&rng, 90);
  const auto pairs = MassJoinSelfNld(tokens, 0.25);
  PairSet seen;
  for (const auto& p : pairs) {
    EXPECT_LT(p.a, p.b);
    EXPECT_TRUE(seen.emplace(p.a, p.b).second) << "duplicate pair";
  }
}

// ---- Fault parity with the tsj/hmj pipelines -------------------------------
// Same contract the spill fault tier pins for the raw engine: degraded
// write faults keep complete results and only surface through stats;
// lossy read faults fail the Status-returning entry point. Injector
// tests restore the CC_FAULT_SPEC configuration on exit (the injector
// is process-global).

TEST(MassJoinTest, SpillWriteFaultsDegradeWithoutResultLoss) {
  Rng rng(9000);
  const auto tokens = MakeTokens(&rng, 60);
  const auto reference = ToSet(MassJoinSelfNld(tokens, 0.2));

  MassJoinOptions options;
  options.enable_shuffle_spill = true;
  options.mapreduce.memory_budget_records = 16;
  ASSERT_TRUE(FaultInjector::Global().Configure("spill.write=every@1").ok());
  PipelineStats stats;
  auto result = RunMassJoinSelfNld(tokens, 0.2, options, &stats);
  FaultInjector::Global().ConfigureFromEnv();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ToSet(*result), reference);  // complete despite every write failing
  EXPECT_FALSE(stats.first_spill_error().ok());      // ...and reported
  EXPECT_TRUE(stats.first_spill_data_loss().ok());   // but not as loss
}

TEST(MassJoinTest, SpillReadFaultsFailTheStatusEntryPoint) {
  Rng rng(9100);
  const auto tokens = MakeTokens(&rng, 60);
  MassJoinOptions options;
  options.enable_shuffle_spill = true;
  options.mapreduce.memory_budget_records = 16;
  options.mapreduce.num_workers = 1;
  ASSERT_TRUE(FaultInjector::Global().Configure("merge.read=once").ok());
  PipelineStats stats;
  auto result = RunMassJoinSelfNld(tokens, 0.2, options, &stats);
  FaultInjector::Global().ConfigureFromEnv();
  ASSERT_FALSE(result.ok());  // a torn run read is potential data loss
  EXPECT_FALSE(stats.first_spill_data_loss().ok());
  EXPECT_GT(stats.total_spilled_records(), 0u);
}

TEST(MassJoinTest, TaskFaultsAreRetriedLosslesslyInTheFusedEngine) {
  Rng rng(9200);
  const auto tokens = MakeTokens(&rng, 60);
  const auto reference = ToSet(MassJoinSelfNld(tokens, 0.2));
  ASSERT_TRUE(
      FaultInjector::Global().Configure("task.map=once;task.reduce=once@2")
          .ok());
  PipelineStats stats;
  auto result = RunMassJoinSelfNld(tokens, 0.2, {}, &stats);
  FaultInjector::Global().ConfigureFromEnv();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ToSet(*result), reference);
  EXPECT_GE(stats.total_task_retries(), 2u);
  EXPECT_EQ(stats.total_tasks_cancelled(), 0u);
}

TEST(MassJoinTest, PersistentTaskFaultsAbortWithRootCause) {
  Rng rng(9300);
  const auto tokens = MakeTokens(&rng, 40);
  ASSERT_TRUE(FaultInjector::Global().Configure("task.reduce=every@1").ok());
  PipelineStats stats;
  auto result = RunMassJoinSelfNld(tokens, 0.2, {}, &stats);
  FaultInjector::Global().ConfigureFromEnv();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(stats.first_task_error().ok());
}

TEST(MassJoinTest, ReportedDistancesAreExact) {
  Rng rng(8000);
  const auto tokens = MakeTokens(&rng, 60);
  for (const auto& p : MassJoinSelfNld(tokens, 0.3)) {
    EXPECT_EQ(p.ld, Levenshtein(tokens[p.a], tokens[p.b]));
    EXPECT_DOUBLE_EQ(p.nld, NldFromLd(p.ld, tokens[p.a].size(),
                                      tokens[p.b].size()));
  }
}

}  // namespace
}  // namespace tsj
