// Tests of the bounded reduce-group load summary (group_load_summary.h):
// on a job with far more groups than it lists, over the in-memory sorted
// path, the spill merge and the legacy hash engine, at 1 and 4 workers.

#include "mapreduce/group_load_summary.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "mapreduce/mapreduce.h"

namespace tsj {
namespace {

constexpr size_t kListed = GroupLoadSummary::kListedGroups;
constexpr int kColdKeys = 10000;
constexpr int kHotKey = -1;
constexpr uint64_t kHotRecords = 5000;

// One input per key: the hot key emits kHotRecords records, cold key k
// emits 1 + k % 3.
std::vector<int> Inputs() {
  std::vector<int> inputs;
  inputs.push_back(kHotKey);
  for (int k = 0; k < kColdKeys; ++k) inputs.push_back(k);
  return inputs;
}

uint64_t RecordsOf(int key) {
  return key == kHotKey ? kHotRecords : 1 + static_cast<uint64_t>(key) % 3;
}

// Units a group reports: none for the hot key (so the largest group by
// records is not among the heaviest by units) and for every fifth cold
// key; spread-out values with many ties otherwise.
uint64_t UnitsOf(int key, uint64_t records) {
  if (key == kHotKey || key % 5 == 0) return 0;
  return (static_cast<uint64_t>(key) * 7919) % 500 + records;
}

struct Expected {
  uint64_t records = 0;
  uint64_t units = 0;
  uint64_t unitless_records = 0;
};

Expected ExpectedTotals() {
  Expected e;
  for (int key : Inputs()) {
    const uint64_t records = RecordsOf(key);
    const uint64_t units = UnitsOf(key, records);
    e.records += records;
    e.units += units;
    if (units == 0) e.unitless_records += records;
  }
  return e;
}

void EmitKey(int key, const auto& emit) {
  for (uint64_t i = 0; i < RecordsOf(key); ++i) emit(key, 1);
}

enum class Path { kSorted, kSpill, kLegacy };

JobStats RunJob(Path path, size_t workers) {
  MapReduceOptions options;
  options.num_workers = workers;
  options.num_partitions = 16;
  if (path == Path::kSpill) options.memory_budget_records = 4000;
  JobStats stats;
  if (path == Path::kLegacy) {
    RunMapReduce<int, int, int, int>(
        "loads-legacy", Inputs(),
        [](const int& key, Emitter<int, int>* out) {
          EmitKey(key, [&](int k, int v) { out->Emit(k, v); });
        },
        [](const int& key, std::vector<int>* values, std::vector<int>*) {
          AddWorkUnits(UnitsOf(key, values->size()));
        },
        options, &stats);
  } else {
    RunMapReduceSorted<int, int, int, int>(
        "loads-sorted", Inputs(),
        [](const int& key, PartitionedEmitter<int, int>* out) {
          EmitKey(key, [&](int k, int v) { out->Emit(k, v); });
        },
        [](const int& key, std::span<int> values, std::vector<int>*) {
          AddWorkUnits(UnitsOf(key, values.size()));
        },
        options, &stats);
  }
  return stats;
}

using LoadTuple = std::tuple<uint64_t, uint64_t, uint64_t>;

std::vector<LoadTuple> SortedTuples(const std::vector<GroupLoad>& loads) {
  std::vector<LoadTuple> tuples;
  for (const GroupLoad& g : loads) {
    tuples.emplace_back(g.key_hash, g.records, g.work_units);
  }
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

TEST(GroupLoadSummaryTest, BoundedListAddsUpOnEveryPathAndWorkerCount) {
  const Expected expected = ExpectedTotals();
  const uint64_t hot_hash = StableHash()(kHotKey);
  std::vector<LoadTuple> reference;
  for (Path path : {Path::kSorted, Path::kSpill, Path::kLegacy}) {
    for (size_t workers : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << "path " << static_cast<int>(path)
                                      << " workers " << workers);
      const JobStats stats = RunJob(path, workers);
      ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
      if (path == Path::kSpill) EXPECT_GT(stats.spill_files, 0u);
      EXPECT_EQ(stats.num_groups, kColdKeys + 1u);
      EXPECT_LE(stats.group_loads.size(), kListed + 1);
      EXPECT_EQ(stats.group_loads.size() + stats.residual_groups,
                stats.num_groups);

      uint64_t records = 0, units = 0, unitless = 0;
      for (const GroupLoad& g : stats.group_loads) {
        records += g.records;
        units += g.work_units;
        if (g.work_units == 0) unitless += g.records;
        EXPECT_EQ(g.cost_seconds, 0.0);  // no per-group clock
      }
      EXPECT_EQ(records + stats.residual_records, expected.records);
      EXPECT_EQ(expected.records, stats.map_output_records);
      EXPECT_EQ(units + stats.residual_work_units, expected.units);
      EXPECT_EQ(unitless + stats.residual_unitless_records,
                expected.unitless_records);

      // The largest group by records is listed although it reports no
      // units, after the kListed heaviest by units.
      EXPECT_EQ(stats.group_loads.size(), kListed + 1);
      EXPECT_EQ(stats.group_loads.back().key_hash, hot_hash);
      EXPECT_EQ(stats.group_loads.back().records, kHotRecords);
      for (size_t i = 1; i < kListed; ++i) {
        EXPECT_GE(stats.group_loads[i - 1].work_units,
                  stats.group_loads[i].work_units);
      }

      // The listed set depends on neither path nor worker count.
      const std::vector<LoadTuple> tuples = SortedTuples(stats.group_loads);
      if (reference.empty()) {
        reference = tuples;
      } else {
        EXPECT_EQ(tuples, reference);
      }
    }
  }
}

TEST(GroupLoadSummaryTest, FewGroupsAreAllListed) {
  GroupLoadSummary a, b;
  for (uint64_t g = 0; g < kListed / 2; ++g) a.Add(GroupLoad{g, 2, g});
  for (uint64_t g = kListed / 2; g < kListed; ++g) b.Add(GroupLoad{g, 1, 0});
  a.Merge(b);
  JobStats stats;
  a.WriteTo(&stats);
  EXPECT_EQ(stats.group_loads.size(), kListed);
  EXPECT_EQ(stats.residual_groups, 0u);
  EXPECT_EQ(stats.residual_records, 0u);
  EXPECT_EQ(stats.residual_work_units, 0u);
  EXPECT_EQ(stats.residual_unitless_records, 0u);
}

TEST(GroupLoadSummaryTest, EmptySummaryWritesNothing) {
  GroupLoadSummary summary;
  summary.Merge(GroupLoadSummary());
  JobStats stats;
  summary.WriteTo(&stats);
  EXPECT_TRUE(stats.group_loads.empty());
  EXPECT_EQ(stats.residual_groups, 0u);
}

}  // namespace
}  // namespace tsj
