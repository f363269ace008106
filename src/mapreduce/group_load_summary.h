// Bounded per-job summary of reduce-group loads.
//
// The simulated-cluster model (cluster_model.h) and the run reports need
// the shape of a job's reduce load: which groups are heavy (the paper's
// hot-token skew, Sec. III-G and V) and how much load the rest carries.
// Listing every group costs memory and time in proportion to the group
// count (a MassJoin signature stage has hundreds of thousands), so each
// reduce task keeps only its kListedGroups heaviest groups plus its
// largest group by records, and folds everything else into totals. The
// per-task summaries merge into one per job, written to JobStats.
//
// Heaviness is a total order on (work units, records, key hash), so the
// listed set is the job's top kListedGroups whatever the partition or
// worker count.

#ifndef TSJ_MAPREDUCE_GROUP_LOAD_SUMMARY_H_
#define TSJ_MAPREDUCE_GROUP_LOAD_SUMMARY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mapreduce/job_stats.h"

namespace tsj {

class GroupLoadSummary {
 public:
  /// Heaviest groups a summary lists. A job with at most this many groups
  /// lists all of them.
  static constexpr size_t kListedGroups = 64;

  /// Records one reduce group.
  void Add(const GroupLoad& group) {
    ++groups_;
    records_ += group.records;
    work_units_ += group.work_units;
    if (group.work_units == 0) unitless_records_ += group.records;
    if (groups_ == 1 || MoreRecords(group, most_records_)) {
      most_records_ = group;
    }
    Offer(group);
  }

  /// Folds another summary (another reduce task's) into this one.
  void Merge(const GroupLoadSummary& other);

  /// Sets stats->group_loads to the listed groups, heaviest first, with
  /// the largest group by records appended when it is not among them, and
  /// sets the residual totals to the rest.
  void WriteTo(JobStats* stats) const;

 private:
  static bool Heavier(const GroupLoad& a, const GroupLoad& b) {
    if (a.work_units != b.work_units) return a.work_units > b.work_units;
    if (a.records != b.records) return a.records > b.records;
    return a.key_hash > b.key_hash;
  }
  static bool MoreRecords(const GroupLoad& a, const GroupLoad& b) {
    if (a.records != b.records) return a.records > b.records;
    if (a.work_units != b.work_units) return a.work_units > b.work_units;
    return a.key_hash > b.key_hash;
  }

  // Keeps `group` if it is among the kListedGroups heaviest seen so far.
  void Offer(const GroupLoad& group) {
    if (heaviest_.size() < kListedGroups) {
      heaviest_.push_back(group);
      std::push_heap(heaviest_.begin(), heaviest_.end(), Heavier);
    } else if (Heavier(group, heaviest_.front())) {
      std::pop_heap(heaviest_.begin(), heaviest_.end(), Heavier);
      heaviest_.back() = group;
      std::push_heap(heaviest_.begin(), heaviest_.end(), Heavier);
    }
  }

  // Heap under Heavier: front() is the lightest listed group.
  std::vector<GroupLoad> heaviest_;
  GroupLoad most_records_;
  uint64_t groups_ = 0;
  uint64_t records_ = 0;
  uint64_t work_units_ = 0;
  uint64_t unitless_records_ = 0;
};

}  // namespace tsj

#endif  // TSJ_MAPREDUCE_GROUP_LOAD_SUMMARY_H_
