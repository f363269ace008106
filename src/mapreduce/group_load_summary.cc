#include "mapreduce/group_load_summary.h"

namespace tsj {

void GroupLoadSummary::Merge(const GroupLoadSummary& other) {
  if (other.groups_ == 0) return;
  if (groups_ == 0 || MoreRecords(other.most_records_, most_records_)) {
    most_records_ = other.most_records_;
  }
  groups_ += other.groups_;
  records_ += other.records_;
  work_units_ += other.work_units_;
  unitless_records_ += other.unitless_records_;
  for (const GroupLoad& group : other.heaviest_) Offer(group);
}

void GroupLoadSummary::WriteTo(JobStats* stats) const {
  std::vector<GroupLoad> listed = heaviest_;
  std::sort(listed.begin(), listed.end(), Heavier);
  const auto same = [this](const GroupLoad& g) {
    return g.key_hash == most_records_.key_hash &&
           g.records == most_records_.records &&
           g.work_units == most_records_.work_units;
  };
  if (groups_ > 0 && std::none_of(listed.begin(), listed.end(), same)) {
    listed.push_back(most_records_);
  }
  stats->residual_groups = groups_ - listed.size();
  stats->residual_records = records_;
  stats->residual_work_units = work_units_;
  stats->residual_unitless_records = unitless_records_;
  for (const GroupLoad& g : listed) {
    stats->residual_records -= g.records;
    stats->residual_work_units -= g.work_units;
    if (g.work_units == 0) stats->residual_unitless_records -= g.records;
  }
  stats->group_loads = std::move(listed);
}

}  // namespace tsj
