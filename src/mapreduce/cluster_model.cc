#include "mapreduce/cluster_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace tsj {

double EffectiveGroupCostSeconds(const GroupLoad& group,
                                 const ClusterModelParams& params) {
  if (group.work_units > 0) {
    return static_cast<double>(group.work_units) * params.seconds_per_unit;
  }
  const double fallback = static_cast<double>(group.records) *
                          params.fallback_record_seconds;
  return std::max(group.cost_seconds, fallback);
}

double ReduceMakespanSeconds(const JobStats& stats, uint64_t machines,
                             const ClusterModelParams& params) {
  if (machines == 0) machines = 1;
  const double per_group_overhead =
      params.group_overhead_seconds / params.worker_slowdown;
  if (stats.group_loads.empty() && stats.residual_groups == 0) {
    // No per-group data: assume balanced groups of equal cost, derived
    // from the measured reduce CPU.
    const double total_cost =
        stats.reduce_wall_seconds * static_cast<double>(stats.executed_workers) +
        per_group_overhead * static_cast<double>(stats.num_groups);
    return total_cost / static_cast<double>(machines);
  }
  std::vector<double> load(machines, 0.0);
  for (const GroupLoad& g : stats.group_loads) {
    load[g.key_hash % machines] +=
        EffectiveGroupCostSeconds(g, params) + per_group_overhead;
  }
  // The residual groups are many light ones: spread them evenly.
  const double residual_cost =
      static_cast<double>(stats.residual_work_units) * params.seconds_per_unit +
      static_cast<double>(stats.residual_unitless_records) *
          params.fallback_record_seconds +
      static_cast<double>(stats.residual_groups) * per_group_overhead;
  return *std::max_element(load.begin(), load.end()) +
         residual_cost / static_cast<double>(machines);
}

double SimulateJobSeconds(const JobStats& stats, uint64_t machines,
                          const ClusterModelParams& params) {
  if (machines == 0) machines = 1;
  const double w = static_cast<double>(machines);
  // Deterministic map units when reported; measured map CPU otherwise.
  const double map_cpu_seconds =
      stats.map_work_units > 0
          ? static_cast<double>(stats.map_work_units) * params.seconds_per_unit
          : stats.map_wall_seconds *
                static_cast<double>(stats.executed_workers);
  const double map_time = params.worker_slowdown * map_cpu_seconds / w +
                          params.wave_overhead_seconds;
  const double shuffle_time =
      params.record_overhead_seconds *
      static_cast<double>(stats.map_output_records) / w;
  const double reduce_time =
      params.worker_slowdown * ReduceMakespanSeconds(stats, machines, params) +
      params.wave_overhead_seconds;
  return params.job_overhead_seconds + map_time + shuffle_time + reduce_time;
}

double SimulatePipelineSeconds(const PipelineStats& stats, uint64_t machines,
                               const ClusterModelParams& params) {
  double total = 0;
  for (const JobStats& job : stats.jobs) {
    total += SimulateJobSeconds(job, machines, params);
  }
  return total;
}

size_t AdaptivePartitionCount(size_t workers, uint64_t num_keys,
                              uint64_t total_load, uint64_t max_key_load,
                              size_t fixed_fallback) {
  if (num_keys == 0 || total_load == 0 || max_key_load == 0) {
    return std::max<size_t>(1, fixed_fallback);
  }
  if (workers == 0) workers = 1;
  const double mean_key_load =
      static_cast<double>(total_load) / static_cast<double>(num_keys);
  // Skew ratio >= ~1: how much heavier the worst key is than the mean.
  const double skew = static_cast<double>(max_key_load) / mean_key_load;
  // 4 granules per worker at skew 1, growing logarithmically with skew
  // (see the header); the factor is capped so pathological single-key
  // profiles cannot explode the count past what the num_keys/1024 clamps
  // would cut anyway.
  const double factor = std::clamp(std::log2(1.0 + skew), 1.0, 8.0);
  const double raw = 4.0 * static_cast<double>(workers) * factor;
  uint64_t partitions = static_cast<uint64_t>(std::llround(raw));
  partitions = std::min<uint64_t>(partitions, num_keys);
  partitions = std::clamp<uint64_t>(partitions, 1, 1024);
  return static_cast<size_t>(partitions);
}

}  // namespace tsj
