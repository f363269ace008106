// Work-unit reporting channel between user map/reduce functions and the
// engine's per-group/per-task accounting.
//
// Wall-clock timing of sub-millisecond reduce groups is too noisy to
// resolve the few-percent cost differences the paper's Figs. 2-3 measure
// (Hungarian vs. greedy alignment). Instead, map/reduce functions report
// *deterministic operation counts* — DP cells touched, assignment-solver
// steps, pairs emitted — through a thread-local accumulator the engine
// snapshots around every group. The simulated-cluster model converts units
// to seconds with a single calibration constant
// (ClusterModelParams::seconds_per_unit), measured once against the real
// kernels (see cluster_model.h). Reduce groups that report nothing fall
// back to record counts, map tasks to measured wall time.

#ifndef TSJ_MAPREDUCE_WORK_UNITS_H_
#define TSJ_MAPREDUCE_WORK_UNITS_H_

#include <cstdint>

namespace tsj {

/// Adds `units` to the current task's work accumulator. Callable from map
/// and reduce functions; thread-safe by construction (thread-local).
void AddWorkUnits(uint64_t units);

/// Returns the accumulated units and resets the accumulator. Engine use.
uint64_t TakeWorkUnits();

}  // namespace tsj

#endif  // TSJ_MAPREDUCE_WORK_UNITS_H_
