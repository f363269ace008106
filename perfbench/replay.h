// Replays for the traced run: the benchmark builds its own deterministic
// candidate sample (the shared-token candidates of every k-th string) and
// times the library's per-candidate entry points on it, one layer at a
// time, from outside the library.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct ReplayResult {
  uint64_t candidates = 0;  // sampled shared-token candidates
  uint64_t survivors = 0;   // candidates both lower bounds kept
  uint64_t edges = 0;       // token pairs of the survivors' bigraphs
  uint64_t solves = 0;      // assignment problems with two or more rows
  double bounds_ns_per_candidate = 0;
  double verify_ns_per_pair = 0;
  double distance_ns_per_edge = 0;
  double assignment_ns_per_solve = 0;
  double massjoin_replay_s = 0;
  uint64_t massjoin_pairs = 0;
  /// Empty when every replayed call agreed with its reference.
  std::string error;
};

/// Runs every replay on the workload's inputs and corpora (`p` is unused
/// for a self-join) and records one span per replay in `trace`.
ReplayResult RunReplays(const WorkloadConfig& config, const Inputs& inputs,
                        const tsj::Corpus& r, const tsj::Corpus& p,
                        TraceRecorder* trace);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
