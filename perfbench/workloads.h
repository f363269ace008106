// The benchmark's workloads: their join configuration, their seeded
// input generators, the planted pairs each one must find, and the
// exhaustive NSLD oracle that checks a slice of every join result.
//
//   ring        SelfJoin of the 40k fraud-ring population, T=0.1, M=1000,
//               in memory, 4 workers. Zipf-hot tokens make shared-token
//               fan-out and the dedup/verify reducer most of the wall.
//   ring-spill  The same generator at 10k accounts under a shuffle budget
//               of 350k records (about a quarter of the in-memory peak),
//               2 workers so that workers plus the spill prefetch threads
//               fit the cores. The out-of-core path: spill writes and
//               merge reads.
//   rp-tokens   Cross-corpus Join, T=0.2, 4 workers, over a wide, flat,
//               variant-heavy vocabulary: the MassJoin token-space join
//               dominates, verify takes the materialized byte path (no
//               token-pair cache), and the side-tagged Join pipeline runs.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tokenized/corpus.h"
#include "tokenized/tokenized_string.h"
#include "tsj/tsj.h"

namespace perfbench {

/// Spill-merge read-ahead threads the engine starts per spilling job
/// (kSpillPrefetchThreads in mapreduce/spill.cc, which is not exported).
inline constexpr size_t kSpillPrefetchThreads = 2;

struct WorkloadConfig {
  std::string name;
  /// R x P Join when true, SelfJoin of R otherwise.
  bool cross = false;
  double threshold = 0.1;
  size_t workers = 4;
  /// Accounts of a ring population (self-joins only).
  size_t accounts = 0;
  /// Shuffle records kept resident; 0 runs in memory.
  size_t spill_budget_records = 0;

  /// OS threads the workload keeps busy at once.
  size_t threads() const {
    return workers + (spill_budget_records > 0 ? kSpillPrefetchThreads : 0);
  }
};

/// The named workload's configuration, or false for an unknown name.
bool LookupWorkload(const std::string& name, WorkloadConfig* config);

/// Names of all workloads, for usage messages.
std::vector<std::string> WorkloadNames();

/// Generated inputs. For a self-join only the R side is used.
struct Inputs {
  std::vector<tsj::TokenizedString> r_names, p_names;
  /// Pairs the generator planted: same-ring account pairs (a < b) for a
  /// self-join, (r, p) re-registrations for a cross join.
  std::vector<std::pair<uint32_t, uint32_t>> planted;
};

/// Generates the workload's inputs from `seed`. Deterministic. The ring
/// workloads permute one fixed population; rp-tokens draws R and P anew.
Inputs Generate(const WorkloadConfig& config, uint64_t seed);

/// Interns names into a corpus with Corpus::AddString.
tsj::Corpus Intern(const std::vector<tsj::TokenizedString>& names);

/// Joiner options of the workload; `spill_dir` is used only when the
/// workload spills.
tsj::TsjOptions JoinOptions(const WorkloadConfig& config,
                            const std::string& spill_dir);

/// The slice of the result the oracle checks: R ids in `r`, P ids in `p`
/// (for a self-join both name the same id set). Sorted.
struct OracleSlice {
  std::vector<uint32_t> r, p;
};
OracleSlice ChooseOracleSlice(const WorkloadConfig& config,
                              const Inputs& inputs);

/// The slice's names as inputs of their own, renumbered in slice order
/// (planted pairs are not carried over).
Inputs SliceInputs(const WorkloadConfig& config, const Inputs& inputs,
                   const OracleSlice& slice);

/// Every pair of the slice with unbounded exact NSLD <= threshold, by
/// exhaustive comparison (only pairs whose aggregate lengths already rule
/// them out are skipped). Self-join pairs come back with a < b.
std::vector<tsj::TsjPair> OraclePairs(const WorkloadConfig& config,
                                      const Inputs& inputs,
                                      const OracleSlice& slice);

/// The join result restricted to the slice, sorted by (a, b).
std::vector<tsj::TsjPair> RestrictToSlice(
    const std::vector<tsj::TsjPair>& pairs, const OracleSlice& slice);

/// Share of the planted pairs present in `pairs`.
double PlantedRecall(const Inputs& inputs,
                     const std::vector<tsj::TsjPair>& pairs);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
