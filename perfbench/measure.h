// Arithmetic of the benchmark: sample statistics, derived ratios, the
// result digest and the job-role naming. Kept apart from bench.cc so
// perfbench_selftest can check it without running a join.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tsj/tsj.h"

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty sample.
double Median(std::vector<double> values);

/// The highest whole percentile p (0..99) that still has at least
/// `min_beyond` samples strictly above its rank, with its value: the
/// nearest-rank value at p. With n samples, p = floor(100 * (n -
/// min_beyond) / n), so p = 0 means the sample is too small to say
/// anything about the tail and nothing is returned.
struct Percentile {
  int percentile = 0;
  double value = 0;
};
std::optional<Percentile> TailPercentile(std::vector<double> values,
                                         size_t min_beyond = 10);

/// Share of the pool's capacity that the calls kept busy: CPU seconds
/// over wall seconds times workers. 0 when wall or workers is 0.
double BusyRatio(double cpu_s, double wall_s, size_t workers);

/// Share of a join's wall that its MapReduce job phases account for.
double LayerCoverage(double phase_sum_s, double wall_s);

/// Orders pairs by (a, b).
bool PairLess(const tsj::TsjPair& x, const tsj::TsjPair& y);

/// Order-independent 64-bit digest of a pair list: pairs are sorted by
/// (a, b) and every a, b and the bit pattern of every NSLD value are
/// folded in, so two lists digest equal exactly when they hold the same
/// pairs with bit-identical values.
uint64_t PairDigest(std::vector<tsj::TsjPair> pairs);

/// Role of a pipeline job, shared by the self-join and the R/P join:
/// "tsj-rp-dedup-verify-one" and "tsj-dedup-verify-both" are both
/// "dedup-verify", "tsj-shared-token" is "shared-token". Names outside
/// the TSJ pipeline come back unchanged.
std::string JobRole(const std::string& job_name);

/// The roles whose phase walls are reported as per-layer metrics.
const std::vector<std::string>& ReportedRoles();

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
