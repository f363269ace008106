// Lower bounds on SLD / NSLD used by TSJ's candidate filters (Sec. III-E).
//
// Two filters are supported:
//  * Length filter (Lemma 6): from the aggregate token lengths alone,
//    NSLD(x, y) >= 1 - L(x)/L(y) for L(x) <= L(y).
//  * Histogram filter (Sec. III-E.2): from the token-length histograms.
//    For any token pair LD(a, b) >= ||a| - |b||, so the minimum-weight
//    matching of the two *length* multisets (padded with zero-length entries)
//    lower-bounds the minimum-weight matching of the true token bigraph,
//    i.e. lower-bounds SLD. The optimal matching of two length multisets
//    under |a - b| cost pairs them in sorted order (no-crossing exchange
//    argument), so the bound is computable in O(k log k).
//    The paper defers its exact histogram-pruning algorithm to an extended
//    version; this is a provably correct instance of the same idea and can
//    only prune true negatives (see DESIGN.md).

#ifndef TSJ_TOKENIZED_BOUNDS_H_
#define TSJ_TOKENIZED_BOUNDS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tokenized/tokenized_string.h"

namespace tsj {

/// Lemma 6 lower bound on NSLD given the two aggregate token lengths
/// (order-insensitive): 1 - min(L)/max(L), rounded exactly as
/// NsldFromSld(max(L) - min(L), ...) so comparing it with a threshold never
/// prunes a pair that verification would join.
double NsldLowerBoundFromAggregateLengths(size_t len_x, size_t len_y);

/// Lemma 6 upper bound on NSLD *as stated in the paper*: 2 / (min/max + 2).
///
/// CAUTION — paper erratum: unlike the NLD case (Lemma 3), this upper bound
/// does not hold for all tokenized strings. The Lemma 6 proof assumes
/// SLD <= L(y), but SLD can exceed L(y) when token counts differ, because
/// set-level edits cannot merge tokens: x = {"aaa"},
/// y = {"b","b","b","b","b","b"} has SLD = 8 > L(y) = 6 and
/// NSLD = 16/17 > 2/(1/2+2) = 0.8. TSJ only ever prunes with the *lower*
/// bound, which is sound, so the join is unaffected; this function is
/// provided for completeness and documented fidelity to the paper. See
/// DESIGN.md ("Paper errata") and tokenized_bounds_test.cc for the
/// counterexample regression.
double NsldUpperBoundFromAggregateLengths(size_t len_x, size_t len_y);

/// Lower bound on SLD(x, y) from the sorted token-length histograms of the
/// two strings (Corpus::length_histogram, or SortedTokenLengths). Never
/// exceeds the true SLD.
int64_t SldLowerBoundFromHistograms(std::span<const uint32_t> lengths_x,
                                    std::span<const uint32_t> lengths_y);

/// Lower bound on NSLD from the histograms plus the aggregate lengths
/// len_x = L(x) and len_y = L(y), which must equal the sums of the
/// respective histograms (Corpus::aggregate_length already holds them, so
/// the filter loops pay no re-summing). NSLD is monotone in SLD for fixed
/// lengths, so plugging the SLD lower bound into Def. 4 yields a valid
/// NSLD lower bound: NsldFromSld(SldLowerBoundFromHistograms(...), len_x,
/// len_y).
double NsldLowerBoundFromHistograms(std::span<const uint32_t> lengths_x,
                                    std::span<const uint32_t> lengths_y,
                                    size_t len_x, size_t len_y);

/// The same bound with the aggregate lengths summed from the histograms.
double NsldLowerBoundFromHistograms(std::span<const uint32_t> lengths_x,
                                    std::span<const uint32_t> lengths_y);

/// Vector forms of the two histogram bounds, for callers holding braced
/// lists or SortedTokenLengths results.
inline int64_t SldLowerBoundFromHistograms(
    const std::vector<uint32_t>& lengths_x,
    const std::vector<uint32_t>& lengths_y) {
  return SldLowerBoundFromHistograms(std::span<const uint32_t>(lengths_x),
                                     std::span<const uint32_t>(lengths_y));
}
inline double NsldLowerBoundFromHistograms(
    const std::vector<uint32_t>& lengths_x,
    const std::vector<uint32_t>& lengths_y) {
  return NsldLowerBoundFromHistograms(std::span<const uint32_t>(lengths_x),
                                      std::span<const uint32_t>(lengths_y));
}

}  // namespace tsj

#endif  // TSJ_TOKENIZED_BOUNDS_H_
