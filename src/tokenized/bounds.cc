#include "tokenized/bounds.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "tokenized/sld.h"

namespace tsj {

double NsldLowerBoundFromAggregateLengths(size_t len_x, size_t len_y) {
  if (len_x > len_y) std::swap(len_x, len_y);
  if (len_y == 0) return 0.0;
  // 1 - min/max as one correctly rounded quotient (max - min) / max. That
  // is bit for bit NsldFromSld(max - min, len_x, len_y), the NSLD the
  // verify stage computes for the cheapest pair these lengths allow, so a
  // pair whose computed NSLD meets a threshold is never pruned.
  // The two-step 1.0 - min / max rounds twice and can land one ulp above
  // it: lengths 2 and 3 give 0.33333333333333337, which exceeds 1.0 / 3,
  // the NSLD of "a b" vs "a bc".
  return static_cast<double>(len_y - len_x) / static_cast<double>(len_y);
}

double NsldUpperBoundFromAggregateLengths(size_t len_x, size_t len_y) {
  if (len_x > len_y) std::swap(len_x, len_y);
  if (len_y == 0) return 0.0;
  const double ratio = static_cast<double>(len_x) / static_cast<double>(len_y);
  return 2.0 / (ratio + 2.0);
}

int64_t SldLowerBoundFromHistograms(std::span<const uint32_t> lengths_x,
                                    std::span<const uint32_t> lengths_y) {
  // Both inputs are sorted ascending. Conceptually pad the shorter list
  // with zero-length entries; since the lists are sorted, the optimal
  // sorted pairing aligns the padded zeros with the *smallest* entries of
  // the longer list. Implemented without materializing the padding: the
  // first (larger - smaller) entries of the longer list pair with zeros
  // (costing their full length), and the tails pair elementwise.
  std::span<const uint32_t> shorter = lengths_x;
  std::span<const uint32_t> longer = lengths_y;
  if (shorter.size() > longer.size()) std::swap(shorter, longer);
  const size_t pad = longer.size() - shorter.size();
  int64_t bound = 0;
  for (size_t i = 0; i < pad; ++i) bound += longer[i];
  for (size_t i = 0; i < shorter.size(); ++i) {
    const int64_t a = shorter[i];
    const int64_t b = longer[pad + i];
    bound += std::abs(a - b);
  }
  return bound;
}

double NsldLowerBoundFromHistograms(std::span<const uint32_t> lengths_x,
                                    std::span<const uint32_t> lengths_y,
                                    size_t len_x, size_t len_y) {
  return NsldFromSld(SldLowerBoundFromHistograms(lengths_x, lengths_y), len_x,
                     len_y);
}

double NsldLowerBoundFromHistograms(std::span<const uint32_t> lengths_x,
                                    std::span<const uint32_t> lengths_y) {
  return NsldLowerBoundFromHistograms(
      lengths_x, lengths_y,
      std::accumulate(lengths_x.begin(), lengths_x.end(), size_t{0}),
      std::accumulate(lengths_y.begin(), lengths_y.end(), size_t{0}));
}

}  // namespace tsj
