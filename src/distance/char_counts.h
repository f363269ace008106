// Character-count lower bound on Levenshtein distance.
//
// One edit changes a string's character multiset by at most two counts (a
// substitution takes one character away and adds another; an insertion or
// a deletion changes one count), so
//
//   LD(x, y) >= ceil(L1(count(x), count(y)) / 2).
//
// The counts here are 32 bins of saturating bytes: bin `c & 31` for byte
// c, capped at 255. Merging characters into one bin and capping a count
// can only shrink |count_x - count_y| in every bin, so the bound computed
// from the bins never exceeds the exact one, and stays a lower bound on
// LD. Lowercase ASCII letters land in distinct bins.
//
// MassJoin's pairing reducer (massjoin/mass_join.cc) uses it to skip the
// Myers kernel on pairs that cannot be within the Lemma 8 budget.

#ifndef TSJ_DISTANCE_CHAR_COUNTS_H_
#define TSJ_DISTANCE_CHAR_COUNTS_H_

#include <array>
#include <cstdint>
#include <string_view>

namespace tsj {

/// Saturating per-bin character counts of one string.
using CharCounts = std::array<uint8_t, 32>;

inline CharCounts CountChars(std::string_view s) {
  CharCounts counts{};
  for (const char c : s) {
    uint8_t& bin = counts[static_cast<unsigned char>(c) & 31];
    if (bin != 255) ++bin;
  }
  return counts;
}

/// ceil(L1(a, b) / 2): a lower bound on LD of the strings counted.
inline uint32_t CharCountLdLowerBound(const CharCounts& a,
                                      const CharCounts& b) {
  uint32_t l1 = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    l1 += a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
  }
  return (l1 + 1) / 2;
}

}  // namespace tsj

#endif  // TSJ_DISTANCE_CHAR_COUNTS_H_
