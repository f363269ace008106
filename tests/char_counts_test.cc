// Property tests of the character-count lower bound on Levenshtein
// distance (distance/char_counts.h): it never exceeds the exact LD, also
// for bytes >= 0x80, for characters that share a bin, and for runs longer
// than a saturating count can hold.

#include "distance/char_counts.h"

#include <string>

#include "common/random.h"
#include "distance/levenshtein.h"
#include "gtest/gtest.h"

namespace tsj {
namespace {

// A random string whose bytes come from a small pool mixing lowercase
// letters, bin-sharing characters ('a' and 'A' and 'A' + 0x80 share bin 1)
// and high bytes, with an occasional long run of one byte.
std::string RandomBytes(Rng* rng) {
  static const unsigned char kPool[] = {'a', 'b', 'c', 'A', 'B', '!',
                                        0x81, 0xC1, 0xE2, 0xFF, 0x80, ' '};
  std::string s;
  const size_t pieces = static_cast<size_t>(rng->UniformInt(0, 6));
  for (size_t p = 0; p < pieces; ++p) {
    const char c = static_cast<char>(kPool[rng->Uniform(sizeof(kPool))]);
    const bool long_run = rng->Uniform(8) == 0;
    const size_t run = long_run ? static_cast<size_t>(rng->UniformInt(200, 700))
                                : static_cast<size_t>(rng->UniformInt(1, 4));
    s.append(run, c);
  }
  return s;
}

TEST(CharCountsTest, BoundNeverExceedsExactLd) {
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string x = RandomBytes(&rng);
    const std::string y = RandomBytes(&rng);
    EXPECT_LE(CharCountLdLowerBound(CountChars(x), CountChars(y)),
              Levenshtein(x, y))
        << "trial " << trial << " |x|=" << x.size() << " |y|=" << y.size();
  }
}

TEST(CharCountsTest, LongRunsSaturateWithoutOverstating) {
  // 300 vs 600 copies: both bins saturate at 255, so the bound drops to 0.
  EXPECT_EQ(CharCountLdLowerBound(CountChars(std::string(300, 'a')),
                                  CountChars(std::string(600, 'a'))),
            0u);
  // 300 vs 10 copies: 255 - 10 = 245 differing counts, bound 123 <= 290.
  const std::string many(300, '\xE2');
  const std::string few(10, '\xE2');
  const uint32_t bound =
      CharCountLdLowerBound(CountChars(many), CountChars(few));
  EXPECT_EQ(bound, 123u);
  EXPECT_LE(bound, Levenshtein(many, few));
}

TEST(CharCountsTest, DisjointLowercaseIsTightForSubstitutions) {
  // Lowercase letters get bins of their own: "abc" vs "xyz" needs three
  // substitutions, and the bound finds all three.
  EXPECT_EQ(CharCountLdLowerBound(CountChars("abc"), CountChars("xyz")), 3u);
  // A bin shared by 'a' and 'A' hides that substitution.
  EXPECT_EQ(CharCountLdLowerBound(CountChars("abc"), CountChars("Abc")), 0u);
  // Odd L1 rounds up: one insertion.
  EXPECT_EQ(CharCountLdLowerBound(CountChars("abc"), CountChars("abcd")), 1u);
}

}  // namespace
}  // namespace tsj
