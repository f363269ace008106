// The Lemma 6 length filter at its exact boundary. Corpora whose aggregate
// lengths sit exactly on 1 - min/max = T (9 vs 10 at T = 0.1, 4 vs 5 at
// T = 0.2, 2 vs 3 at T = 1/3), with runs of equal lengths and duplicate
// strings, must join byte-identically to the brute-force NSLD oracle in
// every engine configuration: SelfJoin and Join x both dedup strategies x
// streaming and legacy shuffle. The filter runs where candidates are
// emitted, so a pair it wrongly prunes never reaches verification and
// shows up here as a missing pair.

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "eval/join_metrics.h"
#include "gtest/gtest.h"
#include "tokenized/bounds.h"
#include "tokenized/corpus.h"
#include "tokenized/sld.h"
#include "tsj/tsj.h"

namespace tsj {
namespace {

using Triple = std::tuple<uint32_t, uint32_t, double>;

std::vector<Triple> Sorted(const std::vector<TsjPair>& pairs) {
  std::vector<Triple> out;
  out.reserve(pairs.size());
  for (const TsjPair& p : pairs) out.emplace_back(p.a, p.b, p.nsld);
  std::sort(out.begin(), out.end());
  return out;
}

// The R x P brute-force oracle, keeping each pair's NSLD.
std::vector<Triple> BruteForceJoin(const Corpus& r, const Corpus& p,
                                   double t) {
  std::vector<Triple> expected;
  for (uint32_t i = 0; i < r.size(); ++i) {
    for (uint32_t j = 0; j < p.size(); ++j) {
      const double nsld = Nsld(r.Materialize(i), p.Materialize(j));
      if (nsld <= t) expected.emplace_back(i, j, nsld);
    }
  }
  std::sort(expected.begin(), expected.end());
  return expected;
}

struct BoundaryCase {
  double threshold;
  size_t short_length;
  size_t long_length;
};

// Strings of aggregate length `short_length`, `long_length` and their
// neighbours, built so that the boundary pairs are found both through a
// shared token and through a similar token only. Equal-length strings
// repeat and interleave, so id order and length order disagree.
std::vector<TokenizedString> BoundaryStrings(const BoundaryCase& c) {
  const std::string letters = "abcdefghijklm";
  const std::string other = "nopqrstuvwxyz";
  const size_t s = c.short_length;
  const size_t d = c.long_length - c.short_length;
  const size_t h = std::max<size_t>(1, s / 2);
  const std::string head = letters.substr(0, h);
  const std::string tail = letters.substr(h, s - h);
  const std::string longer_tail = letters.substr(h, s - h + d);
  std::string reversed_tail = tail;
  std::reverse(reversed_tail.begin(), reversed_tail.end());
  const std::string lone = other.substr(0, s);
  const std::string longer_lone = other.substr(0, s + d);

  const TokenizedString shorter = {head, tail};
  const TokenizedString longer = {head, longer_tail};
  std::vector<TokenizedString> strings;
  for (int copy = 0; copy < 3; ++copy) {
    strings.push_back(longer);
    strings.push_back(shorter);
  }
  strings.push_back({head, reversed_tail});          // equal length
  strings.push_back({head, longer_tail + "z"});      // one past long
  strings.push_back({head});                         // far too short
  if (tail.size() > 1) strings.push_back({head, tail.substr(1)});
  strings.push_back({lone});                         // similar token only
  strings.push_back({longer_lone});
  strings.push_back({lone});
  return strings;
}

Corpus MakeCorpus(const std::vector<TokenizedString>& strings) {
  Corpus corpus;
  for (const TokenizedString& s : strings) corpus.AddString(s);
  return corpus;
}

TsjOptions Options(double t, DedupStrategy dedup, bool streaming) {
  TsjOptions options;
  options.threshold = t;
  options.max_token_frequency = 1u << 30;
  options.dedup = dedup;
  options.enable_streaming_shuffle = streaming;
  return options;
}

std::string Context(const BoundaryCase& c, DedupStrategy dedup,
                    bool streaming) {
  return "T=" + std::to_string(c.threshold) + " " +
         std::to_string(c.short_length) + "/" +
         std::to_string(c.long_length) +
         (dedup == DedupStrategy::kGroupOnOneString ? " one" : " both") +
         (streaming ? " streaming" : " legacy");
}

class LengthBoundaryTest : public ::testing::TestWithParam<BoundaryCase> {};

TEST_P(LengthBoundaryTest, BoundaryPairsSitOnTheThreshold) {
  // Guards the corpora: the boundary pairs' NSLD and length bound both
  // equal T exactly, and the oracle joins them.
  const BoundaryCase c = GetParam();
  EXPECT_EQ(NsldLowerBoundFromAggregateLengths(c.short_length,
                                               c.long_length),
            c.threshold);
  const Corpus corpus = MakeCorpus(BoundaryStrings(c));
  const auto oracle = BruteForceNsldSelfJoin(corpus, c.threshold);
  const auto on_boundary =
      std::count_if(oracle.begin(), oracle.end(), [&](const TsjPair& p) {
        return p.nsld == c.threshold;
      });
  EXPECT_GE(on_boundary, 10);
}

TEST_P(LengthBoundaryTest, SelfJoinMatchesOracle) {
  const BoundaryCase c = GetParam();
  const Corpus corpus = MakeCorpus(BoundaryStrings(c));
  const auto expected = Sorted(BruteForceNsldSelfJoin(corpus, c.threshold));
  for (DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                              DedupStrategy::kGroupOnBothStrings}) {
    for (bool streaming : {true, false}) {
      TsjRunInfo info;
      const auto result =
          TokenizedStringJoiner(Options(c.threshold, dedup, streaming))
              .SelfJoin(corpus, &info);
      ASSERT_TRUE(result.ok()) << Context(c, dedup, streaming);
      EXPECT_EQ(Sorted(*result), expected) << Context(c, dedup, streaming);
      EXPECT_GT(info.length_filtered, 0u) << Context(c, dedup, streaming);
    }
  }
}

TEST_P(LengthBoundaryTest, JoinMatchesOracle) {
  const BoundaryCase c = GetParam();
  std::vector<TokenizedString> strings = BoundaryStrings(c);
  const Corpus r = MakeCorpus(strings);
  std::reverse(strings.begin(), strings.end());
  const Corpus p = MakeCorpus(strings);
  const auto expected = BruteForceJoin(r, p, c.threshold);
  for (DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                              DedupStrategy::kGroupOnBothStrings}) {
    for (bool streaming : {true, false}) {
      TsjRunInfo info;
      const auto result =
          TokenizedStringJoiner(Options(c.threshold, dedup, streaming))
              .Join(r, p, &info);
      ASSERT_TRUE(result.ok()) << Context(c, dedup, streaming);
      EXPECT_EQ(Sorted(*result), expected) << Context(c, dedup, streaming);
      EXPECT_GT(info.length_filtered, 0u) << Context(c, dedup, streaming);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, LengthBoundaryTest,
    ::testing::Values(BoundaryCase{0.1, 9, 10}, BoundaryCase{0.2, 4, 5},
                      BoundaryCase{1.0 / 3.0, 2, 3}));

}  // namespace
}  // namespace tsj
