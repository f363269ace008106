// The Lemma 6 length filter at its exact boundary, and the verify kernel on
// the token shapes that stress it. Corpora whose aggregate lengths sit
// exactly on 1 - min/max = T (9 vs 10 at T = 0.1, 4 vs 5 at T = 0.2, 2 vs 3
// at T = 1/3), with runs of equal lengths and duplicate strings, must join
// byte-identically to the brute-force NSLD oracle in every engine
// configuration: SelfJoin (token-id and materialized verify) and Join x
// both dedup strategies x streaming and legacy shuffle. The filter runs
// where candidates are emitted, so a pair it wrongly prunes never reaches
// verification and shows up here as a missing pair. Two more corpora run
// through the same sweep: tokens of 65-130 characters, which take the
// blocked (multi-word) Myers path, and a small vocabulary repeated across
// many candidates, so the same token pairs are verified over and over.

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "eval/join_metrics.h"
#include "gtest/gtest.h"
#include "test_util.h"
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

// Near-duplicate strings built around tokens of 65-130 characters: each
// family is one or two long tokens plus an anchor token, and its variants
// carry 1-25 character edits in one long token, so some pairs join and
// some miss at every threshold of the sweep. Every pair of a family shares
// its anchor, so exact-token matching generates every joining pair.
std::vector<TokenizedString> LongTokenStrings(Rng* rng) {
  std::vector<TokenizedString> strings;
  for (int family = 0; family < 8; ++family) {
    TokenizedString base =
        testutil::RandomTokenizedString(rng, 1, 2, 65, 130);
    const size_t long_tokens = base.size();
    base.push_back("anchor" + std::to_string(family));
    strings.push_back(base);
    for (int copy = 0; copy < 3; ++copy) {
      TokenizedString variant = base;
      std::string& token = variant[rng->Uniform(long_tokens)];
      for (int64_t e = rng->UniformInt(1, 25); e > 0; --e) {
        token = testutil::RandomEdit(rng, token);
      }
      strings.push_back(variant);
    }
  }
  return strings;
}

// Strings of 2-4 tokens drawn from a vocabulary of 6 short tokens and two
// one-edit variants of each: almost every candidate pair repeats token
// pairs that other candidates also verify.
std::vector<TokenizedString> RepeatedTokenStrings(Rng* rng) {
  std::vector<std::string> vocabulary;
  for (int i = 0; i < 6; ++i) {
    const std::string token = testutil::RandomString(rng, 3, 8);
    vocabulary.push_back(token);
    vocabulary.push_back(testutil::RandomEdit(rng, token));
    vocabulary.push_back(testutil::RandomEdit(rng, token));
  }
  std::vector<TokenizedString> strings;
  for (int i = 0; i < 40; ++i) {
    TokenizedString tokens;
    for (int64_t n = rng->UniformInt(2, 4); n > 0; --n) {
      tokens.push_back(vocabulary[rng->Uniform(vocabulary.size())]);
    }
    strings.push_back(tokens);
  }
  return strings;
}

struct NamedCorpus {
  std::string name;
  std::vector<TokenizedString> strings;
  TokenMatching matching;
};

// The boundary corpus of `c` plus the two kernel-stressing corpora. The
// long-token corpus runs exact-token matching: fuzzy matching would add a
// MassJoin over its 65-130-character tokens, close to 10^6 signature
// records per join at T = 1/3, which the spill-forced test legs (a
// 16-record budget) turn into about 5*10^5 spill files and a minute per
// join. MassJoinTest.MatchesBruteForceOnLongAndPeriodicTokens covers that
// join.
std::vector<NamedCorpus> Corpora(const BoundaryCase& c) {
  Rng rng(7000 + c.long_length);
  std::vector<NamedCorpus> corpora;
  corpora.push_back({"boundary", BoundaryStrings(c), TokenMatching::kFuzzy});
  corpora.push_back(
      {"long-tokens", LongTokenStrings(&rng), TokenMatching::kExact});
  corpora.push_back({"repeated-tokens", RepeatedTokenStrings(&rng),
                     TokenMatching::kFuzzy});
  return corpora;
}

Corpus MakeCorpus(const std::vector<TokenizedString>& strings) {
  Corpus corpus;
  for (const TokenizedString& s : strings) corpus.AddString(s);
  return corpus;
}

TsjOptions Options(double t, DedupStrategy dedup, bool streaming,
                   TokenMatching matching = TokenMatching::kFuzzy,
                   bool token_ids = true) {
  TsjOptions options;
  options.threshold = t;
  options.max_token_frequency = 1u << 30;
  options.dedup = dedup;
  options.enable_streaming_shuffle = streaming;
  options.matching = matching;
  options.enable_token_id_verify = token_ids;
  return options;
}

std::string Context(const BoundaryCase& c, const std::string& corpus,
                    DedupStrategy dedup, bool streaming,
                    bool token_ids = true) {
  return "T=" + std::to_string(c.threshold) + " " +
         std::to_string(c.short_length) + "/" +
         std::to_string(c.long_length) + " " + corpus +
         (dedup == DedupStrategy::kGroupOnOneString ? " one" : " both") +
         (streaming ? " streaming" : " legacy") +
         (token_ids ? "" : " materialized");
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
  for (const auto& [name, strings, matching] : Corpora(c)) {
    const Corpus corpus = MakeCorpus(strings);
    const auto expected =
        Sorted(BruteForceNsldSelfJoin(corpus, c.threshold));
    EXPECT_FALSE(expected.empty()) << name;
    for (DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                DedupStrategy::kGroupOnBothStrings}) {
      for (bool streaming : {true, false}) {
        for (bool token_ids : {true, false}) {
          const std::string context =
              Context(c, name, dedup, streaming, token_ids);
          TsjRunInfo info;
          const auto result =
              TokenizedStringJoiner(Options(c.threshold, dedup, streaming,
                                            matching, token_ids))
                  .SelfJoin(corpus, &info);
          ASSERT_TRUE(result.ok()) << context;
          EXPECT_EQ(Sorted(*result), expected) << context;
          if (name == "boundary") {
            EXPECT_GT(info.length_filtered, 0u) << context;
          }
        }
      }
    }
  }
}

TEST_P(LengthBoundaryTest, JoinMatchesOracle) {
  const BoundaryCase c = GetParam();
  for (auto [name, strings, matching] : Corpora(c)) {
    const Corpus r = MakeCorpus(strings);
    std::reverse(strings.begin(), strings.end());
    const Corpus p = MakeCorpus(strings);
    const auto expected = BruteForceJoin(r, p, c.threshold);
    EXPECT_FALSE(expected.empty()) << name;
    for (DedupStrategy dedup : {DedupStrategy::kGroupOnOneString,
                                DedupStrategy::kGroupOnBothStrings}) {
      for (bool streaming : {true, false}) {
        const std::string context = Context(c, name, dedup, streaming);
        TsjRunInfo info;
        const auto result =
            TokenizedStringJoiner(
                Options(c.threshold, dedup, streaming, matching))
                .Join(r, p, &info);
        ASSERT_TRUE(result.ok()) << context;
        EXPECT_EQ(Sorted(*result), expected) << context;
        if (name == "boundary") {
          EXPECT_GT(info.length_filtered, 0u) << context;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, LengthBoundaryTest,
    ::testing::Values(BoundaryCase{0.1, 9, 10}, BoundaryCase{0.2, 4, 5},
                      BoundaryCase{1.0 / 3.0, 2, 3}));

}  // namespace
}  // namespace tsj
