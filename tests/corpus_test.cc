#include "tokenized/corpus.h"

#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "tokenized/bounds.h"

namespace tsj {
namespace {

template <typename T>
std::vector<T> ToVector(std::span<const T> values) {
  return std::vector<T>(values.begin(), values.end());
}

TEST(CorpusTest, InternsDistinctTokensOnce) {
  Corpus corpus;
  const StringId a = corpus.AddString({"barak", "obama"});
  const StringId b = corpus.AddString({"obama", "michelle"});
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.num_distinct_tokens(), 3u);
  // "obama" resolves to the same TokenId in both strings.
  EXPECT_EQ(corpus.tokens(a)[1], corpus.tokens(b)[0]);
}

TEST(CorpusTest, PreservesMultisetOrderAndDuplicates) {
  Corpus corpus;
  const StringId id = corpus.AddString({"ana", "ana", "banana"});
  ASSERT_EQ(corpus.tokens(id).size(), 3u);
  EXPECT_EQ(corpus.tokens(id)[0], corpus.tokens(id)[1]);
  EXPECT_EQ(corpus.token_text(corpus.tokens(id)[2]), "banana");
}

TEST(CorpusTest, AggregateLengthAndHistogram) {
  Corpus corpus;
  const StringId id = corpus.AddString({"kalan", "ab", "chan"});
  EXPECT_EQ(corpus.aggregate_length(id), 11u);
  EXPECT_EQ(ToVector(corpus.length_histogram(id)),
            (std::vector<uint32_t>{2, 4, 5}));
}

TEST(CorpusTest, MaterializeRoundTrips) {
  Corpus corpus;
  const TokenizedString original = {"chan", "kalan"};
  const StringId id = corpus.AddString(original);
  EXPECT_EQ(corpus.Materialize(id), original);
}

TEST(CorpusTest, EmptyString) {
  Corpus corpus;
  const StringId id = corpus.AddString({});
  EXPECT_EQ(corpus.aggregate_length(id), 0u);
  EXPECT_TRUE(corpus.tokens(id).empty());
  EXPECT_TRUE(corpus.Materialize(id).empty());
}

TEST(CorpusTest, TokenStringFrequenciesCountStringsNotOccurrences) {
  Corpus corpus;
  corpus.AddString({"john", "john", "smith"});  // "john" twice in ONE string
  corpus.AddString({"john", "doe"});
  corpus.AddString({"mary", "smith"});
  const auto freq = corpus.ComputeTokenStringFrequencies();
  // Token ids are assigned in first-appearance order:
  // john=0, smith=1, doe=2, mary=3.
  EXPECT_EQ(freq[0], 2u);  // john: in 2 strings despite 3 occurrences
  EXPECT_EQ(freq[1], 2u);  // smith
  EXPECT_EQ(freq[2], 1u);  // doe
  EXPECT_EQ(freq[3], 1u);  // mary
}

TEST(CorpusTest, TokenLengthMatchesText) {
  Corpus corpus;
  const StringId id = corpus.AddString({"abc", "de"});
  EXPECT_EQ(corpus.token_length(corpus.tokens(id)[0]), 3u);
  EXPECT_EQ(corpus.token_length(corpus.tokens(id)[1]), 2u);
}

TEST(CorpusTest, ManyStringsStressInterning) {
  Corpus corpus;
  for (int i = 0; i < 1000; ++i) {
    corpus.AddString({"shared", "tok" + std::to_string(i % 10)});
  }
  EXPECT_EQ(corpus.size(), 1000u);
  EXPECT_EQ(corpus.num_distinct_tokens(), 11u);
  const auto freq = corpus.ComputeTokenStringFrequencies();
  EXPECT_EQ(freq[0], 1000u);  // "shared"
}

TEST(CorpusLayoutTest, EmptyStringsBetweenNonEmptyOnes) {
  // The token-id and histogram columns share one offsets array; an empty
  // string is a zero-width slot that must not shift its neighbours.
  const std::vector<TokenizedString> strings = {
      {"ab", "cde"}, {}, {"f"}, {}, {}, {"ghij", "ab", "k"}, {}};
  Corpus corpus;
  for (const TokenizedString& s : strings) corpus.AddString(s);
  ASSERT_EQ(corpus.size(), strings.size());
  for (StringId id = 0; id < strings.size(); ++id) {
    EXPECT_EQ(corpus.Materialize(id), strings[id]) << id;
    EXPECT_EQ(corpus.tokens(id).size(), strings[id].size()) << id;
    EXPECT_EQ(ToVector(corpus.length_histogram(id)),
              SortedTokenLengths(strings[id]))
        << id;
    EXPECT_EQ(corpus.aggregate_length(id), AggregateLength(strings[id]))
        << id;
  }
  EXPECT_TRUE(corpus.length_histogram(1).empty());
  EXPECT_TRUE(corpus.tokens(6).empty());
  EXPECT_EQ(corpus.tokens(0)[0], corpus.tokens(5)[1]);  // "ab" interned once
}

TEST(CorpusLayoutTest, RepeatedTokensKeepOneHistogramEntryPerOccurrence) {
  Corpus corpus;
  const StringId a = corpus.AddString({"xyz", "q", "xyz", "xyz"});
  const StringId b = corpus.AddString({"q", "q"});
  EXPECT_EQ(corpus.num_distinct_tokens(), 2u);
  EXPECT_EQ(ToVector(corpus.tokens(a)),
            (std::vector<TokenId>{0, 1, 0, 0}));
  EXPECT_EQ(ToVector(corpus.length_histogram(a)),
            (std::vector<uint32_t>{1, 3, 3, 3}));
  EXPECT_EQ(corpus.aggregate_length(a), 10u);
  EXPECT_EQ(ToVector(corpus.tokens(b)), (std::vector<TokenId>{1, 1}));
  EXPECT_EQ(ToVector(corpus.length_histogram(b)),
            (std::vector<uint32_t>{1, 1}));
  const auto freq = corpus.ComputeTokenStringFrequencies();
  EXPECT_EQ(freq, (std::vector<uint32_t>{1, 2}));
}

TEST(CorpusLayoutTest, MaterializeAndMaterializeIntoRoundTrip) {
  Rng rng(2718);
  std::vector<TokenizedString> strings;
  Corpus corpus;
  for (int i = 0; i < 300; ++i) {
    strings.push_back(testutil::RandomTokenizedString(&rng, 0, 5, 1, 7));
    corpus.AddString(strings.back());
  }
  // One scratch buffer reused across strings of every size, as the verify
  // loop does: stale tokens of a longer previous string must not leak.
  TokenizedString scratch;
  for (StringId id = 0; id < strings.size(); ++id) {
    EXPECT_EQ(corpus.Materialize(id), strings[id]) << id;
    corpus.MaterializeInto(id, &scratch);
    EXPECT_EQ(scratch, strings[id]) << id;
    EXPECT_EQ(ToVector(corpus.length_histogram(id)),
              SortedTokenLengths(strings[id]))
        << id;
    EXPECT_EQ(corpus.aggregate_length(id), AggregateLength(strings[id]))
        << id;
  }
}

TEST(CorpusLayoutTest, AggregateLengthOverloadEqualsSummingBound) {
  // The filter loops pass the aggregate lengths they already hold; the
  // result must equal the two-argument bound, which sums the histograms.
  Rng rng(1618);
  Corpus corpus;
  for (int i = 0; i < 400; ++i) {
    corpus.AddString(testutil::RandomTokenizedString(&rng, 0, 6, 1, 12));
  }
  for (int trial = 0; trial < 4000; ++trial) {
    const StringId x = static_cast<StringId>(rng.Uniform(corpus.size()));
    const StringId y = static_cast<StringId>(rng.Uniform(corpus.size()));
    const std::span<const uint32_t> hx = corpus.length_histogram(x);
    const std::span<const uint32_t> hy = corpus.length_histogram(y);
    const double summed = NsldLowerBoundFromHistograms(hx, hy);
    const double given = NsldLowerBoundFromHistograms(
        hx, hy, corpus.aggregate_length(x), corpus.aggregate_length(y));
    EXPECT_EQ(given, summed) << x << " vs " << y;
    EXPECT_EQ(given, NsldLowerBoundFromHistograms(ToVector(hx), ToVector(hy)))
        << x << " vs " << y;
  }
}

}  // namespace
}  // namespace tsj
