#include "replay.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <vector>

#include "assignment/hungarian.h"
#include "common/stopwatch.h"
#include "distance/myers.h"
#include "massjoin/mass_join.h"
#include "tokenized/bounds.h"
#include "tokenized/sld.h"
#include "tokenized/token_pair_cache.h"

namespace perfbench {
namespace {

constexpr uint32_t kMaxTokenFrequency = 1000;  // M of every workload
constexpr size_t kSampledStrings = 400;
constexpr size_t kCandidatesPerString = 64;
// Cheap replays repeat until they have run this long, so that clock
// resolution does not show in the per-call figures.
constexpr double kMinReplaySeconds = 0.02;

struct Candidate {
  uint32_t x = 0;  // id in R (the corpus, for a self-join)
  uint32_t y = 0;  // id in P (the corpus, for a self-join)
};

// Keeps at most kCandidatesPerString of the sorted, distinct `ids`,
// evenly spaced.
void AppendSample(uint32_t x, std::vector<uint32_t>* ids,
                  std::vector<Candidate>* out) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  const size_t step = std::max<size_t>(1, ids->size() / kCandidatesPerString);
  for (size_t i = 0; i < ids->size(); i += step) {
    out->push_back(Candidate{x, (*ids)[i]});
  }
}

// Shared-token candidates of every k-th string of a self-join corpus,
// ignoring tokens held by more than M strings.
std::vector<Candidate> SelfSample(const tsj::Corpus& corpus) {
  const std::vector<uint32_t> df = corpus.ComputeTokenStringFrequencies();
  std::vector<std::vector<uint32_t>> postings(df.size());
  for (uint32_t s = 0; s < corpus.size(); ++s) {
    for (tsj::TokenId t : corpus.tokens(s)) {
      if (df[t] <= kMaxTokenFrequency &&
          (postings[t].empty() || postings[t].back() != s)) {
        postings[t].push_back(s);
      }
    }
  }
  std::vector<Candidate> sample;
  const size_t k = std::max<size_t>(1, corpus.size() / kSampledStrings);
  std::vector<uint32_t> ids;
  for (uint32_t s = 0; s < corpus.size(); s += k) {
    ids.clear();
    for (tsj::TokenId t : corpus.tokens(s)) {
      for (uint32_t other : postings[t]) {
        if (other != s) ids.push_back(other);
      }
    }
    AppendSample(s, &ids, &sample);
  }
  return sample;
}

// Shared-token (R, P) candidates of every k-th P string, with M applied
// to a token's string count across both corpora.
std::vector<Candidate> CrossSample(const tsj::Corpus& r,
                                   const tsj::Corpus& p) {
  std::unordered_map<std::string, uint32_t> df;
  for (const tsj::Corpus* corpus : {&r, &p}) {
    const std::vector<uint32_t> counts =
        corpus->ComputeTokenStringFrequencies();
    for (tsj::TokenId t = 0; t < counts.size(); ++t) {
      df[corpus->token_text(t)] += counts[t];
    }
  }
  std::unordered_map<std::string, std::vector<uint32_t>> r_postings;
  for (uint32_t s = 0; s < r.size(); ++s) {
    for (tsj::TokenId t : r.tokens(s)) {
      const std::string& text = r.token_text(t);
      if (df[text] > kMaxTokenFrequency) continue;
      std::vector<uint32_t>& list = r_postings[text];
      if (list.empty() || list.back() != s) list.push_back(s);
    }
  }
  std::vector<Candidate> sample;
  const size_t k = std::max<size_t>(1, p.size() / kSampledStrings);
  std::vector<uint32_t> ids;
  for (uint32_t s = 0; s < p.size(); s += k) {
    ids.clear();
    for (tsj::TokenId t : p.tokens(s)) {
      const auto it = r_postings.find(p.token_text(t));
      if (it != r_postings.end()) {
        ids.insert(ids.end(), it->second.begin(), it->second.end());
      }
    }
    // AppendSample keys candidates by their first id; swap to (R, P).
    std::vector<Candidate> by_p;
    AppendSample(s, &ids, &by_p);
    for (const Candidate& c : by_p) sample.push_back(Candidate{c.y, c.x});
  }
  return sample;
}

// Distinct token texts held by at most M strings (across both corpora for
// a cross join): the token space the MassJoin pass joins.
std::vector<std::string> JoinableTokens(const tsj::Corpus& r,
                                        const tsj::Corpus* p) {
  std::unordered_map<std::string, uint32_t> df;
  for (const tsj::Corpus* corpus : {&r, p}) {
    if (corpus == nullptr) continue;
    const std::vector<uint32_t> counts =
        corpus->ComputeTokenStringFrequencies();
    for (tsj::TokenId t = 0; t < counts.size(); ++t) {
      df[corpus->token_text(t)] += counts[t];
    }
  }
  std::vector<std::string> tokens;
  for (const auto& [text, count] : df) {
    if (count <= kMaxTokenFrequency) tokens.push_back(text);
  }
  std::sort(tokens.begin(), tokens.end());
  return tokens;
}

}  // namespace

ReplayResult RunReplays(const WorkloadConfig& config, const Inputs& inputs,
                        const tsj::Corpus& r, const tsj::Corpus& p,
                        TraceRecorder* trace) {
  ReplayResult result;
  const tsj::Corpus& y_corpus = config.cross ? p : r;
  const auto& y_names = config.cross ? inputs.p_names : inputs.r_names;
  const std::vector<Candidate> sample =
      config.cross ? CrossSample(r, p) : SelfSample(r);
  result.candidates = sample.size();
  const double t = config.threshold;

  // tokenized/bounds: the Lemma 6 length bound, then the histogram bound.
  std::vector<Candidate> survivors;
  {
    const double start = trace->Now();
    uint64_t passes = 0;
    tsj::Stopwatch watch;
    do {
      survivors.clear();
      for (const Candidate& c : sample) {
        const size_t lx = r.aggregate_length(c.x);
        const size_t ly = y_corpus.aggregate_length(c.y);
        if (tsj::NsldLowerBoundFromAggregateLengths(lx, ly) > t) continue;
        if (tsj::NsldLowerBoundFromHistograms(r.length_histogram(c.x),
                                              y_corpus.length_histogram(
                                                  c.y)) > t) {
          continue;
        }
        survivors.push_back(c);
      }
      ++passes;
    } while (watch.ElapsedSeconds() < kMinReplaySeconds && !sample.empty());
    const double seconds = watch.ElapsedSeconds();
    trace->Add("replay.bounds", "tokenized", start, trace->Now());
    if (!sample.empty()) {
      result.bounds_ns_per_candidate =
          seconds * 1e9 / static_cast<double>(passes * sample.size());
    }
  }
  result.survivors = survivors.size();

  auto budget_of = [&](const Candidate& c) {
    return tsj::SldBudgetFromThreshold(t, r.aggregate_length(c.x),
                                       y_corpus.aggregate_length(c.y));
  };

  // tokenized/sld: budgeted verify. The self-join replays the token-id
  // overload with its own TokenPairCache; the cross join replays the byte
  // overload, which the Join pipeline uses across corpora.
  {
    tsj::SldVerifyScratch scratch;
    tsj::TokenPairCache cache;
    const double start = trace->Now();
    tsj::Stopwatch watch;
    for (const Candidate& c : survivors) {
      const int64_t budget = budget_of(c);
      (void)(config.cross
              ? tsj::BoundedSld(inputs.r_names[c.x], y_names[c.y], budget,
                                tsj::TokenAligning::kExact, &scratch)
              : tsj::BoundedSld(r, std::span<const tsj::TokenId>(
                                       r.tokens(c.x)),
                                std::span<const tsj::TokenId>(r.tokens(c.y)),
                                budget, tsj::TokenAligning::kExact, &scratch,
                                &cache));
    }
    const double seconds = watch.ElapsedSeconds();
    trace->Add("replay.verify", "tokenized", start, trace->Now());
    if (!survivors.empty()) {
      result.verify_ns_per_pair =
          seconds * 1e9 / static_cast<double>(survivors.size());
    }
  }

  // distance: the bounded Myers kernel on every token pair of every
  // surviving bigraph, capped at the pair's SLD budget.
  {
    const double start = trace->Now();
    uint64_t passes = 0;
    tsj::Stopwatch watch;
    do {
      result.edges = 0;
      for (const Candidate& c : survivors) {
        const uint32_t cap =
            static_cast<uint32_t>(std::max<int64_t>(0, budget_of(c)));
        for (const std::string& a : inputs.r_names[c.x]) {
          for (const std::string& b : y_names[c.y]) {
            (void)tsj::MyersBoundedLevenshtein(a, b, cap);
            ++result.edges;
          }
        }
      }
      ++passes;
    } while (watch.ElapsedSeconds() < kMinReplaySeconds && result.edges > 0);
    const double seconds = watch.ElapsedSeconds();
    trace->Add("replay.distance", "distance", start, trace->Now());
    if (result.edges > 0) {
      result.distance_ns_per_edge =
          seconds * 1e9 / static_cast<double>(passes * result.edges);
    }
  }

  // assignment: the exact solver on each survivor's padded bigraph, built
  // as sld.cc builds it; its cost must equal the library's exact SLD.
  {
    std::vector<std::vector<int64_t>> matrices;
    std::vector<size_t> sizes;
    std::vector<const Candidate*> owners;
    for (const Candidate& c : survivors) {
      const tsj::TokenizedString& x = inputs.r_names[c.x];
      const tsj::TokenizedString& y = y_names[c.y];
      const size_t k = std::max(x.size(), y.size());
      if (k < 2) continue;
      std::vector<int64_t> costs(k * k, 0);
      for (size_t i = 0; i < k; ++i) {
        for (size_t j = 0; j < k; ++j) {
          int64_t cost = 0;
          if (i < x.size() && j < y.size()) {
            cost = tsj::MyersLevenshtein(x[i], y[j]);
          } else if (i < x.size()) {
            cost = static_cast<int64_t>(x[i].size());
          } else if (j < y.size()) {
            cost = static_cast<int64_t>(y[j].size());
          }
          costs[i * k + j] = cost;
        }
      }
      matrices.push_back(std::move(costs));
      sizes.push_back(k);
      owners.push_back(&c);
    }
    std::vector<int64_t> totals(matrices.size(), 0);
    const double start = trace->Now();
    uint64_t passes = 0;
    tsj::Stopwatch watch;
    do {
      for (size_t i = 0; i < matrices.size(); ++i) {
        totals[i] = tsj::SolveAssignment(matrices[i], sizes[i]).total_cost;
      }
      ++passes;
    } while (watch.ElapsedSeconds() < kMinReplaySeconds && !matrices.empty());
    const double seconds = watch.ElapsedSeconds();
    trace->Add("replay.assignment", "assignment", start, trace->Now());
    result.solves = matrices.size();
    if (!matrices.empty()) {
      result.assignment_ns_per_solve =
          seconds * 1e9 / static_cast<double>(passes * matrices.size());
    }
    for (size_t i = 0; i < owners.size() && result.error.empty(); ++i) {
      const Candidate& c = *owners[i];
      if (totals[i] != tsj::Sld(inputs.r_names[c.x], y_names[c.y])) {
        result.error = "assignment replay disagrees with Sld";
      }
    }
  }

  // massjoin: the token-space NLD join over the joinable tokens.
  {
    tsj::MassJoinOptions options;
    options.mapreduce.num_workers = config.workers;
    const std::vector<std::string> tokens =
        JoinableTokens(r, config.cross ? &p : nullptr);
    const double start = trace->Now();
    tsj::Stopwatch watch;
    auto pairs = tsj::RunMassJoinSelfNld(tokens, t, options);
    result.massjoin_replay_s = watch.ElapsedSeconds();
    trace->Add("replay.massjoin", "massjoin", start, trace->Now());
    if (!pairs.ok()) {
      result.error = "massjoin replay failed: " + pairs.status().ToString();
    } else {
      result.massjoin_pairs = pairs->size();
    }
  }
  return result;
}

}  // namespace perfbench
