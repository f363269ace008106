#include "workloads.h"

#include <algorithm>
#include <unordered_set>

#include "common/random.h"
#include "measure.h"
#include "tokenized/sld.h"
#include "workload/name_generator.h"
#include "workload/perturb.h"
#include "workload/ring_workload.h"

namespace perfbench {
namespace {

// SplitMix64 step: derives independent generator seeds from --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const std::vector<WorkloadConfig>& Configs() {
  static const std::vector<WorkloadConfig> configs = [] {
    WorkloadConfig ring;
    ring.name = "ring";
    ring.accounts = 40000;
    WorkloadConfig spill;
    spill.name = "ring-spill";
    spill.accounts = 10000;
    spill.workers = 2;
    spill.spill_budget_records = 350000;
    WorkloadConfig rp;
    rp.name = "rp-tokens";
    rp.cross = true;
    rp.threshold = 0.2;
    return std::vector<WorkloadConfig>{ring, spill, rp};
  }();
  return configs;
}

// The repository's default account workload, bench::DefaultWorkload in
// bench/bench_common.h with its seed, pinned here so the benchmark's
// inputs change only when this file does.
tsj::RingWorkloadOptions DefaultRingOptions(size_t num_accounts) {
  tsj::RingWorkloadOptions options;
  options.num_accounts = num_accounts;
  options.num_rings = num_accounts / 150;
  options.min_ring_size = 3;
  options.max_ring_size = 8;
  options.names.vocabulary_size = std::max<size_t>(500, num_accounts / 5);
  options.names.zipf_skew = 0.9;
  options.names.min_tokens = 1;
  options.names.max_tokens = 4;
  options.names.min_syllables = 1;
  options.names.max_syllables = 4;
  options.seed = 20190321;
  return options;
}

// The ring population is the default workload itself, and --seed decides
// the order of its accounts, which moves the map-task splits and the
// per-string reduce groups. Drawing a new population per seed would make
// the seed, not the program, set the cost: the join's work is dominated by
// the few hottest tokens kept under M, and at 40k accounts the eighth
// hottest token's string count lands on either side of M=1000 from one
// population to the next (929-1050 over eight seeds), moving the distinct
// candidates by about 10%.
Inputs GenerateRing(size_t num_accounts, uint64_t seed) {
  tsj::RingWorkload ring =
      tsj::GenerateRingWorkload(DefaultRingOptions(num_accounts));
  // Fisher-Yates with SplitMix64 draws, so the order does not depend on
  // the standard library's shuffle.
  std::vector<uint32_t> new_id(ring.names.size());
  for (uint32_t i = 0; i < new_id.size(); ++i) new_id[i] = i;
  for (size_t i = new_id.size(); i > 1; --i) {
    std::swap(new_id[i - 1], new_id[DeriveSeed(seed, i) % i]);
  }
  Inputs inputs;
  inputs.r_names.resize(ring.names.size());
  for (size_t i = 0; i < ring.names.size(); ++i) {
    inputs.r_names[new_id[i]] = std::move(ring.names[i]);
  }
  for (const std::vector<uint32_t>& members : ring.rings) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        const uint32_t a = new_id[members[i]];
        const uint32_t b = new_id[members[j]];
        inputs.planted.emplace_back(std::min(a, b), std::max(a, b));
      }
    }
  }
  return inputs;
}

// R: 20k accounts over a 100k-token vocabulary with flat popularity and
// many one-edit variants, so most candidates come from similar tokens.
// P: 20k sign-ups, about a fifth of them PerturbName re-registrations of
// random R accounts (the planted pairs), the rest fresh accounts sampled
// from a second stream.
Inputs GenerateRp(uint64_t seed) {
  constexpr size_t kR = 20000;
  constexpr size_t kP = 20000;
  constexpr double kReRegistered = 0.2;
  tsj::NameGeneratorOptions names;
  names.vocabulary_size = 100000;
  names.zipf_skew = 0.5;
  names.min_syllables = 3;
  names.max_syllables = 6;
  names.variant_fraction = 0.5;
  const tsj::NameGenerator generator(names);

  Inputs inputs;
  tsj::Rng r_rng(DeriveSeed(seed, 4));
  inputs.r_names.reserve(kR);
  for (size_t i = 0; i < kR; ++i) {
    inputs.r_names.push_back(generator.Sample(&r_rng));
  }
  tsj::Rng p_rng(DeriveSeed(seed, 5));
  inputs.p_names.reserve(kP);
  for (size_t j = 0; j < kP; ++j) {
    if (p_rng.Bernoulli(kReRegistered)) {
      const uint32_t r = static_cast<uint32_t>(p_rng.Uniform(kR));
      inputs.p_names.push_back(tsj::PerturbName(inputs.r_names[r], &p_rng));
      inputs.planted.emplace_back(r, static_cast<uint32_t>(j));
    } else {
      inputs.p_names.push_back(generator.Sample(&p_rng));
    }
  }
  return inputs;
}

uint64_t PairKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

bool LookupWorkload(const std::string& name, WorkloadConfig* config) {
  for (const WorkloadConfig& c : Configs()) {
    if (c.name == name) {
      *config = c;
      return true;
    }
  }
  return false;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadConfig& c : Configs()) names.push_back(c.name);
  return names;
}

Inputs Generate(const WorkloadConfig& config, uint64_t seed) {
  if (config.cross) return GenerateRp(seed);
  return GenerateRing(config.accounts, seed);
}

tsj::Corpus Intern(const std::vector<tsj::TokenizedString>& names) {
  tsj::Corpus corpus;
  for (const tsj::TokenizedString& name : names) corpus.AddString(name);
  return corpus;
}

tsj::TsjOptions JoinOptions(const WorkloadConfig& config,
                            const std::string& spill_dir) {
  tsj::TsjOptions options;
  options.threshold = config.threshold;
  options.max_token_frequency = 1000;
  options.mapreduce.num_workers = config.workers;
  if (config.spill_budget_records > 0) {
    options.enable_shuffle_spill = true;
    options.mapreduce.memory_budget_records = config.spill_budget_records;
    options.mapreduce.spill_dir = spill_dir;
  }
  return options;
}

OracleSlice ChooseOracleSlice(const WorkloadConfig& config,
                              const Inputs& inputs) {
  OracleSlice slice;
  if (!config.cross) {
    // Every ring member, topped up to 3,000 accounts with the leading ids.
    std::unordered_set<uint32_t> ids;
    for (const auto& [a, b] : inputs.planted) {
      ids.insert(a);
      ids.insert(b);
    }
    for (uint32_t i = 0; ids.size() < 3000 && i < inputs.r_names.size();
         ++i) {
      ids.insert(i);
    }
    slice.r.assign(ids.begin(), ids.end());
    std::sort(slice.r.begin(), slice.r.end());
    slice.p = slice.r;
    return slice;
  }
  // The first P sign-ups against the first R accounts plus every R
  // account those sign-ups re-registered.
  const uint32_t p_n =
      static_cast<uint32_t>(std::min<size_t>(1500, inputs.p_names.size()));
  const uint32_t r_n =
      static_cast<uint32_t>(std::min<size_t>(1500, inputs.r_names.size()));
  for (uint32_t j = 0; j < p_n; ++j) slice.p.push_back(j);
  std::unordered_set<uint32_t> r_ids;
  for (uint32_t i = 0; i < r_n; ++i) r_ids.insert(i);
  for (const auto& [r, p] : inputs.planted) {
    if (p < p_n) r_ids.insert(r);
  }
  slice.r.assign(r_ids.begin(), r_ids.end());
  std::sort(slice.r.begin(), slice.r.end());
  return slice;
}

Inputs SliceInputs(const WorkloadConfig& config, const Inputs& inputs,
                   const OracleSlice& slice) {
  Inputs out;
  for (uint32_t i : slice.r) out.r_names.push_back(inputs.r_names[i]);
  if (config.cross) {
    for (uint32_t j : slice.p) out.p_names.push_back(inputs.p_names[j]);
  }
  return out;
}

std::vector<tsj::TsjPair> OraclePairs(const WorkloadConfig& config,
                                      const Inputs& inputs,
                                      const OracleSlice& slice) {
  const auto& r_names = inputs.r_names;
  const auto& p_names = config.cross ? inputs.p_names : inputs.r_names;
  std::vector<size_t> r_len(r_names.size()), p_len(p_names.size());
  for (uint32_t i : slice.r) r_len[i] = tsj::AggregateLength(r_names[i]);
  for (uint32_t j : slice.p) p_len[j] = tsj::AggregateLength(p_names[j]);
  std::vector<tsj::TsjPair> out;
  for (uint32_t i : slice.r) {
    for (uint32_t j : slice.p) {
      if (!config.cross && j <= i) continue;
      // NSLD >= 1 - min(L)/max(L) (Lemma 6); skip only pairs that clear
      // the threshold by a margin no rounding can close.
      const double lo = static_cast<double>(std::min(r_len[i], p_len[j]));
      const double hi = static_cast<double>(std::max(r_len[i], p_len[j]));
      if (hi > 0 && 1.0 - lo / hi > config.threshold + 1e-9) continue;
      const double nsld = tsj::Nsld(r_names[i], p_names[j]);
      if (nsld <= config.threshold) out.push_back(tsj::TsjPair{i, j, nsld});
    }
  }
  return out;
}

std::vector<tsj::TsjPair> RestrictToSlice(
    const std::vector<tsj::TsjPair>& pairs, const OracleSlice& slice) {
  std::unordered_set<uint32_t> r_ids(slice.r.begin(), slice.r.end());
  std::unordered_set<uint32_t> p_ids(slice.p.begin(), slice.p.end());
  std::vector<tsj::TsjPair> out;
  for (const tsj::TsjPair& pair : pairs) {
    if (r_ids.count(pair.a) != 0 && p_ids.count(pair.b) != 0) {
      out.push_back(pair);
    }
  }
  std::sort(out.begin(), out.end(), PairLess);
  return out;
}

double PlantedRecall(const Inputs& inputs,
                     const std::vector<tsj::TsjPair>& pairs) {
  if (inputs.planted.empty()) return 0;
  std::unordered_set<uint64_t> found;
  found.reserve(pairs.size());
  for (const tsj::TsjPair& pair : pairs) found.insert(PairKey(pair.a, pair.b));
  size_t hits = 0;
  for (const auto& [a, b] : inputs.planted) {
    hits += found.count(PairKey(a, b));
  }
  return static_cast<double>(hits) / static_cast<double>(inputs.planted.size());
}

}  // namespace perfbench
