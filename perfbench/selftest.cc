// Self-tests of the benchmark's own arithmetic: the median, the
// percentile-with-ten-beyond rule, busy ratio, coverage, span self time,
// the result digest and the job-role names. Exits non-zero on the first
// failed check.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "measure.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "perfbench_selftest: FAILED " << what << "\n";
    ++failures;
  }
}

bool Near(double x, double y) { return std::fabs(x - y) < 1e-12; }

}  // namespace

int main() {
  using namespace perfbench;

  Expect(Median({}) == 0, "median of nothing is 0");
  Expect(Median({3}) == 3, "median of one value");
  Expect(Median({5, 1, 3}) == 3, "median of an odd count");
  Expect(Median({4, 1, 3, 2}) == 2.5, "median of an even count");

  std::vector<double> ten(10);
  for (int i = 0; i < 10; ++i) ten[i] = i;
  Expect(!TailPercentile(ten).has_value(),
         "ten samples leave no percentile with ten beyond it");
  std::vector<double> eleven(11);
  for (int i = 0; i < 11; ++i) eleven[i] = 10 - i;  // unsorted on purpose
  const auto p11 = TailPercentile(eleven);
  Expect(p11 && p11->percentile == 9 && p11->value == 0,
         "eleven samples give p9 at the smallest value");
  std::vector<double> forty(40);
  for (int i = 0; i < 40; ++i) forty[i] = i + 1;
  const auto p40 = TailPercentile(forty);
  Expect(p40 && p40->percentile == 75 && p40->value == 30,
         "forty samples give p75 with exactly ten values above it");
  std::vector<double> many(1000);
  for (int i = 0; i < 1000; ++i) many[i] = i + 1;
  const auto p1000 = TailPercentile(many);
  Expect(p1000 && p1000->percentile == 99 && p1000->value == 990,
         "a thousand samples give p99");

  Expect(Near(BusyRatio(2.0, 0.5, 4), 1.0), "busy ratio of a saturated pool");
  Expect(Near(BusyRatio(1.0, 0.5, 4), 0.5), "busy ratio of a half-idle pool");
  Expect(BusyRatio(1.0, 0.0, 4) == 0 && BusyRatio(1.0, 1.0, 0) == 0,
         "busy ratio without wall or workers");
  Expect(Near(LayerCoverage(0.47, 0.5), 0.94), "layer coverage");
  Expect(LayerCoverage(1, 0) == 0, "coverage without wall");

  std::vector<Span> spans = {
      {"join", "tsj", 0.0, 1.0, -1},
      {"a", "mapreduce", 0.1, 0.4, 0},
      {"b", "mapreduce", 0.3, 0.6, 0},   // overlaps a
      {"c", "mapreduce", 0.9, 1.5, 0},   // runs past its parent
      {"d", "mapreduce", 0.2, 0.3, 1}};  // grandchild: not subtracted
  Expect(Near(SelfSeconds(spans, 0), 1.0 - 0.5 - 0.1), "span self time");
  Expect(Near(SelfSeconds(spans, 1), 0.3 - 0.1), "child self time");

  std::vector<tsj::TsjPair> pairs = {{1, 2, 0.1}, {0, 5, 0.05}, {3, 4, 0}};
  std::vector<tsj::TsjPair> shuffled = {pairs[2], pairs[0], pairs[1]};
  Expect(PairDigest(pairs) == PairDigest(shuffled),
         "digest ignores pair order");
  std::vector<tsj::TsjPair> other_value = pairs;
  other_value[0].nsld = std::nextafter(0.1, 1.0);
  Expect(PairDigest(pairs) != PairDigest(other_value),
         "digest sees one ulp of NSLD");
  std::vector<tsj::TsjPair> fewer(pairs.begin(), pairs.end() - 1);
  Expect(PairDigest(pairs) != PairDigest(fewer), "digest sees a lost pair");
  std::vector<tsj::TsjPair> swapped = pairs;
  std::swap(swapped[0].a, swapped[0].b);
  Expect(PairDigest(pairs) != PairDigest(swapped), "digest sees (a, b) order");

  Expect(JobRole("tsj-shared-token") == "shared-token", "self role");
  Expect(JobRole("tsj-rp-shared-token") == "shared-token", "R/P role");
  Expect(JobRole("tsj-dedup-verify-one") == "dedup-verify", "dedup one");
  Expect(JobRole("tsj-rp-dedup-verify-both") == "dedup-verify", "dedup both");
  Expect(JobRole("massjoin-generate") == "massjoin-generate", "massjoin");

  if (failures == 0) std::cout << "perfbench_selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
