#include "measure.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::optional<Percentile> TailPercentile(std::vector<double> values,
                                         size_t min_beyond) {
  const size_t n = values.size();
  if (n <= min_beyond) return std::nullopt;
  const int p = static_cast<int>(100 * (n - min_beyond) / n);
  if (p <= 0) return std::nullopt;
  std::sort(values.begin(), values.end());
  // Nearest rank: the ceil(p/100 * n)-th smallest value. At most
  // n - min_beyond values are at or below it.
  const size_t rank = (static_cast<size_t>(p) * n + 99) / 100;
  return Percentile{p, values[std::max<size_t>(rank, 1) - 1]};
}

double BusyRatio(double cpu_s, double wall_s, size_t workers) {
  if (wall_s <= 0 || workers == 0) return 0;
  return cpu_s / (wall_s * static_cast<double>(workers));
}

double LayerCoverage(double phase_sum_s, double wall_s) {
  return wall_s > 0 ? phase_sum_s / wall_s : 0;
}

bool PairLess(const tsj::TsjPair& x, const tsj::TsjPair& y) {
  return x.a != y.a ? x.a < y.a : x.b < y.b;
}

uint64_t PairDigest(std::vector<tsj::TsjPair> pairs) {
  std::sort(pairs.begin(), pairs.end(), PairLess);
  // FNV-1a over (a, b, nsld bits), then a final avalanche.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  fold(pairs.size());
  for (const tsj::TsjPair& p : pairs) {
    uint64_t bits = 0;
    std::memcpy(&bits, &p.nsld, sizeof(bits));
    fold(p.a);
    fold(p.b);
    fold(bits);
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

std::string JobRole(const std::string& job_name) {
  std::string role = job_name;
  for (const char* prefix : {"tsj-", "rp-"}) {
    const size_t len = std::strlen(prefix);
    if (role.compare(0, len, prefix) == 0) role.erase(0, len);
  }
  for (const char* suffix : {"-one", "-both"}) {
    const size_t len = std::strlen(suffix);
    if (role.rfind("dedup-verify", 0) == 0 && role.size() > len &&
        role.compare(role.size() - len, len, suffix) == 0) {
      role.erase(role.size() - len);
    }
  }
  return role;
}

const std::vector<std::string>& ReportedRoles() {
  static const std::vector<std::string> roles = {
      "shared-token", "massjoin-generate", "massjoin-verify",
      "dedup-verify"};
  return roles;
}

}  // namespace perfbench
