#include "common/hash.h"

namespace tsj {

uint64_t Fingerprint64(std::string_view data) {
  // FNV-1a, 64-bit variant.
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  // Extra avalanche so short keys spread over high bits too.
  return Mix64(hash);
}

}  // namespace tsj
