#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

uint64_t IdSetDigest(std::vector<int64_t> ids) {
  std::sort(ids.begin(), ids.end());
  uint64_t h = 1469598103934665603ULL;
  for (int64_t id : ids) {
    uint64_t v = static_cast<uint64_t>(id);
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h ^ ids.size();
}

double QError(double estimated, double actual) {
  double e = std::max(estimated, 1.0), a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

}  // namespace perfbench
