#ifndef TVDP_PERFBENCH_STATS_H_
#define TVDP_PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `p` in (0, 100]; 0 for no samples.
double Percentile(std::vector<double> samples, double p);

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

/// A uniform sample of at most `capacity` items from a stream of any length
/// (Algorithm R), so the benchmark's own memory stays the same however many
/// requests a run makes. The replacement choices come from `seed`.
template <typename T>
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed)
      : capacity_(capacity), state_(seed | 1) {}

  void Add(T item) {
    ++seen_;
    if (items_.size() < capacity_) {
      items_.push_back(std::move(item));
      return;
    }
    // xorshift64*; the slot is uniform in [0, seen).
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    uint64_t slot = (state_ * 2685821657736338717ULL) % seen_;
    if (slot < capacity_) items_[slot] = std::move(item);
  }

  uint64_t seen() const { return seen_; }
  const std::vector<T>& items() const { return items_; }

 private:
  size_t capacity_;
  uint64_t state_;
  uint64_t seen_ = 0;
  std::vector<T> items_;
};

/// Order-insensitive digest of an id set (sorts a copy, then FNV-1a).
uint64_t IdSetDigest(std::vector<int64_t> ids);

/// Planner q-error of one operator: max(est/act, act/est), both floored
/// at one row so empty operators stay finite.
double QError(double estimated, double actual);

}  // namespace perfbench

#endif  // TVDP_PERFBENCH_STATS_H_
