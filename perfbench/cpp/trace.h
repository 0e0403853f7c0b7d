#ifndef TVDP_PERFBENCH_TRACE_H_
#define TVDP_PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Each client thread owns one
// SpanLog (no locking); the runner writes every log out when the run ends.
// A span is (name, start, end, parent, request id). A `replay` span re-runs
// a layer call after the request returned, to time that layer in isolation;
// when its parent is the request's API span, it stands for work the API
// call did inside its own interval.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t rid = 0;     ///< request id shared by a request's spans
  std::string name;
  int64_t start_ns = 0, end_ns = 0;
  bool replay = false;
  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  /// `thread` makes span ids unique across logs; `origin` is time zero.
  SpanLog(int thread, Clock::time_point origin);

  uint64_t NewRequest() { return (static_cast<uint64_t>(thread_) << 40) | ++rids_; }

  /// Opens a span and returns its index in spans(); Close fills its end.
  size_t Open(std::string name, uint64_t parent, uint64_t rid,
              bool replay = false);
  void Close(size_t index);

  const Span& at(size_t index) const { return spans_[index]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const;

  int thread_;
  Clock::time_point origin_;
  uint64_t next_ = 0;
  uint64_t rids_ = 0;
  std::vector<Span> spans_;
};

/// Appends `spans` to `path` as JSON lines tagged with `workload`.
bool WriteSpans(const std::string& path, const std::string& workload,
                const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // TVDP_PERFBENCH_TRACE_H_
