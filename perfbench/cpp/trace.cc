#include "trace.h"

#include <cstdio>

#include "common/json.h"

namespace perfbench {

SpanLog::SpanLog(int thread, Clock::time_point origin)
    : thread_(thread), origin_(origin) {}

int64_t SpanLog::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

size_t SpanLog::Open(std::string name, uint64_t parent, uint64_t rid,
                     bool replay) {
  Span s;
  s.id = (static_cast<uint64_t>(thread_) << 40) | ++next_;
  s.parent = parent;
  s.rid = rid;
  s.name = std::move(name);
  s.replay = replay;
  s.start_ns = Now();
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

void SpanLog::Close(size_t index) { spans_[index].end_ns = Now(); }

bool WriteSpans(const std::string& path, const std::string& workload,
                const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    tvdp::Json j = tvdp::Json::MakeObject();
    j["workload"] = workload;
    j["id"] = static_cast<int64_t>(s.id);
    j["parent"] = static_cast<int64_t>(s.parent);
    j["rid"] = static_cast<int64_t>(s.rid);
    j["name"] = s.name;
    j["start_us"] = static_cast<double>(s.start_ns) / 1e3;
    j["end_us"] = static_cast<double>(s.end_ns) / 1e3;
    if (s.replay) j["replay"] = true;
    std::string line = j.Dump() + "\n";
    std::fwrite(line.data(), 1, line.size(), f);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
