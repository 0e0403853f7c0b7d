#ifndef TVDP_PERFBENCH_RUNNER_H_
#define TVDP_PERFBENCH_RUNNER_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;      ///< fleet directories live under it
  std::string spans_path;   ///< traced run: span file (JSON lines)
  std::string header_json;  ///< run header fields supplied by the launcher
};

/// Runs one workload; prints a human summary and, as the last line, the
/// result JSON. Returns the process exit code (non-zero on any failed
/// correctness check).
int RunWorkload(const RunArgs& args);

}  // namespace perfbench

#endif  // TVDP_PERFBENCH_RUNNER_H_
