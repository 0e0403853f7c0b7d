// tvdp_perfbench: one run of one TVDP benchmark workload.
//
//   tvdp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --workdir <dir> [--spans <file>] [--header <json>]
//
// Prints a human summary and, as its last line, the result JSON. Normally
// launched by run.py, which builds this binary first.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runner.h"

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with assertions "
                       "(build type %s); configure with "
                       "-DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a %s build; only Release is "
                         "measured\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--header") {
      args.header_json = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.workdir.empty()) {
    std::fprintf(stderr, "perfbench: --workload and --workdir are required\n");
    return 2;
  }
  return perfbench::RunWorkload(args);
}
