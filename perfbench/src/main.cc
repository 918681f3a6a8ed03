// perfbench: the preserial benchmark binary. One process runs one workload
// for one seed and prints, as its last stdout line, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when a correctness gate failed, 2 on bad usage.
//
//   perfbench --workload soak|mobile|cluster|replicated --seed N
//             --seconds S --trace 0|1 [--tiny] [--spans-out PATH]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload soak|mobile|cluster|replicated "
               "--seed N --seconds S --trace 0|1 [--tiny] [--spans-out PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      cfg.tiny = true;
    } else if (arg == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--spans-out" && has_value) {
      cfg.spans_out = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }

  perfbench::RunResult result;
  if (cfg.workload == "soak") {
    result = perfbench::RunSoak(cfg);
  } else if (cfg.workload == "mobile") {
    result = perfbench::RunMobile(cfg);
  } else if (cfg.workload == "cluster") {
    result = perfbench::RunCluster(cfg);
  } else if (cfg.workload == "replicated") {
    result = perfbench::RunReplicated(cfg);
  } else {
    return Usage(argv[0]);
  }
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "GATE FAILED: %s\n", error.c_str());
  }
  std::printf("%s\n", perfbench::ToJson(result).c_str());
  return result.correct ? 0 : 1;
}
