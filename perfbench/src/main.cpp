// ahfic_perfbench — the repository benchmark (see ../README.md).
//
// Usage:
//   ahfic_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --reference FILE [--spans-dir DIR]
//   ahfic_perfbench --make-reference FILE
//
// Workloads: table1_ring, ft_montecarlo, daemon_mix. The last stdout
// line is one JSON object {correct, attempted, failed, metrics}; with
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. Exit status is 0 whenever a result line was printed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "common.h"

namespace {

int usage() {
  std::cerr << "usage: ahfic_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --reference FILE [--spans-dir DIR]\n"
               "       ahfic_perfbench --make-reference FILE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    if (k + 1 >= argc) return usage();
    const char* value = argv[++k];
    if (arg == "--workload")
      opts.workload = value;
    else if (arg == "--seed")
      opts.seed = std::strtoull(value, nullptr, 10);
    else if (arg == "--seconds")
      opts.seconds = std::atof(value);
    else if (arg == "--trace")
      opts.trace = std::strcmp(value, "0") != 0;
    else if (arg == "--reference")
      opts.referencePath = value;
    else if (arg == "--spans-dir")
      opts.spansDir = value;
    else if (arg == "--make-reference")
      return perfbench::writeReference(value);
    else
      return usage();
  }
  if (opts.referencePath.empty() || !(opts.seconds > 0.0)) return usage();

  try {
    perfbench::Report report(opts.trace);
    if (opts.workload == "table1_ring")
      report = perfbench::runTable1Ring(opts);
    else if (opts.workload == "ft_montecarlo")
      report = perfbench::runFtMonteCarlo(opts);
    else if (opts.workload == "daemon_mix")
      report = perfbench::runDaemonMix(opts);
    else
      return usage();
    std::printf("failed_frac: %ld of %ld operations failed (%.6f)\n",
                report.failed, report.attempted,
                report.attempted > 0 ? static_cast<double>(report.failed) /
                                           static_cast<double>(report.attempted)
                                     : 0.0);
    std::cout << report.toJson() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ahfic_perfbench: " << e.what() << "\n";
    return 1;
  }
}
