#pragma once
// Shared command-line plumbing for the observability subsystem: every
// bench_* binary and spice_cli accepts
//
//   --trace FILE     enable span tracing, write Chrome trace JSON to FILE
//   --metrics FILE   enable the metrics registry, write a snapshot to FILE
//   --profile FILE   sample the run with the CPU-clock profiler, write
//                    the ahfic-profile-v1 document to FILE and the
//                    flamegraph.pl collapsed stacks to FILE.folded
//
// via this helper, so the flags parse and behave identically everywhere.
//
// Usage:
//   obs::CliOptions obsOpts;
//   try {
//     for (int k = 1; k < argc; ++k) {
//       if (obsOpts.consume(argc, argv, k)) continue;
//       ... tool-specific flags (obs::countArg for --jobs N) ...
//     }
//   } catch (const ahfic::Error& e) {
//     return obs::usageError(std::cerr, argv[0], e.what(), "[--jobs N]");
//   }
//   obsOpts.begin();
//   ... workload ...
//   obsOpts.finish(std::cout);

#include <iosfwd>
#include <string>

namespace ahfic::obs {

struct CliOptions {
  std::string tracePath;    ///< empty = tracing stays disabled
  std::string metricsPath;  ///< empty = metrics stay disabled
  std::string profilePath;  ///< empty = no profile capture

  /// Consumes argv[k] (and its value argument) when it is an obs flag;
  /// returns true and advances `k` past the value in that case. Throws
  /// ahfic::Error when a flag is missing its FILE argument.
  bool consume(int argc, char** argv, int& k);

  /// Enables the requested subsystems, names the calling thread "main"
  /// for tracing and profiling, and starts the profile capture when
  /// requested. Call once, before the workload.
  void begin() const;

  /// Writes the requested files and prints summary() to `os` when
  /// anything was enabled. Call once, after the workload.
  void finish(std::ostream& os) const;

  bool anyEnabled() const {
    return !tracePath.empty() || !metricsPath.empty() ||
           !profilePath.empty();
  }

  /// Usage-string fragment for tools that print their own help.
  static const char* usage() {
    return "[--trace FILE] [--metrics FILE] [--profile FILE]";
  }
};

/// Reads the value of the count flag at argv[k] (e.g. `--jobs N`) and
/// advances `k` past it. Throws ahfic::Error unless the value is a whole
/// decimal number >= 1.
int countArg(int argc, char** argv, int& k);

/// Prints `why` and one usage line — `usage: ARGV0 FLAGS` followed by
/// the obs flags — to `os`, and returns the usage-error exit code 2.
int usageError(std::ostream& os, const char* argv0, const std::string& why,
               const char* flags);

/// Prints the observability summary — top spans by cumulative time and
/// the non-zero metrics tables — to `os`. No output when nothing was
/// recorded.
void summary(std::ostream& os);

}  // namespace ahfic::obs
