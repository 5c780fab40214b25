#include "obs/cli.h"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <ostream>

#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "util/error.h"

namespace ahfic::obs {

bool CliOptions::consume(int argc, char** argv, int& k) {
  const char* arg = argv[k];
  std::string* target = nullptr;
  if (std::strcmp(arg, "--trace") == 0)
    target = &tracePath;
  else if (std::strcmp(arg, "--metrics") == 0)
    target = &metricsPath;
  else if (std::strcmp(arg, "--profile") == 0)
    target = &profilePath;
  else
    return false;
  if (k + 1 >= argc)
    throw Error(std::string("obs: ") + arg + " requires a FILE argument");
  *target = argv[++k];
  return true;
}

int countArg(int argc, char** argv, int& k) {
  const std::string flag = argv[k];
  if (k + 1 >= argc) throw Error(flag + " requires a value");
  const char* text = argv[++k];
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 1 ||
      v > INT_MAX)
    throw Error(flag + " wants a whole number >= 1, got '" + text + "'");
  return static_cast<int>(v);
}

int usageError(std::ostream& os, const char* argv0, const std::string& why,
               const char* flags) {
  os << argv0 << ": " << why << "\nusage: " << argv0 << " " << flags
     << (*flags != '\0' ? " " : "") << CliOptions::usage() << "\n";
  return 2;
}

void CliOptions::begin() const {
  if (!metricsPath.empty()) setMetricsEnabled(true);
  if (!tracePath.empty()) {
    setTracingEnabled(true);
    nameCurrentThreadLane("main");
  }
  if (!profilePath.empty()) {
    profileSetThreadName("main");
    if (!startProfiling())
      throw Error("obs: --profile: a capture is already running");
  }
}

void CliOptions::finish(std::ostream& os) const {
  if (!profilePath.empty() && profilingActive()) {
    const ProfileReport report = stopProfiling();
    writeProfileFiles(report, profilePath);
    os << "[obs] wrote profile to " << profilePath << " (+.folded): "
       << report.samples << " samples";
    if (report.dropped > 0) os << ", " << report.dropped << " dropped";
    os << "\n";
  }
  if (!metricsPath.empty()) {
    metrics().snapshot().writeJsonFile(metricsPath);
    os << "[obs] wrote metrics to " << metricsPath << "\n";
  }
  if (!tracePath.empty()) {
    writeTraceFile(tracePath);
    os << "[obs] wrote trace to " << tracePath;
    if (droppedTraceEvents() > 0)
      os << " (" << droppedTraceEvents() << " events dropped at cap)";
    os << "\n";
  }
  if (anyEnabled()) summary(os);
}

void summary(std::ostream& os) {
  const std::string spans = spanSummary();
  if (!spans.empty())
    os << "\n[obs] top spans by cumulative time\n" << spans;
  const std::string metricsTables = metrics().snapshot().summary();
  if (!metricsTables.empty()) os << "\n[obs] metrics\n" << metricsTables;
}

}  // namespace ahfic::obs
