#pragma once
// Shared plumbing of the benchmark executable: run options, the report
// that becomes the final JSON line, and small statistics helpers.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string spansDir = ".";
  /// Reference data for the accuracy metrics (reference.json).
  std::string referencePath;
};

/// A metric the benchmark reports (BENCHMARK.json lists the same).
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& endToEndMetrics();
const std::vector<MetricDef>& perLayerMetrics();

/// What one run reports: the last stdout line is toJson().
class Report {
 public:
  /// An untraced run reports the end-to-end metrics, a traced run the
  /// per-layer ones. Per-layer metrics a workload does not exercise
  /// stay 0.
  explicit Report(bool trace);

  /// Sets a metric of this run's set; throws ahfic::Error for a name
  /// outside it.
  void set(const std::string& name, double value);
  /// Records a failed output check; the run then reports correct=false.
  void fail(const std::string& why);
  /// Prints a human-readable note (stdout, before the result line).
  void note(const std::string& text) const;

  bool correct() const { return problems_.empty(); }
  std::string toJson() const;

  long attempted = 0;
  long failed = 0;

 private:
  struct Metric {
    MetricDef def;
    double value = 0.0;
    bool set = false;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
};

/// Monotonic clock in seconds.
double nowSeconds();

double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// The highest nearest-rank percentile (at most p99) that still has at
/// least ten samples above it. When even p90 has fewer than ten samples
/// above it (under 100 samples), the maximum is reported instead.
struct TailPercentile {
  double value = 0.0;
  double percentile = 100.0;
};
TailPercentile tailPercentile(std::vector<double> values);

/// Peak resident set size of this process [MB].
double peakRssMb();

/// |a - b| / |b| in percent.
double errPct(double a, double b);

/// Value of `key` in a flat JSON object of numbers (reference.json);
/// throws ahfic::Error when absent.
double referenceValue(const std::string& path, const std::string& section,
                      const std::string& key);

Report runTable1Ring(const Options& opts);
Report runFtMonteCarlo(const Options& opts);
Report runDaemonMix(const Options& opts);

/// Regenerates reference.json (slow: tight step and tolerances).
int writeReference(const std::string& path);

}  // namespace perfbench
