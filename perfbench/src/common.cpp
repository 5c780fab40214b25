#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "util/error.h"
#include "util/json.h"

namespace perfbench {

const std::vector<MetricDef>& endToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"study_s", "s"},
      {"requests_per_s", "1/s"}, {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},  {"result_err_pct", "%"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& perLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"spice.tran_ms", "ms"},
      {"spice.ns_per_newton_iter", "ns"},
      {"spice.newton_iters", "count"},
      {"spice.steps_accepted", "count"},
      {"spice.steps_rejected", "count"},
      {"spice.step_accept_ratio", "ratio"},
      {"spice.newton_per_step", "ratio"},
      {"spice.full_factors", "count"},
      {"spice.refactor_ratio", "ratio"},
      {"spice.op_us", "us"},
      {"spice.ac_us", "us"},
      {"spice.self_ms", "ms"},
      {"bjtgen.generate_us", "us"},
      {"bjtgen.ft_point_us", "us"},
      {"bjtgen.ft_analytic_us", "us"},
      {"bjtgen.ft_peak_ms", "ms"},
      {"bjtgen.ring_measure_ms", "ms"},
      {"bjtgen.self_ms", "ms"},
      {"runner.run_ms", "ms"},
      {"runner.overhead_pct", "%"},
      {"runner.retries", "count"},
      {"runner.cache_hit_ratio", "ratio"},
      {"runner.self_ms", "ms"},
      {"lint.deck_us", "us"},
      {"lint.self_ms", "ms"},
      {"serve.submit_ms", "ms"},
      {"serve.healthz_ms", "ms"},
      {"serve.job_wall_hit_ms", "ms"},
      {"serve.job_wall_miss_ms", "ms"},
      {"serve.queue_ms", "ms"},
      {"serve.poll_ms", "ms"},
      {"serve.polls_per_request", "ratio"},
      {"serve.useful_poll_ratio", "ratio"},
      {"serve.rejected_422", "count"},
      {"serve.rejected_429", "count"},
      {"serve.rss_growth_kb_per_request", "kB"},
      {"serve.self_ms", "ms"},
      {"bench.self_ms", "ms"},
      {"bench.latency_samples", "count"},
      {"bench.latency_tail_pct", "%"},
      {"obs.unattributed_pct", "%"},
      {"obs.trace_overhead_pct", "%"},
  };
  return defs;
}

Report::Report(bool trace) {
  for (const MetricDef& d : trace ? perLayerMetrics() : endToEndMetrics())
    metrics_.push_back({d, 0.0, trace});
}

void Report::set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (name == m.def.name) {
      m.value = value;
      m.set = true;
      return;
    }
  }
  throw ahfic::Error("metric '" + name + "' is not reported by this run");
}

void Report::fail(const std::string& why) {
  problems_.push_back(why);
  std::cerr << "perfbench: check failed: " << why << "\n";
}

void Report::note(const std::string& text) const {
  std::cout << text << "\n";
}

std::string Report::toJson() const {
  bool complete = true;
  for (const Metric& m : metrics_) {
    if (!m.set || !std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << m.def.name << " was not measured\n";
      complete = false;
    }
  }
  std::string out = "{\"correct\": ";
  out += correct() && complete ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[40];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += std::string(i ? ", \"" : "\"") + m.def.name +
           "\": {\"value\": " + value + ", \"unit\": \"" + m.def.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

TailPercentile tailPercentile(std::vector<double> values) {
  TailPercentile t;
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  // Nearest rank r (1-based) leaves n - r samples above it.
  const size_t r99 = static_cast<size_t>(std::ceil(0.99 * n));
  const size_t r90 = static_cast<size_t>(std::ceil(0.90 * n));
  const size_t rank = n >= 10 ? std::min(r99, n - 10) : 0;
  if (rank < r90 || rank == 0) {
    t.value = values.back();
    return t;
  }
  t.value = values[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double errPct(double a, double b) {
  return 100.0 * std::fabs(a - b) / std::fabs(b);
}

double referenceValue(const std::string& path, const std::string& section,
                      const std::string& key) {
  std::ifstream in(path);
  if (!in) throw ahfic::Error("cannot read reference file '" + path + "'");
  std::stringstream ss;
  ss << in.rdbuf();
  const ahfic::util::JsonValue doc = ahfic::util::parseJson(ss.str());
  if (!doc.has(section) || !doc.get(section).has("values") ||
      !doc.get(section).get("values").has(key))
    throw ahfic::Error("reference file lacks " + section + "/" + key);
  return doc.get(section).get("values").get(key).asNumber();
}

}  // namespace perfbench
