// Batch-runner scaling study: throughput of the Fig. 9 fT–Ic sweep and a
// 64-die Monte-Carlo workload at 1/2/4/8 worker threads, with a
// determinism cross-check (every thread count must reproduce the 1-thread
// results bit-for-bit). Emits BENCH_runner_scaling.json.
//
// Usage: bench_runner_scaling [--out FILE] [--dies N]
//                             [--trace FILE] [--metrics FILE]

#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bjtgen/generator.h"
#include "obs/bench.h"
#include "obs/cli.h"
#include "runner/engine.h"
#include "runner/workloads.h"
#include "util/error.h"
#include "util/json.h"
#include "util/table.h"
#include "util/units.h"

namespace bg = ahfic::bjtgen;
namespace rn = ahfic::runner;
namespace u = ahfic::util;

namespace {

bool sameOutcomes(const std::vector<rn::JobOutcome>& a,
                  const std::vector<rn::JobOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (!(a[k].result == b[k].result)) return false;
    if (a[k].record.status != b[k].record.status) return false;
  }
  return true;
}

struct WorkloadReport {
  std::string name;
  size_t jobs = 0;
  std::vector<int> threads;
  std::vector<double> wallMs;
  std::vector<bool> identical;  // vs the 1-thread reference
};

WorkloadReport scale(const std::string& name,
                     const std::vector<rn::Job>& jobs,
                     const std::vector<int>& threadCounts) {
  WorkloadReport rep;
  rep.name = name;
  rep.jobs = jobs.size();

  std::vector<rn::JobOutcome> reference;
  for (const int t : threadCounts) {
    rn::RunnerOptions opts;
    opts.threads = t;
    opts.useCache = false;  // measure compute, not cache hits
    rn::BatchRunner runner(opts);
    const auto batch = runner.run(jobs);
    rep.threads.push_back(t);
    rep.wallMs.push_back(batch.manifest.wallMs);
    if (reference.empty()) reference = batch.outcomes;
    rep.identical.push_back(sameOutcomes(reference, batch.outcomes));
  }
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  std::string outPath = "BENCH_runner_scaling.json";
  int dies = 64;
  ahfic::obs::CliOptions obsOpts;
  try {
    for (int k = 1; k < argc; ++k) {
      if (obsOpts.consume(argc, argv, k)) continue;
      if (std::strcmp(argv[k], "--out") == 0 && k + 1 < argc)
        outPath = argv[++k];
      else if (std::strcmp(argv[k], "--dies") == 0)
        dies = ahfic::obs::countArg(argc, argv, k);
    }
  } catch (const ahfic::Error& e) {
    return ahfic::obs::usageError(std::cerr, argv[0], e.what(),
                                  "[--out FILE] [--dies N]");
  }
  obsOpts.begin();

  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "== Runner scaling: batch throughput vs worker threads ==\n"
            << "(hardware concurrency: " << hw << ")\n\n";

  const std::vector<int> threadCounts = {1, 2, 4, 8};
  const auto gen = bg::ModelGenerator::withDefaultTechnology();

  // Workload 1: the Fig. 9 sweep (4 shapes x log current grid).
  std::vector<double> currents;
  for (double ic = 0.05e-3; ic <= 20.001e-3; ic *= std::pow(10.0, 0.25))
    currents.push_back(ic);
  const auto fig9 = scale(
      "fig9-ft-sweep", rn::fig9SweepJobs(gen, bg::fig9Shapes(), currents),
      threadCounts);

  // Workload 2: Monte-Carlo process variation, one cheap fT job per die.
  const auto mc = scale(
      "monte-carlo-" + std::to_string(dies) + "-dies",
      rn::monteCarloFtJobs(bg::defaultTechnology(), bg::ProcessVariation{},
                           dies, "N1.2-12D", 3e-3),
      threadCounts);

  u::JsonValue doc = u::JsonValue::object();
  doc.set("schema", "ahfic-bench-runner-scaling-v1");
  doc.set("hardwareConcurrency", static_cast<double>(hw));
  u::JsonValue workloads = u::JsonValue::array();

  for (const WorkloadReport& rep : {fig9, mc}) {
    std::cout << "-- " << rep.name << " (" << rep.jobs << " jobs) --\n";
    u::Table table({"threads", "wall [ms]", "jobs/s", "speedup",
                    "identical to 1-thread"});
    u::JsonValue w = u::JsonValue::object();
    w.set("name", rep.name);
    w.set("jobs", static_cast<double>(rep.jobs));
    u::JsonValue runs = u::JsonValue::array();
    for (size_t k = 0; k < rep.threads.size(); ++k) {
      const double speedup =
          rep.wallMs[k] > 0.0 ? rep.wallMs[0] / rep.wallMs[k] : 0.0;
      const double jobsPerSec =
          rep.wallMs[k] > 0.0
              ? static_cast<double>(rep.jobs) / (rep.wallMs[k] * 1e-3)
              : 0.0;
      table.addRow({std::to_string(rep.threads[k]),
                    u::fixed(rep.wallMs[k], 0), u::fixed(jobsPerSec, 1),
                    u::fixed(speedup, 2) + "x",
                    rep.identical[k] ? "yes" : "NO"});
      u::JsonValue run = u::JsonValue::object();
      run.set("threads", rep.threads[k]);
      run.set("wallMs", rep.wallMs[k]);
      run.set("jobsPerSec", jobsPerSec);
      run.set("speedup", speedup);
      run.set("identicalToSerial", rep.identical[k]);
      runs.push(std::move(run));
    }
    w.set("runs", std::move(runs));
    workloads.push(std::move(w));
    table.print(std::cout);
    std::cout << "\n";
  }
  doc.set("workloads", std::move(workloads));

  ahfic::obs::writeBenchFile(outPath, "runner_scaling", std::move(doc),
                             ahfic::obs::benchTimestampUtc());
  std::cout << "wrote " << outPath << "\n";
  if (hw < 4)
    std::cout << "note: fewer than 4 hardware threads available; wall-clock "
                 "speedup is bounded by the host, not the engine.\n";
  obsOpts.finish(std::cout);
  return 0;
}
