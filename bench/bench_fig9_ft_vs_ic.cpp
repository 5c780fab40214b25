// Reproduces Fig. 9: "Transition frequency vs collector current for npn
// transistors" — fT(Ic) curves for the N1.2-{6,12,24,48}D family, each
// simulated with its geometry-generated model card.
//
// The headline behaviour to reproduce: all shapes share a similar peak fT
// (same vertical profile) while the collector current at the peak scales
// with the emitter area — so a circuit running at a fixed current must
// pick the shape whose peak sits at that current.
//
// The sweep runs through the batch runner (one job per shape x current
// point plus one peak-search job per shape); results are identical for
// any worker count.
// Usage: bench_fig9_ft_vs_ic [--jobs N] [--json FILE]
//                            [--trace FILE] [--metrics FILE]

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
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

int main(int argc, char** argv) {
  int jobs = 0;  // 0 = hardware concurrency
  std::string jsonPath;
  ahfic::obs::CliOptions obsOpts;
  try {
    for (int k = 1; k < argc; ++k) {
      if (obsOpts.consume(argc, argv, k)) continue;
      if (std::strcmp(argv[k], "--jobs") == 0)
        jobs = ahfic::obs::countArg(argc, argv, k);
      else if (std::strcmp(argv[k], "--json") == 0 && k + 1 < argc)
        jsonPath = argv[++k];
    }
  } catch (const ahfic::Error& e) {
    return ahfic::obs::usageError(std::cerr, argv[0], e.what(),
                                  "[--jobs N] [--json FILE]");
  }
  obsOpts.begin();

  const auto gen = bg::ModelGenerator::withDefaultTechnology();
  const auto shapes = bg::fig9Shapes();

  std::cout << "== Fig. 9: fT vs Ic (geometry-generated model cards) ==\n"
            << "(fT in GHz, from AC h21 single-pole extrapolation at "
               "Vce = 2 V)\n\n";

  // Log-spaced current grid covering all four shapes.
  std::vector<double> currents;
  for (double ic = 0.05e-3; ic <= 20.001e-3; ic *= std::pow(10.0, 0.125))
    currents.push_back(ic);

  rn::RunnerOptions ropts;
  ropts.threads = jobs;
  ropts.useCache = false;  // one-shot sweep; nothing to reuse
  rn::BatchRunner runner(ropts);

  // Sweep points and the per-shape peak searches in one batch.
  auto batchJobs = rn::fig9SweepJobs(gen, shapes, currents);
  const size_t sweepCount = batchJobs.size();
  for (auto& job : rn::ftPeakJobs(gen, shapes, 0.05e-3, 40e-3, 19))
    batchJobs.push_back(std::move(job));
  const auto batch = runner.run(batchJobs);

  std::vector<std::string> header = {"Ic [mA]"};
  for (const auto& s : shapes) header.push_back(s.name());
  u::Table table(header);

  for (size_t k = 0; k < currents.size(); ++k) {
    std::vector<std::string> row = {u::fixed(currents[k] * 1e3, 2)};
    for (size_t s = 0; s < shapes.size(); ++s) {
      const auto& out = batch.outcomes[s * currents.size() + k];
      if (out.ok() && !out.result.has("skipped")) {
        row.push_back(u::fixed(out.result.get("ft") / 1e9, 2));
      } else {
        row.push_back("-");
      }
    }
    table.addRow(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\n== Peak summary (the paper's point: peak-fT current "
               "depends on shape) ==\n\n";
  u::Table peaks({"Shape", "peak fT", "Ic @ peak", "emitter area"});
  for (size_t s = 0; s < shapes.size(); ++s) {
    const auto& out = batch.outcomes[sweepCount + s];
    peaks.addRow({shapes[s].name(),
                  out.ok() ? u::formatFrequency(out.result.get("ftPeak"))
                           : "failed",
                  u::fixed(out.result.get("icPeak") * 1e3, 2) + " mA",
                  u::fixed(shapes[s].emitterArea() * 1e12, 1) + " um^2"});
  }
  peaks.print(std::cout);

  if (!jsonPath.empty()) {
    // "ahfic-bench-fig9-v1" payload inside the common bench envelope:
    // one entry per shape with its fT(Ic) curve and peak summary.
    u::JsonValue payload = u::JsonValue::object();
    payload.set("schema", "ahfic-bench-fig9-v1");
    u::JsonValue jShapes = u::JsonValue::array();
    for (size_t s = 0; s < shapes.size(); ++s) {
      u::JsonValue e = u::JsonValue::object();
      e.set("name", shapes[s].name());
      e.set("emitterAreaUm2", shapes[s].emitterArea() * 1e12);
      const auto& peak = batch.outcomes[sweepCount + s];
      e.set("ftPeakHz", peak.ok() ? peak.result.get("ftPeak") : 0.0);
      e.set("icPeakA", peak.ok() ? peak.result.get("icPeak") : 0.0);
      u::JsonValue icArr = u::JsonValue::array();
      u::JsonValue ftArr = u::JsonValue::array();
      for (size_t k = 0; k < currents.size(); ++k) {
        const auto& out = batch.outcomes[s * currents.size() + k];
        if (!out.ok() || out.result.has("skipped")) continue;
        icArr.push(currents[k]);
        ftArr.push(out.result.get("ft"));
      }
      e.set("icA", std::move(icArr));
      e.set("ftHz", std::move(ftArr));
      jShapes.push(std::move(e));
    }
    payload.set("shapes", std::move(jShapes));
    ahfic::obs::writeBenchFile(jsonPath, "fig9_ft_vs_ic", std::move(payload),
                               ahfic::obs::benchTimestampUtc());
    std::cout << "\nwrote " << jsonPath << "\n";
  }

  const auto& m = batch.manifest;
  std::cout << "\nExpected shape (paper): peak fT roughly constant across "
               "the family;\npeak-current grows with emitter length "
               "(~2x per step).\n";
  std::cout << "\n[runner] " << m.jobs.size() << " jobs on " << m.threads
            << " thread(s): " << m.countWithStatus(rn::JobStatus::kOk)
            << " ok, " << m.countWithStatus(rn::JobStatus::kRecovered)
            << " recovered, " << m.countWithStatus(rn::JobStatus::kFailed)
            << " failed, " << u::fixed(m.wallMs, 0) << " ms ("
            << u::fixed(m.throughputJobsPerSec(), 1) << " jobs/s)\n";
  obsOpts.finish(std::cout);
  return 0;
}
