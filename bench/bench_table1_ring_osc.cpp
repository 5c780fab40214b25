// Reproduces Table 1: "Free-running frequency of ring oscillator in which
// transistor shapes of Q1, Q2, Q5, Q6, ... are changed uniformly".
//
// The Fig. 11 five-stage ECL ring oscillator is built with each of the
// six Fig. 8 shapes in the differential pairs (followers fixed), and the
// free-running frequency is measured from the transient waveform. The
// paper's conclusion to reproduce: "the best shape for the transistors
// was N1.2-12D".
//
// One transient job per candidate shape, executed by the batch runner.
// Usage: bench_table1_ring_osc [--jobs N] [--json FILE]
//                              [--trace FILE] [--metrics FILE]

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bjtgen/generator.h"
#include "bjtgen/ringosc.h"
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
  int jobs = 0;
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

  bg::RingOscillatorSpec spec;
  spec.followerModel = gen.generate("N1.2-6D");

  std::cout << "== Table 1: ring-oscillator free-running frequency vs "
               "differential-pair shape ==\n"
            << "(5-stage ECL ring, tail current "
            << u::fixed(spec.tailCurrent * 1e3, 1)
            << " mA per stage, followers fixed at N1.2-6D)\n\n";

  const auto shapes = bg::fig8Shapes();
  rn::RunnerOptions ropts;
  ropts.threads = jobs;
  ropts.useCache = false;
  rn::BatchRunner runner(ropts);
  const auto batch =
      runner.run(rn::ringShapeJobs(gen, shapes, spec, 10.0, 3.0));

  struct Row {
    std::string shape;
    double freq;
    double swing;
    double emitterSizeUm2;
  };
  std::vector<Row> rows;
  for (size_t s = 0; s < shapes.size(); ++s) {
    const auto& out = batch.outcomes[s];
    const bool osc = out.ok() && out.result.get("oscillating") > 0.5;
    rows.push_back({shapes[s].name(), osc ? out.result.get("frequency") : 0.0,
                    out.result.get("peakToPeak"),
                    shapes[s].emitterArea() * 1e12});
  }

  u::Table table(
      {"Emitter size", "Shape of transistor", "Free-running frequency",
       "Output swing"});
  for (const auto& r : rows) {
    table.addRow({u::fixed(r.emitterSizeUm2, 1) + " um^2", r.shape,
                  r.freq > 0.0 ? u::formatFrequency(r.freq) : "no osc.",
                  u::fixed(r.swing, 2) + " V"});
  }
  table.print(std::cout);

  const auto best = std::max_element(
      rows.begin(), rows.end(),
      [](const Row& a, const Row& b) { return a.freq < b.freq; });
  std::cout << "\nBest shape: " << best->shape << " at "
            << u::formatFrequency(best->freq) << "\n"
            << "Paper's conclusion: \"the best shape for the transistors "
               "was N1.2-12D\" -> "
            << (best->shape == "N1.2-12D" ? "REPRODUCED" : "NOT reproduced")
            << "\n";

  if (!jsonPath.empty()) {
    u::JsonValue payload = u::JsonValue::object();
    payload.set("schema", "ahfic-bench-table1-v1");
    payload.set("bestShape", best->shape);
    payload.set("bestFrequencyHz", best->freq);
    u::JsonValue jRows = u::JsonValue::array();
    for (const auto& r : rows) {
      u::JsonValue e = u::JsonValue::object();
      e.set("shape", r.shape);
      e.set("frequencyHz", r.freq);
      e.set("peakToPeakV", r.swing);
      e.set("emitterAreaUm2", r.emitterSizeUm2);
      jRows.push(std::move(e));
    }
    payload.set("shapes", std::move(jRows));
    ahfic::obs::writeBenchFile(jsonPath, "table1_ring_osc",
                               std::move(payload),
                               ahfic::obs::benchTimestampUtc());
    std::cout << "\nwrote " << jsonPath << "\n";
  }

  const auto& m = batch.manifest;
  std::cout << "\n[runner] " << m.jobs.size() << " jobs on " << m.threads
            << " thread(s), " << u::fixed(m.wallMs, 0) << " ms, "
            << m.totalNewtonIterations() << " Newton iterations\n";
  obsOpts.finish(std::cout);
  return 0;
}
