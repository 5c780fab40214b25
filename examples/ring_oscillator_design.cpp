// The paper's Sec. 4 design flow: pick the transistor shape for a
// high-speed circuit whose topology and operating current are fixed.
//
//   1. The ring oscillator's current budget fixes Ic per switch at 3 mA.
//   2. Generate geometry-aware model cards for the candidate shapes.
//   3. Compare fT at the operating current (Fig. 9 reading).
//   4. Confirm with full transient simulations of the Fig. 11 oscillator
//      (Table 1) and pick the winner.
//
// Steps 3 and 4 are independent per shape, so both run as batches on the
// job engine. Usage: ring_oscillator_design [--jobs N]

#include <cstring>
#include <iostream>
#include <vector>

#include "bjtgen/ft.h"
#include "bjtgen/generator.h"
#include "bjtgen/ringosc.h"
#include "obs/cli.h"
#include "runner/engine.h"
#include "runner/workloads.h"
#include "util/error.h"
#include "util/table.h"
#include "util/units.h"

namespace bg = ahfic::bjtgen;
namespace rn = ahfic::runner;
namespace u = ahfic::util;

int main(int argc, char** argv) {
  int jobs = 0;
  try {
    for (int k = 1; k < argc; ++k)
      if (std::strcmp(argv[k], "--jobs") == 0)
        jobs = ahfic::obs::countArg(argc, argv, k);
  } catch (const ahfic::Error& e) {
    std::cerr << argv[0] << ": " << e.what() << "\nusage: " << argv[0]
              << " [--jobs N]\n";
    return 2;
  }

  const auto gen = bg::ModelGenerator::withDefaultTechnology();
  const double icOperating = 3e-3;
  const auto shapes = bg::fig8Shapes();

  std::cout << "== Shape selection for the 5-stage ECL ring oscillator ==\n"
            << "Fixed by the design: topology, VCC = 5 V, tail current "
            << u::fixed(icOperating * 1e3, 0) << " mA.\n\n";

  rn::RunnerOptions ropts;
  ropts.threads = jobs;
  ropts.useCache = false;
  rn::BatchRunner runner(ropts);

  // Step 1 batch: fT at the operating current + peak location per shape.
  auto ftJobs = rn::fig9SweepJobs(gen, shapes, {icOperating}, "sec4-ft");
  const size_t atIcCount = ftJobs.size();
  for (auto& job : rn::ftPeakJobs(gen, shapes, 0.1e-3, 30e-3, 15,
                                  "sec4-peak"))
    ftJobs.push_back(std::move(job));
  const auto ftBatch = runner.run(ftJobs);

  std::cout << "Step 1: generated cards and fT at the operating "
               "current:\n\n";
  u::Table shapeTable(
      {"Shape", "RB [ohm]", "CJC [fF]", "fT @ 3 mA", "fT peak Ic"});
  for (size_t s = 0; s < shapes.size(); ++s) {
    const auto card = gen.generate(shapes[s]);
    const auto& atIc = ftBatch.outcomes[s];  // one current per shape
    const auto& peak = ftBatch.outcomes[atIcCount + s];
    shapeTable.addRow(
        {shapes[s].name(), u::fixed(card.rb, 0),
         u::fixed(card.cjc * 1e15, 1),
         atIc.ok() && !atIc.result.has("skipped")
             ? u::formatFrequency(atIc.result.get("ft"))
             : "failed",
         u::fixed(peak.result.get("icPeak") * 1e3, 2) + " mA"});
  }
  shapeTable.print(std::cout);

  // Step 2 batch: one full transient per candidate shape.
  std::cout << "\nStep 2: confirm with transient simulation of the full "
               "oscillator:\n\n";
  bg::RingOscillatorSpec spec;
  spec.tailCurrent = icOperating;
  spec.followerModel = gen.generate("N1.2-6D");
  const auto ringBatch =
      runner.run(rn::ringShapeJobs(gen, shapes, spec, 10.0, 3.0, "sec4"));

  u::Table ringTable({"Shape", "free-running frequency"});
  std::string best;
  double bestF = 0.0;
  for (size_t s = 0; s < shapes.size(); ++s) {
    const auto& out = ringBatch.outcomes[s];
    const bool osc = out.ok() && out.result.get("oscillating") > 0.5;
    const double f = out.result.get("frequency");
    ringTable.addRow(
        {shapes[s].name(), osc ? u::formatFrequency(f) : "no oscillation"});
    if (osc && f > bestF) {
      bestF = f;
      best = shapes[s].name();
    }
  }
  ringTable.print(std::cout);

  std::cout << "\nSelected shape: " << best << " ("
            << u::formatFrequency(bestF) << ")\n"
            << "\"Without this technique, it would have been difficult to "
               "determine the\nshapes of the transistors which best fit "
               "the circuit.\" (Sec. 4)\n";
  return 0;
}
