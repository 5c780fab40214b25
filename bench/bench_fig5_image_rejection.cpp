// Reproduces Fig. 5: "AHDL simulation result of image rejection tuner" —
// image rejection ratio vs phase error, gain balance as the curve
// parameter.
//
// Prints the simulated (time-domain AHDL) value next to the analytic
// phasor formula for every grid point. The paper's reading example — a
// 30 dB system requirement — is checked explicitly at the end.

#include <cstdio>
#include <iostream>
#include <vector>

#include "obs/cli.h"
#include "tuner/irr.h"
#include "util/error.h"
#include "util/table.h"

namespace tn = ahfic::tuner;
namespace u = ahfic::util;

int main(int argc, char** argv) {
  ahfic::obs::CliOptions obsOpts;
  try {
    for (int k = 1; k < argc; ++k) obsOpts.consume(argc, argv, k);
  } catch (const ahfic::Error& e) {
    return ahfic::obs::usageError(std::cerr, argv[0], e.what(), "");
  }
  obsOpts.begin();

  std::cout << "== Fig. 5: image rejection ratio vs phase error ==\n"
            << "(simulated via the behavioural Fig. 4 tuner; analytic in "
               "parentheses; dB)\n\n";

  const std::vector<double> gains = {0.01, 0.03, 0.05, 0.07, 0.09};
  const std::vector<double> phases = {0.0, 1.0, 2.0, 3.0, 4.0,
                                      5.0, 6.0, 8.0, 10.0};

  std::vector<std::string> header = {"phase err [deg]"};
  for (double g : gains)
    header.push_back("gain " + u::fixed(g * 100.0, 0) + "%");
  u::Table table(header);

  for (double phi : phases) {
    std::vector<std::string> row = {u::fixed(phi, 1)};
    for (double g : gains) {
      tn::ImageRejectImpairments imp;
      imp.loPhaseErrorDeg = phi;
      imp.gainImbalance = g;
      const double sim = tn::simulateImageRejectionDb(imp);
      const double an = tn::analyticImageRejectionDb(phi, g);
      row.push_back(u::fixed(sim, 1) + " (" + u::fixed(an, 1) + ")");
    }
    table.addRow(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\n== Spec derivation (paper's usage example) ==\n"
            << "System requirement: image rejection ratio >= 30 dB.\n";
  for (double g : gains) {
    // Largest phase error that still meets 30 dB at this gain balance.
    double feasible = -1.0;
    for (double phi = 0.0; phi <= 10.0; phi += 0.1) {
      if (tn::analyticImageRejectionDb(phi, g) >= 30.0) feasible = phi;
    }
    if (feasible >= 0.0)
      std::printf(
          "  gain balance %2.0f%%: phase error must stay <= %.1f deg\n",
          g * 100.0, feasible);
    else
      std::printf(
          "  gain balance %2.0f%%: cannot meet 30 dB at any phase error\n",
          g * 100.0);
  }
  obsOpts.finish(std::cout);
  return 0;
}
