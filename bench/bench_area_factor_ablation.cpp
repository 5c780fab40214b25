// Ablation for the paper's Sec. 4 argument: SPICE's single AREA factor
// "is not sufficiently accurate for modeling important shape dependent
// parameters".
//
// For each Fig. 8 shape we compare
//   baseline  — the reference N1.2-6S card with the SPICE area factor
//   generated — the geometry-aware card from the model generator
// on (a) the parameter values themselves, (b) the predicted fT at the
// ring oscillator's operating current, and (c) the predicted
// ring-oscillator frequency. The baseline's error vs the geometry model
// is the cost of ignoring perimeter and stripe topology.

#include <cmath>
#include <iostream>

#include "bjtgen/ft.h"
#include "bjtgen/generator.h"
#include "bjtgen/ringosc.h"
#include "obs/cli.h"
#include "spice/bjt.h"
#include "spice/circuit.h"
#include "util/error.h"
#include "util/table.h"
#include "util/units.h"

namespace bg = ahfic::bjtgen;
namespace sp = ahfic::spice;
namespace u = ahfic::util;

namespace {

/// Area-factor-scaled copy of the reference card (what plain SPICE does
/// with "Q1 c b e ref <area>"). Uses the same scaling as the Bjt device.
sp::BjtModel baselineCard(const bg::ModelGenerator& gen, double area) {
  sp::Circuit scratch;
  auto& q = scratch.add<sp::Bjt>("Qtmp", scratch, scratch.node("c"),
                                 scratch.node("b"), 0, gen.referenceCard(),
                                 area);
  return q.scaledModel();
}

}  // namespace

int main(int argc, char** argv) {
  ahfic::obs::CliOptions obsOpts;
  try {
    for (int k = 1; k < argc; ++k) obsOpts.consume(argc, argv, k);
  } catch (const ahfic::Error& e) {
    return ahfic::obs::usageError(std::cerr, argv[0], e.what(), "");
  }
  obsOpts.begin();

  const auto gen = bg::ModelGenerator::withDefaultTechnology();

  std::cout << "== Ablation: SPICE AREA factor vs geometry-aware model "
               "generation ==\n\n"
            << "Parameter comparison (baseline -> generated):\n\n";

  u::Table params({"Shape", "area factor", "RB [ohm]", "RC [ohm]",
                   "CJC [fF]", "CJE [fF]"});
  for (const auto& shape : bg::fig8Shapes()) {
    const double af = gen.areaFactor(shape);
    const auto base = baselineCard(gen, af);
    const auto full = gen.generate(shape);
    auto cmp = [](double b, double g, int dec) {
      return u::fixed(b, dec) + " -> " + u::fixed(g, dec);
    };
    params.addRow({shape.name(), u::fixed(af, 2),
                   cmp(base.rb, full.rb, 0), cmp(base.rc, full.rc, 1),
                   cmp(base.cjc * 1e15, full.cjc * 1e15, 1),
                   cmp(base.cje * 1e15, full.cje * 1e15, 1)});
  }
  params.print(std::cout);

  std::cout << "\nPredicted fT at the ring oscillator's switch current "
               "(3 mA):\n\n";
  u::Table fts({"Shape", "fT baseline", "fT generated", "error"});
  for (const auto& shape : bg::fig8Shapes()) {
    const double af = gen.areaFactor(shape);
    bg::FtExtractor fxBase(baselineCard(gen, af));
    bg::FtExtractor fxFull(gen.generate(shape));
    const double ic = 3e-3;
    const double fb = fxBase.measureAt(ic).ft;
    const double ff = fxFull.measureAt(ic).ft;
    fts.addRow({shape.name(), u::formatFrequency(fb),
                u::formatFrequency(ff),
                u::fixed((fb / ff - 1.0) * 100.0, 1) + "%"});
  }
  fts.print(std::cout);

  std::cout << "\nPredicted ring-oscillator frequency (Table 1 vehicle):\n\n";
  bg::RingOscillatorSpec spec;
  spec.followerModel = gen.generate("N1.2-6D");
  u::Table ring({"Shape", "f baseline", "f generated", "error"});
  for (const auto& shape : bg::fig8Shapes()) {
    const double af = gen.areaFactor(shape);
    spec.diffPairModel = baselineCard(gen, af);
    const auto mb = bg::measureRingFrequency(spec, 10.0, 3.0);
    spec.diffPairModel = gen.generate(shape);
    const auto mf = bg::measureRingFrequency(spec, 10.0, 3.0);
    const bool both = mb.oscillating && mf.oscillating;
    ring.addRow({shape.name(),
                 mb.oscillating ? u::formatFrequency(mb.frequency) : "-",
                 mf.oscillating ? u::formatFrequency(mf.frequency) : "-",
                 both ? u::fixed((mb.frequency / mf.frequency - 1.0) * 100.0,
                                 1) +
                            "%"
                      : "-"});
  }
  ring.print(std::cout);

  std::cout << "\nExpected shape: the baseline is exact for the reference "
               "shape by construction\nand drifts for every other shape — "
               "most for the shapes whose area factor\nequals 2.0 but "
               "whose stripe topologies differ (N2.4-6D, N1.2x2-6S, "
               "N1.2-12D,\nN1.2x2-6T all collapse to the SAME baseline "
               "card while the geometry model\ndistinguishes them).\n";
  obsOpts.finish(std::cout);
  return 0;
}
