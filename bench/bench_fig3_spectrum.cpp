// Reproduces Fig. 3 ("Frequency spectrum of double-super tuner") and the
// Fig. 4 system's effect on it.
//
// Part 1 — conventional tuner (Fig. 2): an input containing the tuned
// channel RF1 and the image channel RF2 is up-converted to rf1/rf2 at the
// 1st IF (both inside the band-pass) and down-converted; both land on the
// same 45 MHz 2nd IF — the image problem.
//
// Part 2 — image-rejection tuner (Fig. 4): the same input; the image's
// 2nd-IF contribution is suppressed by the quadrature mixer/combiner.

#include <iostream>

#include "ahdl/system.h"
#include "obs/cli.h"
#include "tuner/doublesuper.h"
#include "tuner/irr.h"
#include "util/error.h"
#include "util/fft.h"
#include "util/numeric.h"
#include "util/table.h"
#include "util/units.h"

namespace tn = ahfic::tuner;
namespace ah = ahfic::ahdl;
namespace u = ahfic::util;

namespace {

struct ChainResult {
  double firstIfWanted, firstIfImage;
  double secondIfWanted;         // wanted-only run
  double secondIfFromImage;      // image-only run
};

ChainResult measureChain(bool imageReject) {
  tn::FrequencyPlan plan;
  ChainResult r{};

  auto runOnce = [&](bool imageOnly, double& if1Wanted, double& if1Image,
                     double& if2Amp) {
    ah::System sys;
    tn::TunerStimulus stim;
    stim.rfTuned = 500e6;
    stim.tunedAmplitude = imageOnly ? 1e-30 : 1.0;
    stim.imageAmplitude = imageOnly ? 1.0 : 1e-30;
    tn::TunerSignals sigs;
    if (imageReject) {
      tn::ImageRejectImpairments imp;  // ideal hardware for the spectrum
      sigs = buildImageRejectTuner(sys, plan, stim, imp);
    } else {
      sigs = buildConventionalTuner(sys, plan, stim);
    }
    sys.probe(sigs.firstIf);
    sys.probe(sigs.secondIf);
    const double fs = tn::recommendedSampleRate(plan, stim);
    const auto res = sys.run(1.8e-6, fs, 0.8e-6);
    if1Wanted = u::toneAmplitude(res.trace(sigs.firstIf), fs, plan.if1);
    if1Image =
        u::toneAmplitude(res.trace(sigs.firstIf), fs, plan.if1Image());
    if2Amp = u::toneAmplitude(res.trace(sigs.secondIf), fs, plan.if2);
  };

  double dummy1, dummy2;
  runOnce(false, r.firstIfWanted, dummy1, r.secondIfWanted);
  runOnce(true, dummy2, r.firstIfImage, r.secondIfFromImage);
  return r;
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

  tn::FrequencyPlan plan;
  std::cout << "== Fig. 3: frequency plan of the double-super tuner ==\n"
            << "RF band:            " << u::formatFrequency(plan.rfMin)
            << " .. " << u::formatFrequency(plan.rfMax) << "\n"
            << "tuned channel RF1:  " << u::formatFrequency(500e6) << "\n"
            << "image channel RF2:  " << u::formatFrequency(plan.rfImage(500e6))
            << "\n"
            << "up LO (Fup):        " << u::formatFrequency(plan.upLo(500e6))
            << "\n"
            << "1st IF (wanted):    " << u::formatFrequency(plan.if1) << "\n"
            << "1st IF (image):     " << u::formatFrequency(plan.if1Image())
            << "\n"
            << "down LO (Fdown):    " << u::formatFrequency(plan.downLo())
            << "\n"
            << "2nd IF:             " << u::formatFrequency(plan.if2)
            << "  <- BOTH rf1 and rf2 land here\n\n";

  const auto conv = measureChain(/*imageReject=*/false);
  const auto rej = measureChain(/*imageReject=*/true);

  u::Table table({"Chain", "wanted @ 2nd IF", "image @ 2nd IF",
                  "image suppression"});
  auto db = [](double x) { return u::toDb(x); };
  table.addRow({"conventional (Fig. 2)",
                u::fixed(db(conv.secondIfWanted), 1) + " dB",
                u::fixed(db(conv.secondIfFromImage), 1) + " dB",
                u::fixed(db(conv.secondIfWanted) -
                             db(conv.secondIfFromImage),
                         1) +
                    " dB"});
  table.addRow({"image-reject (Fig. 4)",
                u::fixed(db(rej.secondIfWanted), 1) + " dB",
                u::fixed(db(rej.secondIfFromImage), 1) + " dB",
                u::fixed(db(rej.secondIfWanted) -
                             db(rej.secondIfFromImage),
                         1) +
                    " dB"});
  table.print(std::cout);

  std::cout << "\n1st-IF band-pass passes both tones (the filter cannot "
               "separate them):\n"
            << "  wanted at 1st IF: " << u::fixed(db(conv.firstIfWanted), 1)
            << " dB,  image at 1st IF: "
            << u::fixed(db(conv.firstIfImage), 1) << " dB\n"
            << "\nExpected shape (paper): the conventional chain passes "
               "the image onto the\n2nd IF nearly unattenuated; the "
               "image-rejection mixer suppresses it by the IRR.\n";
  obsOpts.finish(std::cout);
  return 0;
}
