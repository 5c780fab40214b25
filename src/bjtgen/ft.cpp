#include "bjtgen/ft.h"

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "spice/analysis.h"
#include "spice/bjt.h"
#include "spice/circuit.h"
#include "spice/sources.h"
#include "util/error.h"
#include "util/numeric.h"
#include "util/units.h"

namespace ahfic::bjtgen {

namespace sp = ahfic::spice;

BiasSearch::BiasSearch(const spice::BjtModel& card, double icTarget)
    : target_(icTarget) {
  if (!(icTarget > 0.0)) throw Error("FtExtractor: ic must be > 0");
  lnTarget_ = std::log(icTarget);
  // The bias cell runs at the 27 C default temperature.
  const double nfVt = card.nf * util::constants::thermalVoltage(27.0);
  idealSlope_ = 1.0 / nfVt;
  vbe_ = place(nfVt * std::log(icTarget / card.is));
}

double BiasSearch::place(double v) const {
  if (v > lo_ && v < hi_) return v;  // NaN falls through to bisection
  if (v <= lo_ && !loSolved_) return lo_;
  if (v >= hi_ && !hiSolved_) return hi_;
  return 0.5 * (lo_ + hi_);
}

BiasSearch::Status BiasSearch::report(double ic) {
  if (status_ != Status::kSearching) return status_;
  ++solves_;
  const double v = vbe_;
  // A first solve at a bracket end is the range check.
  if ((v == lo_ && !loSolved_ && target_ <= ic) ||
      (v == hi_ && !hiSolved_ && target_ >= ic))
    return status_ = Status::kOutOfRange;
  if (std::fabs(ic - target_) < 1e-3 * target_ || solves_ >= kMaxSolves)
    return status_ = Status::kSolved;

  if (ic < target_) {
    lo_ = v;
    loSolved_ = true;
  } else {
    hi_ = v;
    hiSolved_ = true;
  }
  double next;
  if (ic > 0.0) {
    const double f = std::log(ic) - lnTarget_;
    const double slope =
        havePrev_ ? (f - prevF_) / (v - prevVbe_) : idealSlope_;
    // A flat or inverted secant carries no step: bisect instead.
    next = slope > 0.0 ? v - f / slope
                       : std::numeric_limits<double>::quiet_NaN();
    havePrev_ = true;
    prevVbe_ = v;
    prevF_ = f;
  } else {
    // No logarithm to step on; Ic is below the target, so head up.
    next = std::numeric_limits<double>::infinity();
    havePrev_ = false;
  }
  vbe_ = place(next);
  return status_;
}

FtExtractor::FtExtractor(spice::BjtModel model, double vce,
                         spice::AnalysisOptions opts)
    : model_(model), vce_(vce), opts_(opts) {
  if (vce <= 0.0) throw Error("FtExtractor: vce must be > 0");
}

void FtExtractor::absorb(const spice::AnalyzerStats& s) const {
  stats_.newtonIterations += s.newtonIterations;
  stats_.matrixSolves += s.matrixSolves;
  stats_.acceptedSteps += s.acceptedSteps;
  stats_.rejectedSteps += s.rejectedSteps;
  stats_.gminSteps += s.gminSteps;
  stats_.sourceSteps += s.sourceSteps;
}

/// The voltage-driven common-emitter bias cell. Bias points differ only
/// in VB's value, so one circuit and one Analyzer serve them all: the
/// pattern, symbolic analysis and stamp memos are built once, and each
/// op() restarts exactly as on a fresh Analyzer.
class FtExtractor::BiasCell {
 public:
  BiasCell(const sp::BjtModel& model, double vce,
           const sp::AnalysisOptions& opts) {
    const int c = ckt_.node("c"), b = ckt_.node("b");
    vb_ = &ckt_.add<sp::VSource>("VB", b, 0, 0.0);
    vc_ = &ckt_.add<sp::VSource>("VC", c, 0, vce);
    q_ = &ckt_.add<sp::Bjt>("Q1", ckt_, c, b, 0, model);
    an_ = std::make_unique<sp::Analyzer>(ckt_, opts);
  }

  /// Operating point at base voltage `vbe`.
  std::vector<double> op(double vbe) {
    vb_->setWaveform(std::make_unique<sp::DcWaveform>(vbe));
    return an_->op();
  }
  const sp::AnalyzerStats& stats() const { return an_->stats(); }
  double collectorCurrent(const std::vector<double>& x) const {
    return -x[static_cast<size_t>(vc_->branchId() - 1)];
  }
  double baseCurrent(const std::vector<double>& x) const {
    return -x[static_cast<size_t>(vb_->branchId() - 1)];
  }
  const sp::Bjt& transistor() const { return *q_; }

 private:
  sp::Circuit ckt_;
  sp::VSource* vb_ = nullptr;
  sp::VSource* vc_ = nullptr;
  sp::Bjt* q_ = nullptr;
  std::unique_ptr<sp::Analyzer> an_;
};

FtExtractor::Bias FtExtractor::solveBias(BiasCell& cell,
                                         double icTarget) const {
  BiasSearch search(model_, icTarget);
  for (;;) {
    std::vector<double> x = cell.op(search.vbe());
    absorb(cell.stats());
    switch (search.report(cell.collectorCurrent(x))) {
      case BiasSearch::Status::kSearching:
        break;
      case BiasSearch::Status::kSolved:
        return {search.vbe(), std::move(x)};
      case BiasSearch::Status::kOutOfRange:
        throw Error(BiasSearch::kOutOfRangeError);
    }
  }
}

FtPoint FtExtractor::measureAt(double ic) const {
  BiasCell cell(model_, vce_, opts_);
  return measureAt(cell, ic);
}

FtPoint FtExtractor::measureAt(BiasCell& cell, double ic) const {
  static const obs::Counter extractions =
      obs::counter("bjtgen.ft_extractions");
  extractions.add();
  obs::ScopedSpan span("bjtgen.ft_extract", "bjtgen");

  FtPoint pt;
  pt.ic = ic;
  const Bias bias = solveBias(cell, ic);
  pt.vbe = bias.vbe;

  // Current-driven base reproducing the same operating point: ib from
  // the voltage-driven cell's solve at the found bias.
  const double ib = cell.baseCurrent(bias.x);
  if (ib <= 0.0) throw Error("FtExtractor: non-positive base current");

  sp::Circuit ckt;
  const int c = ckt.node("c"), b = ckt.node("b");
  ckt.add<sp::ISource>("IB", 0, b, ib, /*acMag=*/1.0);
  auto& vc = ckt.add<sp::VSource>("VC", c, 0, vce_);
  ckt.add<sp::Bjt>("Q1", ckt, c, b, 0, model_);
  sp::Analyzer an(ckt, opts_);
  const auto op = an.op();
  absorb(an.stats());

  auto h21At = [&](double f) {
    const auto ac = an.ac({f}, op);
    // Each reuse-path AC call opens a fresh stats window; fold it in so
    // solverStats() keeps counting the whole extraction.
    absorb(an.stats());
    return std::abs(ac.unknown(0, vc.branchId()));
  };

  // Find a probe frequency inside the -20 dB/decade region: |h21| must
  // halve per octave (within 12%) and still be comfortably above unity
  // extrapolation noise.
  double f = 0.5e9;
  double ft = 0.0;
  for (int iter = 0; iter < 24; ++iter) {
    const double h1 = h21At(f);
    const double h2 = h21At(2.0 * f);
    const double octaveRatio = h1 / h2;
    if (std::fabs(octaveRatio - 2.0) < 0.24) {
      ft = f * h1;
      break;
    }
    if (octaveRatio < 2.0) {
      f *= 2.0;  // still on the flat beta plateau
    } else {
      f *= 0.5;  // beyond the single-pole region (higher-order rolloff)
    }
    if (f < 1e6 || f > 1e12) break;
  }
  if (ft == 0.0) {
    // Fall back to direct unity-gain search.
    double fLo = 1e6, fHi = 1e12;
    for (int i = 0; i < 48; ++i) {
      const double mid = std::sqrt(fLo * fHi);
      if (h21At(mid) > 1.0)
        fLo = mid;
      else
        fHi = mid;
    }
    ft = std::sqrt(fLo * fHi);
  }
  pt.ft = ft;
  return pt;
}

FtPoint FtExtractor::measureAnalyticAt(double ic) const {
  static const obs::Counter extractions =
      obs::counter("bjtgen.ft_extractions");
  extractions.add();
  obs::ScopedSpan span("bjtgen.ft_extract_analytic", "bjtgen");

  FtPoint pt;
  pt.ic = ic;
  BiasCell cell(model_, vce_, opts_);
  const Bias bias = solveBias(cell, ic);
  pt.vbe = bias.vbe;
  pt.ft = cell.transistor().opInfo(sp::Solution(&bias.x)).ft();
  return pt;
}

std::vector<FtPoint> FtExtractor::sweep(
    const std::vector<double>& currents) const {
  std::vector<FtPoint> out;
  out.reserve(currents.size());
  for (double ic : currents) out.push_back(measureAt(ic));
  return out;
}

double FtExtractor::maxBiasCurrent() const {
  BiasCell cell(model_, vce_, opts_);
  return maxBiasCurrent(cell);
}

double FtExtractor::maxBiasCurrent(BiasCell& cell) const {
  return cell.collectorCurrent(cell.op(BiasSearch::kVbeMax));
}

FtPeak FtExtractor::findPeak(double icMin, double icMax, int points) const {
  if (!(icMin > 0.0) || icMax <= icMin || points < 3)
    throw Error("FtExtractor::findPeak: bad scan range");
  // One cell serves the whole scan: a reused cell's op() equals a fresh
  // one bit for bit.
  BiasCell cell(model_, vce_, opts_);
  icMax = std::min(icMax, 0.9 * maxBiasCurrent(cell));
  if (icMax <= icMin)
    throw Error("FtExtractor::findPeak: range above device capability");
  std::vector<double> ics, fts;
  const double ratio = std::pow(icMax / icMin, 1.0 / (points - 1));
  double ic = icMin;
  for (int i = 0; i < points; ++i, ic *= ratio) {
    const auto pt = measureAt(cell, ic);
    ics.push_back(pt.ic);
    fts.push_back(pt.ft);
  }
  const auto peak = util::findCurvePeak(ics, fts);
  return {peak.x, peak.y};
}

}  // namespace ahfic::bjtgen
