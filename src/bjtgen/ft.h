#pragma once
// fT (transition frequency) measurement harness.
//
// Reproduces the measurement behind the paper's Fig. 9: for a given model
// card, sweep collector current and extract fT. Two methods are provided:
//  * AC method: h21 = ic/ib from a small-signal analysis with the base
//    current-driven and the collector AC-grounded; in the -20 dB/decade
//    region fT = f * |h21(f)| (single-pole extrapolation) — this is how a
//    network analyser measurement is reduced.
//  * analytic method: gm / (2*pi*(Cpi + Cmu)) from the operating point.

#include <vector>

#include "spice/analysis.h"
#include "spice/models.h"

namespace ahfic::bjtgen {

/// One point of an fT-Ic characteristic.
struct FtPoint {
  double ic = 0.0;   ///< collector bias current [A]
  double vbe = 0.0;  ///< base-emitter bias found for that current [V]
  double ft = 0.0;   ///< transition frequency [Hz]
};

/// The peak of an fT-Ic curve.
struct FtPeak {
  double icPeak = 0.0;  ///< collector current of maximum fT [A]
  double ftPeak = 0.0;  ///< maximum fT [Hz]
};

/// Measures fT of one transistor model biased at Vce (default 2 V).
/// `opts` is handed to every internal Analyzer, so callers (notably the
/// runner's retry ladder) can loosen tolerances without rebuilding the
/// harness.
class FtExtractor {
 public:
  explicit FtExtractor(spice::BjtModel model, double vce = 2.0,
                       spice::AnalysisOptions opts = {});

  /// Solves for the Vbe that produces collector current `ic` (bisection on
  /// operating points), then extracts fT by the AC method.
  FtPoint measureAt(double ic) const;

  /// Same bias solve, but fT from the analytic operating-point formula.
  FtPoint measureAnalyticAt(double ic) const;

  /// AC-method sweep over the given currents.
  std::vector<FtPoint> sweep(const std::vector<double>& currents) const;

  /// Locates the fT peak over [icMin, icMax] with a log-spaced scan of
  /// `points` samples refined by parabolic interpolation. The upper bound
  /// is clamped to the largest current the bias cell can reach.
  FtPeak findPeak(double icMin, double icMax, int points = 25) const;

  /// The largest collector current reachable by the bias cell (deep high
  /// injection); sweep requests above ~90% of this are rejected.
  double maxBiasCurrent() const;

  /// Solver work accumulated over every measurement since construction
  /// (or the last resetSolverStats) — the per-job observability feed for
  /// the runner's manifests.
  const spice::AnalyzerStats& solverStats() const { return stats_; }
  void resetSolverStats() { stats_ = {}; }

 private:
  class BiasCell;  // voltage-driven bias circuit, reused across solves
  /// Finds vbe with ic(vbe) = target on `cell`; returns vbe.
  double solveBias(BiasCell& cell, double icTarget) const;
  /// Adds one internal Analyzer's counters to the accumulator.
  void absorb(const spice::AnalyzerStats& s) const;

  spice::BjtModel model_;
  double vce_;
  spice::AnalysisOptions opts_;
  mutable spice::AnalyzerStats stats_;
};

}  // namespace ahfic::bjtgen
