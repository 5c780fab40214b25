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

/// The bias-solve policy of the fT harness: finds the Vbe at which the
/// common-emitter bias cell conducts a target collector current. The
/// search holds no circuit — the caller solves an operating point at
/// vbe() and hands the collector current back through report() — so
/// FtExtractor and BatchFtExtractor walk the same trajectory, and the
/// batch stays bit-identical to the scalar path.
///
/// Steps are secant steps on ln Ic(Vbe). The first guess is the card's
/// ideal-diode estimate nf*Vt*ln(Ic/IS), and the ideal slope 1/(nf*Vt)
/// stands in for the secant until two points are known. The
/// [kVbeMin, kVbeMax] bracket safeguards every step and shrinks onto
/// each solved point: a step that leaves it lands on the bracket end
/// if that end has not been solved yet (that solve is the range check)
/// and bisects otherwise. A point is accepted when
/// |Ic - target| < 1e-3 * target; after kMaxSolves solves the last one
/// stands.
class BiasSearch {
 public:
  static constexpr double kVbeMin = 0.3;
  static constexpr double kVbeMax = 1.15;
  static constexpr int kMaxSolves = 60;
  static constexpr const char* kOutOfRangeError =
      "FtExtractor: target current out of bias range";

  enum class Status {
    kSearching,   ///< solve at vbe() and report() again
    kSolved,      ///< vbe() is the bias; its solve was the last one
    kOutOfRange,  ///< a bracket end cannot reach the target
  };

  /// Throws on icTarget <= 0.
  BiasSearch(const spice::BjtModel& card, double icTarget);

  /// The Vbe to solve next; once solved, the bias found.
  double vbe() const { return vbe_; }
  Status status() const { return status_; }

  /// Reports the collector current of the operating point at vbe().
  /// While the search goes on, vbe() moves to the next step.
  Status report(double ic);

 private:
  /// Safeguards a proposed step against the bracket.
  double place(double v) const;

  double target_ = 0.0, lnTarget_ = 0.0;
  double idealSlope_ = 0.0;  ///< d ln Ic / dVbe of the ideal diode
  double lo_ = kVbeMin, hi_ = kVbeMax;
  bool loSolved_ = false, hiSolved_ = false;
  bool havePrev_ = false;
  double prevVbe_ = 0.0, prevF_ = 0.0;  ///< last point, f = ln(Ic/target)
  double vbe_ = 0.0;
  int solves_ = 0;
  Status status_ = Status::kSearching;
};

/// Measures fT of one transistor model biased at Vce (default 2 V).
/// `opts` is handed to every internal Analyzer, so callers (notably the
/// runner's retry ladder) can loosen tolerances without rebuilding the
/// harness.
class FtExtractor {
 public:
  explicit FtExtractor(spice::BjtModel model, double vce = 2.0,
                       spice::AnalysisOptions opts = {});

  /// Solves for the Vbe that produces collector current `ic` (BiasSearch
  /// over operating points), then extracts fT by the AC method.
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
  /// A solved bias: the Vbe and the cell's operating point there.
  struct Bias {
    double vbe = 0.0;
    std::vector<double> x;
  };
  /// Runs a BiasSearch for ic(vbe) = target on `cell`; throws when the
  /// target is out of the cell's range.
  Bias solveBias(BiasCell& cell, double icTarget) const;
  /// The public entry points on a caller's cell, so findPeak's scan
  /// builds one cell for all its points.
  FtPoint measureAt(BiasCell& cell, double ic) const;
  double maxBiasCurrent(BiasCell& cell) const;
  /// Adds one internal Analyzer's counters to the accumulator.
  void absorb(const spice::AnalyzerStats& s) const;

  spice::BjtModel model_;
  double vce_;
  spice::AnalysisOptions opts_;
  mutable spice::AnalyzerStats stats_;
};

}  // namespace ahfic::bjtgen
