#pragma once
// MnaCore: the modified-nodal-analysis set-up of one Circuit, shared by
// Analyzer and (once per replica) ReplicaBatch. It is the one place that
// assigns branch/state bases and splits the devices into linear,
// RHS-carrying and nonlinear; primes the real-path CsrPattern under a DC
// and a transient context; owns the real-path SparseLU (analyzed on
// demand, or adopting another core's symbolic analysis); stamps the
// static linear baseline; and decides Newton convergence through one
// per-unknown tolerance. Engines on cores of one topology therefore see
// the same layout, pattern, column order and convergence decisions —
// what the batched-vs-scalar bit-identity contract rests on.
//
// Construction mutates the devices (branch/state bases, and limiting
// history through the priming loads at zero bias), so build the core
// before any solve seeds that history, and add no devices afterwards.

#include <cstdint>
#include <utility>
#include <vector>

#include "spice/circuit.h"
#include "spice/csr.h"
#include "spice/solution.h"
#include "spice/sparse_lu.h"

namespace ahfic::spice {

struct AnalysisOptions;

class MnaCore {
 public:
  explicit MnaCore(Circuit& ckt);

  /// Total number of MNA unknowns (node voltages + branch currents).
  int unknownCount() const { return unknownCount_; }
  int stateCount() const { return stateCount_; }

  /// Linear devices with RHS or state work (the per-iteration RHS-only
  /// pass; the static baseline covers the matrix-only ones).
  const std::vector<Device*>& rhsDevices() const { return rhsDevs_; }
  /// Devices that restamp in full every Newton iteration.
  const std::vector<Device*>& nonlinearDevices() const {
    return nonlinearDevs_;
  }

  const CsrPattern& pattern() const { return pat_; }
  /// Same node, unknown and state counts and the same device split.
  bool sameLayout(const MnaCore& other) const;
  /// Same pattern structure (epochs aside).
  bool samePattern(const MnaCore& other) const;

  /// Folds `pending` positions into the pattern, clears `pending` and
  /// returns the number of positions that were new (pattern inserts).
  long grow(std::vector<std::pair<int, int>>& pending);

  /// The real-path solver, analyzed for the current pattern revision.
  SparseLU<double>& lu();
  /// Takes `other`'s symbolic analysis instead of running the ordering
  /// again; `other`'s pattern must have this core's structure.
  void adoptAnalysis(MnaCore& other);

  /// Stamps the linear devices' matrix baseline for `ctx` unless the
  /// cached one matches (pattern revision, integrator coefficient).
  /// Returns the pattern inserts a stamp outside the pattern caused.
  long prepareStatic(const Solution& x, const LoadContext& ctx);
  /// The slot-ordered baseline of the last prepareStatic().
  const std::vector<double>& staticValues() const { return staticVals_; }
  /// Forces the next prepareStatic() to restamp (device values changed).
  void invalidateStatic() { staticValid_ = false; }

  /// Newton convergence: every unknown of `xNew` lies within its
  /// tolerance of `x` (stops at the first that does not).
  bool converged(const AnalysisOptions& o, const std::vector<double>& x,
                 const std::vector<double>& xNew) const;
  /// The same test over every unknown, with the largest step and the
  /// worst step-to-tolerance ratio (for convergence forensics).
  struct ConvergenceScan {
    bool converged = true;
    double maxDelta = 0.0;
    double worstRatio = 0.0;
    int worstUnknown = 0;  ///< unknown id of worstRatio; 0 = none
  };
  ConvergenceScan scanConvergence(const AnalysisOptions& o,
                                  const std::vector<double>& x,
                                  const std::vector<double>& xNew) const;

  /// Monotonic nanoseconds for the solver-phase histograms; callers
  /// sample it only when metrics are enabled.
  static double nowNs();

 private:
  double tolerance(const AnalysisOptions& o, int i, double oldV,
                   double newV) const;

  Circuit* ckt_;
  int unknownCount_ = 0;
  int stateCount_ = 0;
  std::vector<Device*> linearDevs_, rhsDevs_, nonlinearDevs_;

  CsrPattern pat_;
  SparseLU<double> lu_;

  std::vector<double> staticVals_, scratchRhs_;
  std::vector<std::pair<int, int>> pending_;
  bool staticValid_ = false;
  std::uint64_t staticEpoch_ = 0;
  double staticC0_ = 0.0;
};

}  // namespace ahfic::spice
