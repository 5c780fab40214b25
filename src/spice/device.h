#pragma once
// Device base class and the context passed to device loads.
//
// A Device owns its connectivity (node unknown-ids) and its model-card
// reference, and knows how to stamp itself into the real (DC/transient) and
// complex (AC) MNA systems. Dynamic devices (capacitors, inductors, BJT
// junction charges) integrate charge/flux states held in engine-owned state
// vectors; each device is assigned a contiguous window of state slots.

#include <string>
#include <vector>

#include "spice/solution.h"
#include "spice/stamp.h"

namespace ahfic::spice {

class Circuit;
class Device;

/// One equivalent noise current source between two unknowns, used by the
/// noise analysis. `white` is the flat spectral density; `flicker`
/// contributes flicker/f (both A^2/Hz at frequency f).
struct NoiseSourceDesc {
  int a = 0;           ///< current injected into this unknown's node
  int b = 0;           ///< ... and drawn from this one
  double white = 0.0;  ///< [A^2/Hz]
  double flicker = 0.0;///< [A^2] (divided by f)
  std::string label;   ///< "R1 thermal", "Q3 collector shot", ...

  double psdAt(double f) const {
    return white + (flicker > 0.0 && f > 0.0 ? flicker / f : 0.0);
  }
};

/// What kind of real-valued solve the engine is performing.
enum class AnalysisMode {
  kDcOp,       ///< operating point: charges static, dq/dt = 0
  kTransient,  ///< time stepping with companion models
};

/// Numerical integration method for transient.
enum class IntegMethod {
  kBackwardEuler,
  kTrapezoidal,
};

/// Context handed to Device::load on every Newton iteration.
///
/// Charge integration convention: a device with a charge state q evaluates
/// q(v) at the candidate solution and computes
///     dq/dt = c0 * (q - qPrev) - trapFactor * dqdtPrev
/// where c0 = 1/h (BE, trapFactor 0) or 2/h (trap, trapFactor 1).
/// In DC (c0 == 0) dq/dt is identically zero: capacitors are open and
/// inductors are shorts. Devices must still *record* their states so the
/// first transient step starts from the OP charges.
struct LoadContext {
  AnalysisMode mode = AnalysisMode::kDcOp;
  double time = 0.0;       ///< current transient time (0 in DC)
  double c0 = 0.0;         ///< integrator coefficient d(dq/dt)/dq
  double trapFactor = 0.0; ///< 1 for trapezoidal, 0 for BE / DC
  double gmin = 1e-12;     ///< junction shunt conductance (homotopy ramps it)
  double srcScale = 1.0;   ///< independent-source scale (source stepping)
  std::vector<double>* state = nullptr;        ///< states being written
  const std::vector<double>* prevState = nullptr;   ///< last accepted q
  const std::vector<double>* prevDstate = nullptr;  ///< last accepted dq/dt
  /// Set by devices whenever junction-voltage limiting altered their
  /// evaluation point this iteration; the engine then refuses to declare
  /// convergence (the stamped linearisation is not at the candidate).
  bool* limited = nullptr;
  /// When convergence forensics are recording, the engine points this at
  /// a per-iteration log and limiting devices append themselves; null
  /// (the default) on the regular hot path.
  std::vector<const Device*>* limitLog = nullptr;

  /// Devices call this after pnjlim to report active limiting. The
  /// three-argument form additionally attributes the event to `who` for
  /// the forensics recorder.
  void noteLimited(double vLimited, double vCandidate) const {
    if (limited != nullptr && vLimited != vCandidate) *limited = true;
  }
  void noteLimited(double vLimited, double vCandidate,
                   const Device* who) const {
    if (vLimited == vCandidate) return;
    if (limited != nullptr) *limited = true;
    if (limitLog != nullptr) limitLog->push_back(who);
  }

  /// dq/dt under the active integration rule for state slot `idx` given the
  /// freshly evaluated charge `q`; records q into `state`.
  double integrate(int idx, double q) const {
    (*state)[static_cast<size_t>(idx)] = q;
    if (c0 == 0.0) return 0.0;
    const double qPrev = (*prevState)[static_cast<size_t>(idx)];
    const double dPrev = (*prevDstate)[static_cast<size_t>(idx)];
    return c0 * (q - qPrev) - trapFactor * dPrev;
  }
};

/// Abstract circuit element.
class Device {
 public:
  Device(std::string name, std::vector<int> nodes)
      : name_(std::move(name)), nodes_(std::move(nodes)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<int>& nodes() const { return nodes_; }

  /// Number of extra branch-current unknowns this device needs.
  virtual int branchCount() const { return 0; }
  /// Number of charge/flux state slots this device needs.
  virtual int stateCount() const { return 0; }

  /// Called by the engine before an analysis with the id of this device's
  /// first branch unknown (ids are contiguous).
  void assignBranchBase(int id) { branchBase_ = id; }
  int branchBase() const { return branchBase_; }
  /// Unknown id of branch `k` of this device.
  int branchId(int k = 0) const { return branchBase_ + k; }

  /// Called by the engine with the index of this device's first state slot.
  void assignStateBase(int idx) { stateBase_ = idx; }
  int stateBase() const { return stateBase_; }

  /// Stamps the linearised device into the real MNA system at candidate
  /// solution `x`. Called every Newton iteration of OP and transient.
  virtual void load(Stamper& s, const Solution& x,
                    const LoadContext& ctx) = 0;

  /// Stamps the small-signal model, linearised at operating point `op`,
  /// into the complex MNA system at angular frequency `omega`.
  virtual void loadAc(AcStamper& s, const Solution& op, double omega) = 0;

  /// Nonlinear devices force Newton iteration (and perform junction-voltage
  /// limiting internally, SPICE style: load() evaluates at a limited
  /// junction voltage remembered across iterations).
  virtual bool isNonlinear() const { return false; }

  /// True for a linear device whose load() writes matrix entries only —
  /// no RHS, no charge state — independent of the candidate solution,
  /// time and LoadContext. The engine stamps such a device once into its
  /// cached linear baseline and skips it in the per-iteration RHS pass.
  virtual bool matrixOnly() const { return false; }

  /// Called once before each Newton solve (OP attempt or transient step) so
  /// devices can seed their limiting history from the starting point `x`.
  virtual void beginSolve(const Solution& x) { (void)x; }

  /// Appends this device's equivalent noise current sources, linearised at
  /// operating point `op`, for circuit temperature `tempK`. Noiseless
  /// devices (sources, ideal controlled sources, C, L) append nothing.
  virtual void appendNoise(std::vector<NoiseSourceDesc>& out,
                           const Solution& op, double tempK) const {
    (void)out;
    (void)op;
    (void)tempK;
  }

  /// The stamp-plan variants a device keeps (see stamp.h). A load's
  /// stamp sequence is fixed by the device's instance constants plus
  /// whether charge companions are active (LoadContext::c0 != 0), so the
  /// real path needs one plan per integrator state and the complex path
  /// one more.
  enum class StampVariant { kDc, kTransient, kAc };
  /// The plan recorded for `v` (ReplicaBatch replays a device's DC plan
  /// without calling load()).
  const StampPlan& stampPlan(StampVariant v) const {
    return plans_[static_cast<int>(v)];
  }

 protected:
  /// The plan a load()/loadAc() binds its SlotWriter to.
  StampPlan& stampPlan(const LoadContext& ctx) {
    return plans_[static_cast<int>(ctx.c0 != 0.0 ? StampVariant::kTransient
                                                 : StampVariant::kDc)];
  }
  StampPlan& stampPlanAc() {
    return plans_[static_cast<int>(StampVariant::kAc)];
  }

 private:
  std::string name_;
  std::vector<int> nodes_;
  int branchBase_ = -1;
  int stateBase_ = -1;
  StampPlan plans_[3];
};

}  // namespace ahfic::spice
