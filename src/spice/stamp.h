#pragma once
// Stamping interfaces through which devices contribute to the MNA system.
//
// `Stamper` (real, DC/transient) and `AcStamper` (complex, AC) hide the
// stamping target and perform the unknown-id -> row mapping, dropping any
// contribution that involves ground (id 0). The analyses stamp into a
// CsrPattern through CsrStamperT.
//
// The CSR target adds a slot protocol on top: a stamper bound to a
// CsrPattern exposes patternEpoch()/locateA() plus the value and RHS
// arrays behind them (slotValues()/rhsValues()), and devices wrap
// whatever stamper they are handed in a SlotWriter bound to one of their
// StampPlans. Which positions a device stamps, and in what order, is
// fixed by its instance constants plus the plan variant (DC, transient
// or AC; see Device::stampPlan), so the first load of a variant against
// a pattern revision records the slot of every addA call, and every
// later load is a pure replay of that list written in place: no binary
// search, no (row, col) comparison, no virtual call.

#include <complex>
#include <cstdint>
#include <utility>
#include <vector>

#include "spice/csr.h"

namespace ahfic::spice {

/// Sentinel slots used by the slot protocol below.
inline constexpr int kStampSlotGround = -1;  ///< touches ground; dropped
inline constexpr int kStampSlotMiss = -2;    ///< not in the pattern (yet)

/// One device's recorded stamp positions for one variant: the value-array
/// slot (or kStampSlotGround) of every addA call, in call order. Valid
/// only for the pattern revision named by `epoch`; 0 means not recorded
/// (never loaded, or the recording pass hit a pattern miss).
struct StampPlan {
  std::uint64_t epoch = 0;
  std::vector<int> slots;
};

/// Real-valued stamping target for DC and transient loads.
class Stamper {
 public:
  virtual ~Stamper() = default;

  /// Adds `v` to matrix entry (row of `idRow`, column of `idCol`).
  virtual void addA(int idRow, int idCol, double v) = 0;
  /// Adds `v` to the right-hand side at `idRow`.
  virtual void addRhs(int idRow, double v) = 0;

  /// Epoch of the CSR pattern this stamper writes through, or 0 when the
  /// backend has no stable slot addressing (dense, pattern discovery).
  virtual std::uint64_t patternEpoch() const { return 0; }
  /// Slot for (idRow, idCol): a value-array index, kStampSlotGround, or
  /// kStampSlotMiss. Only meaningful when patternEpoch() != 0.
  virtual int locateA(int idRow, int idCol) {
    (void)idRow;
    (void)idCol;
    return kStampSlotMiss;
  }
  /// The arrays locateA()'s slots and the row ids index: the
  /// slot-ordered matrix values and the 0-based RHS. Null when the
  /// backend has none; a SlotWriter then forwards to addA()/addRhs().
  virtual double* slotValues() { return nullptr; }
  virtual double* rhsValues() { return nullptr; }

  /// Conductance `g` between unknowns `a` and `b` (two-terminal element).
  void addConductance(int a, int b, double g) {
    addA(a, a, g);
    addA(b, b, g);
    addA(a, b, -g);
    addA(b, a, -g);
  }

  /// Transconductance: current g*(v(cp)-v(cn)) flowing from `a` to `b`
  /// (out of a, into b... specifically: into node a is -g*vc, into b +g*vc).
  void addTransconductance(int a, int b, int cp, int cn, double g) {
    addA(a, cp, g);
    addA(a, cn, -g);
    addA(b, cp, -g);
    addA(b, cn, g);
  }

  /// Independent current `i` flowing *into* unknown `id`'s node.
  void addCurrent(int id, double i) { addRhs(id, i); }

  /// Companion-model stamp for a nonlinear branch from `a` to `b` carrying
  /// current i(v) with v = v(a)-v(b): conductance g = di/dv and equivalent
  /// source ieq = i(v*) - g*v*.
  void addNonlinearBranch(int a, int b, double g, double ieq) {
    addConductance(a, b, g);
    addRhs(a, -ieq);
    addRhs(b, ieq);
  }
};

/// Complex-valued stamping target for AC small-signal loads.
class AcStamper {
 public:
  virtual ~AcStamper() = default;

  virtual void addA(int idRow, int idCol, std::complex<double> v) = 0;
  virtual void addRhs(int idRow, std::complex<double> v) = 0;

  /// Slot protocol; see Stamper for semantics.
  virtual std::uint64_t patternEpoch() const { return 0; }
  virtual int locateA(int idRow, int idCol) {
    (void)idRow;
    (void)idCol;
    return kStampSlotMiss;
  }
  virtual std::complex<double>* slotValues() { return nullptr; }
  virtual std::complex<double>* rhsValues() { return nullptr; }

  void addAdmittance(int a, int b, std::complex<double> y) {
    addA(a, a, y);
    addA(b, b, y);
    addA(a, b, -y);
    addA(b, a, -y);
  }

  void addTransadmittance(int a, int b, int cp, int cn,
                          std::complex<double> y) {
    addA(a, cp, y);
    addA(a, cn, -y);
    addA(b, cp, -y);
    addA(b, cn, y);
  }
};

/// CSR-backed stamper (real or complex): values land in a slot-ordered
/// array parallel to the pattern's colIdx(). Positions missing from the
/// pattern are collected into `pending` (as 0-based matrix coordinates)
/// instead of being written; the engine grows the pattern and re-stamps,
/// so no contribution is ever silently lost.
template <typename Base, typename V>
class CsrStamperT final : public Base {
 public:
  CsrStamperT(const CsrPattern& pat, std::vector<V>& vals,
              std::vector<V>& rhs,
              std::vector<std::pair<int, int>>* pending = nullptr)
      : pat_(pat), vals_(vals), rhs_(rhs), pending_(pending) {}

  void addA(int r, int c, V v) override {
    if (r <= 0 || c <= 0) return;
    const int slot = pat_.slot(r - 1, c - 1);
    if (slot < 0) {
      if (pending_ != nullptr) pending_->emplace_back(r - 1, c - 1);
      return;
    }
    vals_[static_cast<size_t>(slot)] += v;
  }
  void addRhs(int r, V v) override {
    if (r > 0) rhs_[static_cast<size_t>(r - 1)] += v;
  }

  std::uint64_t patternEpoch() const override { return pat_.epoch(); }
  int locateA(int r, int c) override {
    if (r <= 0 || c <= 0) return kStampSlotGround;
    const int slot = pat_.slot(r - 1, c - 1);
    return slot < 0 ? kStampSlotMiss : slot;
  }
  V* slotValues() override { return vals_.data(); }
  V* rhsValues() override { return rhs_.data(); }

 private:
  const CsrPattern& pat_;
  std::vector<V>& vals_;
  std::vector<V>& rhs_;
  std::vector<std::pair<int, int>>* pending_;
};

using CsrStamper = CsrStamperT<Stamper, double>;
using CsrAcStamper = CsrStamperT<AcStamper, std::complex<double>>;

/// Device-side front end over any stamper, bound to one StampPlan.
/// Constructed in a device's load()/loadAc() around the stamper it was
/// handed, it runs in one of three modes:
///   - forward: the backend has no slot arrays (pattern discovery, the
///     RHS-only and state-only passes, test stampers); every call goes
///     to the stamper;
///   - record: the plan was not recorded against this pattern revision;
///     every addA resolves its slot through locateA(), appends it to the
///     plan and writes in place. A position missing from the pattern
///     goes through the stamper's addA() so it reaches `pending`, and
///     leaves the plan unrecorded so the next load records it again;
///   - replay: the plan matches; addA writes `vals[plan[i++]] += v`.
/// RHS writes go straight into the backend's RHS array when it has one.
/// The second constructor is replay-only over raw arrays, for engines
/// that evaluate a device's stamp sequence without the device
/// (ReplicaBatch). Mirrors the convenience helpers of
/// Stamper/AcStamper.
template <typename S, typename V>
class SlotWriterT {
 public:
  SlotWriterT(S& s, StampPlan& plan) : s_(&s), rhs_(s.rhsValues()) {
    const std::uint64_t e = s.patternEpoch();
    if (e == 0 || (vals_ = s.slotValues()) == nullptr) return;
    if (plan.epoch == e) {
      mode_ = Mode::kReplay;
      next_ = plan.slots.data();
      return;
    }
    mode_ = Mode::kRecord;
    plan_ = &plan;
    epoch_ = e;
    plan.epoch = 0;
    plan.slots.clear();
  }
  /// Replay-only writer: `plan` must be recorded against the pattern
  /// `vals` is laid out for; `rhs` is the 0-based RHS.
  SlotWriterT(const StampPlan& plan, V* vals, V* rhs)
      : rhs_(rhs),
        vals_(vals),
        next_(plan.slots.data()),
        mode_(Mode::kReplay) {}
  ~SlotWriterT() {
    if (mode_ == Mode::kRecord && !missed_) plan_->epoch = epoch_;
  }
  SlotWriterT(const SlotWriterT&) = delete;
  SlotWriterT& operator=(const SlotWriterT&) = delete;

  void addA(int r, int c, V v) {
    if (mode_ == Mode::kReplay) [[likely]] {
      const int slot = *next_++;
      if (slot >= 0) vals_[slot] += v;
      return;
    }
    recordOrForward(r, c, v);
  }
  void addRhs(int r, V v) {
    if (rhs_ == nullptr)
      s_->addRhs(r, v);
    else if (r > 0)
      rhs_[r - 1] += v;
  }

  // Stamper-style helpers (real path).
  void addConductance(int a, int b, V g) {
    addA(a, a, g);
    addA(b, b, g);
    addA(a, b, -g);
    addA(b, a, -g);
  }
  void addTransconductance(int a, int b, int cp, int cn, V g) {
    addA(a, cp, g);
    addA(a, cn, -g);
    addA(b, cp, -g);
    addA(b, cn, g);
  }
  void addCurrent(int id, V i) { addRhs(id, i); }
  void addNonlinearBranch(int a, int b, V g, V ieq) {
    addConductance(a, b, g);
    addRhs(a, -ieq);
    addRhs(b, ieq);
  }

  // AcStamper-style helpers (complex path).
  void addAdmittance(int a, int b, V y) { addConductance(a, b, y); }
  void addTransadmittance(int a, int b, int cp, int cn, V y) {
    addTransconductance(a, b, cp, cn, y);
  }

 private:
  enum class Mode : unsigned char { kForward, kRecord, kReplay };

  // Out of line so the replay path above stays small enough to inline
  // into every device's stamp sequence.
  [[gnu::noinline]] void recordOrForward(int r, int c, V v) {
    if (mode_ == Mode::kForward) {
      s_->addA(r, c, v);
      return;
    }
    const int slot = s_->locateA(r, c);
    plan_->slots.push_back(slot);
    if (slot >= 0) {
      vals_[slot] += v;
    } else if (slot == kStampSlotMiss) {
      missed_ = true;
      s_->addA(r, c, v);  // keeps feeding `pending` until the pattern grows
    }
  }

  S* s_ = nullptr;
  V* rhs_;
  V* vals_ = nullptr;
  const int* next_ = nullptr;  ///< replay cursor into the plan
  StampPlan* plan_ = nullptr;  ///< plan being recorded
  std::uint64_t epoch_ = 0;    ///< revision being recorded against
  bool missed_ = false;
  Mode mode_ = Mode::kForward;
};

using SlotWriter = SlotWriterT<Stamper, double>;
using AcSlotWriter = SlotWriterT<AcStamper, std::complex<double>>;

/// Structure-discovery stamper: records every non-ground matrix position
/// (0-based) a load touches and ignores values/RHS. The engine runs the
/// device list through this once per topology to prime the CsrPattern.
template <typename Base, typename V>
class PatternStamperT final : public Base {
 public:
  explicit PatternStamperT(std::vector<std::pair<int, int>>& out)
      : out_(out) {}
  void addA(int r, int c, V) override {
    if (r > 0 && c > 0) out_.emplace_back(r - 1, c - 1);
  }
  void addRhs(int, V) override {}

 private:
  std::vector<std::pair<int, int>>& out_;
};

using PatternStamper = PatternStamperT<Stamper, double>;
using AcPatternStamper = PatternStamperT<AcStamper, std::complex<double>>;

/// RHS-only stamper: matrix writes vanish, RHS writes land. Used for the
/// per-iteration pass over reactive linear devices whose matrix stamps
/// live in the cached static baseline but whose companion RHS (and
/// charge-state recording via LoadContext::integrate) depends on the
/// candidate solution.
class RhsOnlyStamper final : public Stamper {
 public:
  explicit RhsOnlyStamper(std::vector<double>& rhs) : rhs_(rhs) {}
  void addA(int, int, double) override {}
  void addRhs(int r, double v) override {
    if (r > 0) rhs_[static_cast<size_t>(r - 1)] += v;
  }

 private:
  std::vector<double>& rhs_;
};

/// Stamper that discards everything; used when a load is run only for
/// its side effects (charge-state recording into LoadContext::state).
class StateOnlyStamper final : public Stamper {
 public:
  void addA(int, int, double) override {}
  void addRhs(int, double) override {}
};

}  // namespace ahfic::spice
