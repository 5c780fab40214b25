#pragma once
// Stamping interfaces through which devices contribute to the MNA system.
//
// `Stamper` (real, DC/transient) and `AcStamper` (complex, AC) hide the
// stamping target and perform the unknown-id -> row mapping, dropping any
// contribution that involves ground (id 0). The analyses stamp into a
// CsrPattern; DenseStamper and DenseAcStamper fill a DenseMatrix and
// serve only as the reference the tests solve with solveDense.
//
// The CSR target adds a slot protocol on top: a stamper bound to a
// CsrPattern exposes patternEpoch()/locateA() plus the value and RHS
// arrays behind them (slotValues()/rhsValues()), and devices wrap
// whatever stamper they are handed in a SlotWriter that memoizes the
// slot of every matrix position they touch (see StampMemo). After the
// first assemble against a pattern revision, re-stamping is a straight
// replay of cached value-array indices written in place — no binary
// search, no map insertions, no virtual call. The memo self-heals: every
// replayed entry is verified against the (row, col) key actually being
// stamped, so call sequences that differ between analysis modes (DC
// stamps fewer companion entries than transient) just rewrite the memo
// from the point of divergence instead of corrupting it.

#include <complex>
#include <cstdint>
#include <utility>
#include <vector>

#include "spice/csr.h"
#include "spice/linalg.h"

namespace ahfic::spice {

/// Sentinel slots used by the slot protocol below.
inline constexpr int kStampSlotGround = -1;  ///< touches ground; dropped
inline constexpr int kStampSlotMiss = -2;    ///< not in the pattern (yet)

/// Per-device cache of matrix slots, in stamp-call order. Valid only for
/// the pattern revision named by `epoch`; a SlotWriter clears it on any
/// epoch change, so devices never need to invalidate it themselves.
struct StampMemo {
  std::uint64_t epoch = 0;
  std::vector<std::pair<std::uint64_t, int>> entries;  ///< (rc key, slot)
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

/// Dense-backed real stamper (test reference; see the file comment).
class DenseStamper final : public Stamper {
 public:
  DenseStamper(DenseMatrix<double>& a, std::vector<double>& rhs)
      : a_(a), rhs_(rhs) {}
  void addA(int r, int c, double v) override {
    if (r > 0 && c > 0) a_.at(r - 1, c - 1) += v;
  }
  void addRhs(int r, double v) override {
    if (r > 0) rhs_[static_cast<size_t>(r - 1)] += v;
  }

 private:
  DenseMatrix<double>& a_;
  std::vector<double>& rhs_;
};

/// Dense-backed complex stamper for AC (test reference).
class DenseAcStamper final : public AcStamper {
 public:
  DenseAcStamper(DenseMatrix<std::complex<double>>& a,
                 std::vector<std::complex<double>>& rhs)
      : a_(a), rhs_(rhs) {}
  void addA(int r, int c, std::complex<double> v) override {
    if (r > 0 && c > 0) a_.at(r - 1, c - 1) += v;
  }
  void addRhs(int r, std::complex<double> v) override {
    if (r > 0) rhs_[static_cast<size_t>(r - 1)] += v;
  }

 private:
  DenseMatrix<std::complex<double>>& a_;
  std::vector<std::complex<double>>& rhs_;
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

/// Device-side memoizing front end over any stamper. Constructed at the
/// top of a device's load()/loadAc() around the stamper it was handed;
/// when the backend exposes a pattern epoch and its value array, every
/// addA resolves through the device's StampMemo (fast replay of cached
/// slots, key-verified so a diverging call sequence heals itself) and
/// lands as a direct write into that array; RHS writes go straight into
/// the backend's RHS array when it has one. Otherwise calls forward
/// untouched. Mirrors the convenience helpers of Stamper/AcStamper so
/// device bodies read the same as before.
template <typename S, typename V>
class SlotWriterT {
 public:
  SlotWriterT(S& s, StampMemo& memo)
      : s_(s), memo_(memo), rhs_(s.rhsValues()) {
    const std::uint64_t e = s.patternEpoch();
    if (e == 0) return;
    vals_ = s.slotValues();
    if (vals_ != nullptr && memo_.epoch != e) {
      memo_.entries.clear();
      memo_.epoch = e;
    }
  }

  void addA(int r, int c, V v) {
    if (vals_ == nullptr) {
      s_.addA(r, c, v);
      return;
    }
    const std::uint64_t key = packKey(r, c);
    if (cursor_ < memo_.entries.size() &&
        memo_.entries[cursor_].first == key) {
      write(r, c, memo_.entries[cursor_++].second, v);
      return;
    }
    // First pass over this position, or the call sequence diverged from
    // the memo (e.g. DC -> transient): resolve and overwrite in place.
    const int slot = s_.locateA(r, c);
    if (cursor_ < memo_.entries.size())
      memo_.entries[cursor_] = {key, slot};
    else
      memo_.entries.emplace_back(key, slot);
    ++cursor_;
    write(r, c, slot, v);
  }
  void addRhs(int r, V v) {
    if (rhs_ == nullptr)
      s_.addRhs(r, v);
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
  static std::uint64_t packKey(int r, int c) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r)) << 32) |
           static_cast<std::uint32_t>(c);
  }

  void write(int r, int c, int slot, V v) {
    if (slot >= 0)
      vals_[slot] += v;
    else if (slot == kStampSlotMiss)
      s_.addA(r, c, v);  // keeps feeding `pending` until the pattern grows
  }

  S& s_;
  StampMemo& memo_;
  V* rhs_;
  V* vals_ = nullptr;  ///< non-null: memoized direct writes
  size_t cursor_ = 0;
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
