#pragma once
// Gummel-Poon bipolar junction transistor (SPICE Q element).
//
// Implements the full SPICE 2G6/3 large-signal model: ideal transport with
// base-charge modulation (Early voltages VAF/VAR, high-injection knees
// IKF/IKR), non-ideal B-E/B-C leakage diodes (ISE/NE, ISC/NC),
// bias-dependent base resistance (RB/IRB/RBM), emitter/collector
// resistances, depletion capacitances (CJE/CJC with XCJC split/CJS) and
// diffusion charges (TF/TR). These are exactly the geometry-dependent
// elements the paper's Sec. 4 generator targets.

#include "spice/device.h"
#include "spice/gummel.h"
#include "spice/models.h"

namespace ahfic::spice {

class Circuit;

/// Node ids one Gummel-Poon stamp touches. An internal node equals its
/// terminal when the matching parasitic resistor is absent.
struct BjtNodes {
  int c, b, e;     ///< collector, base, emitter terminals
  int ci, bi, ei;  ///< internal collector, base, emitter
  int sub;         ///< substrate
  bool operator==(const BjtNodes&) const = default;
};

/// The one Gummel-Poon stamp sequence, shared by Bjt::load() and the
/// batched replica engine: parasitic resistances, the B-E and B-C
/// junction branches, the transport source and, when `q` is non-null
/// (transient), the four charge companions. `w` is a SlotWriter; `grc`
/// and `gre` are the collector/emitter parasitic conductances.
template <typename W>
void stampGummelPoon(W& w, const BjtNodes& n, double grc, double gre,
                     const GummelPoonStamp& s,
                     const GummelPoonCompanions* q) {
  if (n.ci != n.c) w.addConductance(n.c, n.ci, grc);
  if (n.ei != n.e) w.addConductance(n.e, n.ei, gre);
  if (n.bi != n.b) w.addConductance(n.b, n.bi, s.grb);
  w.addNonlinearBranch(n.bi, n.ei, s.gbe, s.ieqBe);
  w.addNonlinearBranch(n.bi, n.ci, s.gbc, s.ieqBc);
  // Transport source pol*icc (ci -> ei): d/dV(bi) = gmf + gmr,
  // d/dV(ei) = -gmf, d/dV(ci) = -gmr.
  w.addA(n.ci, n.bi, s.gmf + s.gmr);
  w.addA(n.ci, n.ei, -s.gmf);
  w.addA(n.ci, n.ci, -s.gmr);
  w.addA(n.ei, n.bi, -(s.gmf + s.gmr));
  w.addA(n.ei, n.ei, s.gmf);
  w.addA(n.ei, n.ci, s.gmr);
  w.addRhs(n.ci, -s.ieqT);
  w.addRhs(n.ei, s.ieqT);
  if (q == nullptr) return;
  w.addNonlinearBranch(n.bi, n.ei, q->be.geq, q->be.ieq);
  w.addNonlinearBranch(n.bi, n.ci, q->bc.geq, q->bc.ieq);
  w.addNonlinearBranch(n.b, n.ci, q->bx.geq, q->bx.ieq);
  w.addNonlinearBranch(n.sub, n.ci, q->cs.geq, q->cs.ieq);
}

/// Small-signal operating-point summary of a BJT, used for fT extraction
/// and for the top-down characterisation flow.
struct BjtOpInfo {
  double vbe = 0.0;  ///< internal B-E voltage [V]
  double vbc = 0.0;  ///< internal B-C voltage [V]
  double ic = 0.0;   ///< collector terminal current [A]
  double ib = 0.0;   ///< base terminal current [A]
  double gm = 0.0;   ///< transconductance d ic / d vbe [S]
  double gpi = 0.0;  ///< input conductance d ib / d vbe [S]
  double gmu = 0.0;  ///< feedback conductance d ib / d vbc [S]
  double go = 0.0;   ///< output conductance (Early) [S]
  double cpi = 0.0;  ///< B-E capacitance (depletion + diffusion) [F]
  double cmu = 0.0;  ///< B-C capacitance (total) [F]
  double ccs = 0.0;  ///< collector-substrate capacitance [F]
  double rbEff = 0.0;  ///< bias-dependent base resistance [ohm]
  double qb = 1.0;   ///< normalised base charge
  /// Analytic unity-current-gain frequency gm / (2*pi*(cpi + cmu)) [Hz].
  double ft() const;
};

/// Gummel-Poon BJT. Node order: collector, base, emitter, substrate.
class Bjt final : public Device {
 public:
  /// Creates the transistor; internal collector/base/emitter nodes are
  /// allocated in `ckt` when the model's rc/rb/re are non-zero. `area`
  /// applies SPICE area-factor scaling (is, ise, isc, ikf, ikr, irb, cje,
  /// cjc, cjs scaled up; rb, rbm, re, rc scaled down) — the baseline
  /// behaviour the paper argues is insufficient.
  Bjt(std::string name, Circuit& ckt, int c, int b, int e,
      const BjtModel& model, double area = 1.0, int substrate = 0,
      double tempC = 27.0);

  int stateCount() const override { return 4; }  // qbe, qbc, qbx, qcs
  bool isNonlinear() const override { return true; }

  void beginSolve(const Solution& x) override;
  void load(Stamper& s, const Solution& x, const LoadContext& ctx) override;
  void loadAc(AcStamper& s, const Solution& op, double omega) override;
  void appendNoise(std::vector<NoiseSourceDesc>& out, const Solution& op,
                   double tempK) const override;

  /// Small-signal summary at the operating point `op`.
  BjtOpInfo opInfo(const Solution& op) const;

  const BjtModel& model() const { return model_; }
  /// Effective (area-scaled) model actually simulated.
  const BjtModel& scaledModel() const { return m_; }

  int internalCollector() const { return n_.ci; }
  int internalBase() const { return n_.bi; }
  int internalEmitter() const { return n_.ei; }

  /// Instance constants the batched replica engine needs to run this
  /// device's linearization and stamp sequence (see spice/batch.h).
  const BjtNodes& stampNodes() const { return n_; }
  const GummelPoonParams& params() const { return gp_; }
  double polarity() const { return pol_; }
  double vcritE() const { return vcritE_; }
  double vcritC() const { return vcritC_; }
  double rcConductance() const { return grc_; }
  double reConductance() const { return gre_; }

 private:
  // The model equations live in spice/gummel.h so the batched replica
  // engine evaluates the exact same inline functions.
  GummelPoonEval evaluate(double vbe, double vbc, double gmin) const {
    return gummelEvaluate(gp_, vbe, vbc, gmin);
  }
  GummelPoonCharges charges(double vbe, double vbc, double vcs,
                            const GummelPoonEval& e) const {
    return gummelCharges(m_, dep_, vbe, vbc, vcs, e);
  }

  BjtModel model_;  ///< as given
  BjtModel m_;      ///< area-scaled copy used in evaluation
  GummelPoonParams gp_{};    ///< evaluation parameters of m_
  GummelPoonDepletion dep_;  ///< bias-independent depletion constants
  double area_;
  double pol_;      ///< +1 NPN, -1 PNP
  double vcritE_, vcritC_;
  double grc_ = 0.0, gre_ = 0.0;  ///< 1/rc, 1/re (0 when absent)
  BjtNodes n_;
  double vbeLimited_ = 0.0, vbcLimited_ = 0.0;  ///< Newton limiting history
};

}  // namespace ahfic::spice
