#pragma once
// Shared Gummel-Poon / junction-diode large-signal math.
//
// The scalar Bjt/Diode devices (bjt.cpp, diode.cpp) and the batched
// replica engine (batch.cpp) call the same inline functions below, so
// there is exactly one copy of the junction limiting (limitJunction),
// of the model equations, and of the linearization that turns them into
// stamp scalars (gummelLinearize, diodeLinearize, chargeCompanion). A
// batched Monte-Carlo replica is therefore bit-identical to the scalar
// device with the same card. The stamp sequences that write those
// scalars live beside the devices (stampGummelPoon in bjt.h, stampDiode
// in diode.h). Everything here is pure math on a model card: no
// Circuit, no Stamper, no state.
//
// deriveGummelPoon()/deriveDiode() are the per-instance derivation of the
// device constructors (area factor, RBM default, temperature adjustment,
// critical voltages).

#include <algorithm>
#include <cmath>

#include "spice/junction.h"
#include "spice/models.h"
#include "util/units.h"

namespace ahfic::spice {

/// One junction's SPICE limiting step, with which every nonlinear load
/// opens: pnjlim of the candidate voltage `vCand` against the last
/// limited voltage `vLim`, which then advances to the result. `nvt` is
/// the emission-scaled thermal voltage, `vcrit` the critical voltage.
inline double limitJunction(double vCand, double& vLim, double nvt,
                            double vcrit) {
  vLim = pnjlim(vCand, vLim, nvt, vcrit);
  return vLim;
}

/// Large-signal Gummel-Poon evaluation at given junction voltages.
struct GummelPoonEval {
  double ibe1, gbe1;  ///< ideal B-E diode current / conductance
  double ibe2, gbe2;  ///< leakage B-E
  double ibc1, gbc1;  ///< ideal B-C
  double ibc2, gbc2;  ///< leakage B-C
  double qb;          ///< normalised base charge
  double dqbDvbe, dqbDvbc;
  double icc;         ///< transport current (collector -> emitter)
  double gmf, gmr;    ///< d icc / d vbe, d icc / d vbc
  double ibTotal;     ///< total base current
  double rbEff;       ///< bias-dependent base resistance
};

/// Charges and small-signal capacitances at given junction voltages.
struct GummelPoonCharges {
  double qbe, cbe;  ///< B-E: depletion + TF diffusion
  double qbc, cbc;  ///< internal B-C (xcjc part + TR diffusion)
  double qbx, cbx;  ///< external B-C ((1 - xcjc) part)
  double qcs, ccs;  ///< collector-substrate depletion
};

/// Applies the SPICE area factor to a model card: currents and
/// capacitances scale up with area, resistances scale down. This is the
/// *baseline* scaling the paper criticises; the bjtgen library generates
/// a per-shape card instead.
inline BjtModel applyBjtAreaFactor(BjtModel m, double area) {
  m.is *= area;
  m.ise *= area;
  m.isc *= area;
  if (m.ikf > 0.0) m.ikf *= area;
  if (m.ikr > 0.0) m.ikr *= area;
  if (m.irb > 0.0) m.irb *= area;
  if (m.itf > 0.0) m.itf *= area;
  m.cje *= area;
  m.cjc *= area;
  m.cjs *= area;
  if (m.rb > 0.0) m.rb /= area;
  if (m.rbm > 0.0) m.rbm /= area;
  if (m.re > 0.0) m.re /= area;
  if (m.rc > 0.0) m.rc /= area;
  return m;
}

/// Per-instance derived constants of a Gummel-Poon transistor: the
/// area-scaled, temperature-adjusted card plus thermal voltage and the
/// pnjlim critical voltages. Exactly what the Bjt constructor computes.
struct DerivedGummelPoon {
  BjtModel m;     ///< effective (area-scaled, temp-adjusted) card
  double vt;      ///< thermal voltage at the instance temperature
  double vcritE;  ///< pnjlim critical voltage, B-E
  double vcritC;  ///< pnjlim critical voltage, B-C
};

inline DerivedGummelPoon deriveGummelPoon(const BjtModel& model, double area,
                                          double tempC) {
  DerivedGummelPoon d;
  d.m = applyBjtAreaFactor(model, area);
  if (d.m.rbm <= 0.0) d.m.rbm = d.m.rb;  // SPICE default: RBM = RB
  d.vt = util::constants::thermalVoltage(tempC);

  // Temperature adjustment (Tnom = 27 C):
  //   IS(T) = IS * (T/Tnom)^XTI * exp(EG/Vt * (T/Tnom - 1))
  //   BF(T) = BF * (T/Tnom)^XTB (same for BR); leakage saturation
  //   currents scale as IS^(1/N) per SPICE.
  constexpr double kTnomC = 27.0;
  if (tempC != kTnomC) {
    const double tr = (tempC + util::constants::kZeroCelsiusInKelvin) /
                      (kTnomC + util::constants::kZeroCelsiusInKelvin);
    const double isFactor =
        std::pow(tr, d.m.xti) * std::exp(d.m.eg / d.vt * (tr - 1.0));
    d.m.is *= isFactor;
    if (d.m.ise > 0.0)
      d.m.ise *= std::pow(isFactor, 1.0 / d.m.ne) / std::pow(tr, d.m.xtb);
    if (d.m.isc > 0.0)
      d.m.isc *= std::pow(isFactor, 1.0 / d.m.nc) / std::pow(tr, d.m.xtb);
    d.m.bf *= std::pow(tr, d.m.xtb);
    d.m.br *= std::pow(tr, d.m.xtb);
  }
  d.vcritE = junctionVcrit(d.m.is, d.m.nf * d.vt);
  d.vcritC = junctionVcrit(d.m.is, d.m.nr * d.vt);
  return d;
}

/// The scalar parameters gummelEvaluate() actually consumes, with the
/// thermal-voltage products pre-multiplied. Each Bjt computes its set
/// once; the batch engine tables one per replica, so the evaluation
/// below is written exactly once for both the scalar device and the
/// batched kernel.
struct GummelPoonParams {
  double is;            ///< transport saturation current
  double nfvt, nrvt;    ///< nf * Vt, nr * Vt
  double ise, nevt;     ///< B-E leakage saturation current, ne * Vt
  double isc, ncvt;     ///< B-C leakage saturation current, nc * Vt
  double vaf, var;      ///< Early voltages
  double ikf, ikr;      ///< high-injection knees
  double bf, br;        ///< ideal current gains
  double rb, rbm, irb;  ///< base-resistance parameters
};

inline GummelPoonParams gummelParams(const BjtModel& m, double vt) {
  return {m.is,        m.nf * vt, m.nr * vt, m.ise, m.ne * vt, m.isc,
          m.nc * vt,   m.vaf,     m.var,     m.ikf, m.ikr,     m.bf,
          m.br,        m.rb,      m.rbm,     m.irb};
}

/// Full Gummel-Poon large-signal evaluation: transport and leakage
/// diodes, Early/high-injection base-charge modulation, bias-dependent
/// base resistance. `p` must come from the effective (derived) card.
inline GummelPoonEval gummelEvaluate(const GummelPoonParams& p, double vbe,
                                     double vbc, double gmin) {
  using util::constants::kPi;
  GummelPoonEval r{};

  // Ideal transport diodes.
  {
    auto [i, g] = junctionIV(vbe, p.is, p.nfvt);
    r.ibe1 = i;
    r.gbe1 = g;
  }
  {
    auto [i, g] = junctionIV(vbc, p.is, p.nrvt);
    r.ibc1 = i;
    r.gbc1 = g;
  }
  // Leakage diodes.
  if (p.ise > 0.0) {
    auto [i, g] = junctionIV(vbe, p.ise, p.nevt);
    r.ibe2 = i;
    r.gbe2 = g;
  }
  if (p.isc > 0.0) {
    auto [i, g] = junctionIV(vbc, p.isc, p.ncvt);
    r.ibc2 = i;
    r.gbc2 = g;
  }

  // Base-charge modulation: Early effect (q1) and high injection (q2).
  double q1 = 1.0;
  double dq1Dvbe = 0.0, dq1Dvbc = 0.0;
  {
    double denom = 1.0;
    if (p.vaf > 0.0) denom -= vbc / p.vaf;
    if (p.var > 0.0) denom -= vbe / p.var;
    denom = std::max(denom, 1e-3);
    q1 = 1.0 / denom;
    if (p.vaf > 0.0) dq1Dvbc = q1 * q1 / p.vaf;
    if (p.var > 0.0) dq1Dvbe = q1 * q1 / p.var;
  }
  double q2 = 0.0, dq2Dvbe = 0.0, dq2Dvbc = 0.0;
  if (p.ikf > 0.0) {
    q2 += r.ibe1 / p.ikf;
    dq2Dvbe += r.gbe1 / p.ikf;
  }
  if (p.ikr > 0.0) {
    q2 += r.ibc1 / p.ikr;
    dq2Dvbc += r.gbc1 / p.ikr;
  }
  const double sq = std::sqrt(1.0 + 4.0 * std::max(q2, -0.2499));
  r.qb = q1 * (1.0 + sq) / 2.0;
  r.qb = std::max(r.qb, 1e-4);
  r.dqbDvbe = dq1Dvbe * (1.0 + sq) / 2.0 + q1 * dq2Dvbe / sq;
  r.dqbDvbc = dq1Dvbc * (1.0 + sq) / 2.0 + q1 * dq2Dvbc / sq;

  // Transport current and its derivatives.
  r.icc = (r.ibe1 - r.ibc1) / r.qb;
  r.gmf = (r.gbe1 - r.icc * r.dqbDvbe) / r.qb;
  r.gmr = (-r.gbc1 - r.icc * r.dqbDvbc) / r.qb;

  // Total base current (junction gmin leaks included by caller's stamps).
  r.ibTotal = r.ibe1 / p.bf + r.ibe2 + r.ibc1 / p.br + r.ibc2 +
              gmin * (vbe + vbc);

  // Bias-dependent base resistance.
  r.rbEff = p.rb;
  if (p.rb > 0.0) {
    if (p.irb > 0.0) {
      const double ib = std::max(std::fabs(r.ibTotal), 1e-15);
      const double arg1 = ib / p.irb;
      const double z =
          (-1.0 + std::sqrt(1.0 + 144.0 / (kPi * kPi) * arg1)) /
          (24.0 / (kPi * kPi) * std::sqrt(arg1));
      const double tz = std::tan(z);
      r.rbEff = p.rbm + 3.0 * (p.rb - p.rbm) * (tz - z) / (z * tz * tz);
    } else {
      r.rbEff = p.rbm + (p.rb - p.rbm) / r.qb;
    }
    r.rbEff = std::max(r.rbEff, 1e-3);
  }
  return r;
}

inline GummelPoonEval gummelEvaluate(const BjtModel& m, double vt,
                                     double vbe, double vbc, double gmin) {
  return gummelEvaluate(gummelParams(m, vt), vbe, vbc, gmin);
}

/// The scalars one DC Gummel-Poon load stamps, at limited junction
/// voltages: three companion branches (B-E and B-C junctions, each with
/// its gmin shunt, and the C-E transport source) plus the bias-dependent
/// base conductance. Equivalent currents carry the device polarity.
struct GummelPoonStamp {
  double grb;            ///< 1 / rbEff
  double gbe, ieqBe;     ///< B-E junction branch (bi -> ei)
  double gbc, ieqBc;     ///< B-C junction branch (bi -> ci)
  double gmf, gmr;       ///< transport transconductances
  double ieqT;           ///< transport equivalent current (ci -> ei)
};

inline GummelPoonStamp gummelLinearize(const GummelPoonParams& p,
                                       const GummelPoonEval& ev, double pol,
                                       double vbe, double vbc, double gmin) {
  GummelPoonStamp s;
  s.grb = 1.0 / ev.rbEff;
  // B-E junction: i = ibe1/bf + ibe2 + gmin*vbe (B-C likewise).
  s.gbe = ev.gbe1 / p.bf + ev.gbe2 + gmin;
  const double ibe = ev.ibe1 / p.bf + ev.ibe2 + gmin * vbe;
  s.ieqBe = pol * (ibe - s.gbe * vbe);
  s.gbc = ev.gbc1 / p.br + ev.gbc2 + gmin;
  const double ibc = ev.ibc1 / p.br + ev.ibc2 + gmin * vbc;
  s.ieqBc = pol * (ibc - s.gbc * vbc);
  s.gmf = ev.gmf;
  s.gmr = ev.gmr;
  s.ieqT = pol * (ev.icc - ev.gmf * vbe - ev.gmr * vbc);
  return s;
}

/// Transient companion of one charge state: conductance cap * c0 and the
/// polarity-signed equivalent current of dq/dt at the branch voltage v.
struct ChargeCompanion {
  double geq, ieq;
};

inline ChargeCompanion chargeCompanion(double cap, double c0, double pol,
                                       double dqdt, double v) {
  const double geq = cap * c0;
  return {geq, pol * (dqdt - geq * v)};
}

/// The four Gummel-Poon charge companions, in stamp order.
struct GummelPoonCompanions {
  ChargeCompanion be;  ///< bi -> ei
  ChargeCompanion bc;  ///< bi -> ci
  ChargeCompanion bx;  ///< b  -> ci (external B-C part)
  ChargeCompanion cs;  ///< sub -> ci
};

/// Bias-independent depletion constants of the four junction charges,
/// derived once per instance from the effective card.
struct GummelPoonDepletion {
  DepletionConsts be;         ///< cje
  DepletionConsts bcInt;      ///< cjc * xcjc, at the internal base
  DepletionConsts bcExt;      ///< cjc * (1 - xcjc), at the external base
  DepletionConsts cs;         ///< cjs (fc = 0)
};

inline GummelPoonDepletion gummelDepletion(const BjtModel& m) {
  return {depletionConsts(m.cje, m.vje, m.mje, m.fc),
          depletionConsts(m.cjc * m.xcjc, m.vjc, m.mjc, m.fc),
          depletionConsts(m.cjc * (1.0 - m.xcjc), m.vjc, m.mjc, m.fc),
          depletionConsts(m.cjs, m.vjs, m.mjs, 0.0)};
}

/// Charges and capacitances at given junction voltages (needs the
/// matching gummelEvaluate result for the diffusion terms). `k` must be
/// gummelDepletion() of the same card `m`.
inline GummelPoonCharges gummelCharges(const BjtModel& m,
                                       const GummelPoonDepletion& k,
                                       double vbe, double vbc, double vcs,
                                       const GummelPoonEval& e) {
  GummelPoonCharges c{};

  // B-E: depletion + forward diffusion with XTF/VTF/ITF bias dependence.
  {
    const auto dep = depletionQC(vbe, k.be);
    double qde = 0.0, cde = 0.0;
    if (m.tf > 0.0) {
      double argtf = 0.0, arg2 = 0.0;
      if (m.xtf > 0.0) {
        argtf = m.xtf;
        if (m.vtf > 0.0)
          argtf *= std::exp(std::min(vbc / (1.44 * m.vtf), 40.0));
        arg2 = argtf;
        if (m.itf > 0.0 && e.ibe1 > 0.0) {
          const double temp = e.ibe1 / (e.ibe1 + m.itf);
          argtf *= temp * temp;
          arg2 = argtf * (3.0 - 2.0 * temp);
        }
      }
      qde = m.tf * (1.0 + argtf) * e.ibe1 / e.qb;
      cde = m.tf *
            (e.gbe1 * (1.0 + arg2) -
             e.ibe1 * (1.0 + argtf) * e.dqbDvbe / e.qb) /
            e.qb;
      cde = std::max(cde, 0.0);
    }
    c.qbe = dep.q + qde;
    c.cbe = dep.c + cde;
  }

  // B-C: XCJC fraction at the internal base, remainder at the external
  // base; reverse diffusion charge TR * ibc1 on the internal part.
  {
    DepletionQC depInt, depExt;
    depletionQCPair(vbc, k.bcInt, k.bcExt, depInt, depExt);
    c.qbc = depInt.q + m.tr * e.ibc1;
    c.cbc = depInt.c + m.tr * e.gbc1;
    c.qbx = depExt.q;
    c.cbx = depExt.c;
  }

  // Collector-substrate depletion (normally reverse biased).
  {
    const auto dep = depletionQC(vcs, k.cs);
    c.qcs = dep.q;
    c.ccs = dep.c;
  }
  return c;
}

/// The DC stamp scalars of a junction diode at limited voltage `v`,
/// given its junction evaluation `iv`: conductance with the gmin shunt
/// and the companion's equivalent current.
struct DiodeStamp {
  double gd, ieq;
};

inline DiodeStamp diodeLinearize(const JunctionIV& iv, double v,
                                 double gmin) {
  const double gd = iv.g + gmin;
  const double id = iv.i + gmin * v;
  return {gd, id - gd * v};
}

/// Per-instance derived constants of a junction diode: the
/// temperature-adjusted card (area is applied at the use sites, exactly
/// as in the Diode device) plus n*Vt and the pnjlim critical voltage.
struct DerivedDiode {
  DiodeModel m;  ///< temperature-adjusted card
  double vte;    ///< n * Vt
  double vcrit;  ///< pnjlim critical voltage
};

inline DerivedDiode deriveDiode(const DiodeModel& model, double area,
                                double tempC) {
  DerivedDiode d;
  d.m = model;
  const double vt = util::constants::thermalVoltage(tempC);
  d.vte = d.m.n * vt;
  // IS(T), Tnom = 27 C.
  constexpr double kTnomC = 27.0;
  if (tempC != kTnomC) {
    const double tr = (tempC + util::constants::kZeroCelsiusInKelvin) /
                      (kTnomC + util::constants::kZeroCelsiusInKelvin);
    d.m.is *= std::pow(tr, d.m.xti / d.m.n) *
              std::exp(d.m.eg / d.vte * (tr - 1.0));
  }
  d.vcrit = junctionVcrit(d.m.is * area, d.vte);
  return d;
}

}  // namespace ahfic::spice
