#include "spice/bjt.h"

#include <algorithm>
#include <cmath>

#include "spice/circuit.h"
#include "spice/junction.h"
#include "util/error.h"
#include "util/units.h"

namespace ahfic::spice {

using util::constants::kPi;

double BjtOpInfo::ft() const {
  const double ctot = cpi + cmu;
  if (gm <= 0.0 || ctot <= 0.0) return 0.0;
  return gm / (2.0 * kPi * ctot);
}

Bjt::Bjt(std::string name, Circuit& ckt, int c, int b, int e,
         const BjtModel& model, double area, int substrate, double tempC)
    : Device(std::move(name), {c, b, e, substrate}),
      model_(model),
      area_(area),
      pol_(model.pnp ? -1.0 : 1.0),
      ci_(c),
      bi_(b),
      ei_(e),
      sub_(substrate) {
  if (area <= 0.0) throw Error("bjt " + this->name() + ": area must be > 0");
  // Area factor, RBM default, temperature adjustment and the pnjlim
  // critical voltages all live in spice/gummel.h, shared with the batched
  // replica engine.
  const DerivedGummelPoon d = deriveGummelPoon(model_, area_, tempC);
  m_ = d.m;
  dep_ = gummelDepletion(m_);
  vt_ = d.vt;
  vcritE_ = d.vcritE;
  vcritC_ = d.vcritC;
  if (m_.rc > 0.0) ci_ = ckt.internalNode(this->name() + "#c");
  if (m_.rb > 0.0) bi_ = ckt.internalNode(this->name() + "#b");
  if (m_.re > 0.0) ei_ = ckt.internalNode(this->name() + "#e");
}

void Bjt::beginSolve(const Solution& x) {
  vbeLimited_ = pol_ * x.diff(bi_, ei_);
  vbcLimited_ = pol_ * x.diff(bi_, ci_);
}

void Bjt::load(Stamper& s, const Solution& x, const LoadContext& ctx) {
  SlotWriter w(s, stampMemo());
  const int c = nodes()[0], b = nodes()[1], e = nodes()[2];

  // Parasitic resistances (base resistance handled after evaluation).
  if (m_.rc > 0.0) w.addConductance(c, ci_, 1.0 / m_.rc);
  if (m_.re > 0.0) w.addConductance(e, ei_, 1.0 / m_.re);

  // Junction voltages in model (NPN) polarity, with SPICE limiting.
  const double vbeCand = pol_ * x.diff(bi_, ei_);
  const double vbcCand = pol_ * x.diff(bi_, ci_);
  const double vbe = pnjlim(vbeCand, vbeLimited_, m_.nf * vt_, vcritE_);
  const double vbc = pnjlim(vbcCand, vbcLimited_, m_.nr * vt_, vcritC_);
  ctx.noteLimited(vbe, vbeCand, this);
  ctx.noteLimited(vbc, vbcCand, this);
  vbeLimited_ = vbe;
  vbcLimited_ = vbc;

  const Eval ev = evaluate(vbe, vbc, ctx.gmin);

  if (m_.rb > 0.0) w.addConductance(b, bi_, 1.0 / ev.rbEff);

  // --- B-E junction branch (bi -> ei): i = ibe1/bf + ibe2 + gmin*vbe ---
  {
    const double g = ev.gbe1 / m_.bf + ev.gbe2 + ctx.gmin;
    const double i = ev.ibe1 / m_.bf + ev.ibe2 + ctx.gmin * vbe;
    w.addConductance(bi_, ei_, g);
    const double ieq = pol_ * (i - g * vbe);
    w.addRhs(bi_, -ieq);
    w.addRhs(ei_, ieq);
  }
  // --- B-C junction branch (bi -> ci) ---
  {
    const double g = ev.gbc1 / m_.br + ev.gbc2 + ctx.gmin;
    const double i = ev.ibc1 / m_.br + ev.ibc2 + ctx.gmin * vbc;
    w.addConductance(bi_, ci_, g);
    const double ieq = pol_ * (i - g * vbc);
    w.addRhs(bi_, -ieq);
    w.addRhs(ci_, ieq);
  }
  // --- Transport current source (ci -> ei): pol * icc ---
  {
    // d(pol*icc)/dV(bi) = gmf + gmr; /dV(ei) = -gmf; /dV(ci) = -gmr.
    w.addA(ci_, bi_, ev.gmf + ev.gmr);
    w.addA(ci_, ei_, -ev.gmf);
    w.addA(ci_, ci_, -ev.gmr);
    w.addA(ei_, bi_, -(ev.gmf + ev.gmr));
    w.addA(ei_, ei_, ev.gmf);
    w.addA(ei_, ci_, ev.gmr);
    const double ieq = pol_ * (ev.icc - ev.gmf * vbe - ev.gmr * vbc);
    w.addRhs(ci_, -ieq);
    w.addRhs(ei_, ieq);
  }

  // --- Charge storage ---
  const double vcs = pol_ * x.diff(sub_, ci_);
  const Charges ch = charges(vbe, vbc, vcs, ev);
  const double dqbe = ctx.integrate(stateBase() + 0, ch.qbe);
  const double dqbc = ctx.integrate(stateBase() + 1, ch.qbc);
  const double dqbx = ctx.integrate(stateBase() + 2, ch.qbx);
  const double dqcs = ctx.integrate(stateBase() + 3, ch.qcs);
  if (ctx.c0 != 0.0) {
    auto stampCharge = [&](int p, int n, double cap, double dqdt, double v) {
      const double geq = cap * ctx.c0;
      w.addConductance(p, n, geq);
      const double ieq = pol_ * (dqdt - geq * v);
      w.addRhs(p, -ieq);
      w.addRhs(n, ieq);
    };
    stampCharge(bi_, ei_, ch.cbe, dqbe, vbe);
    stampCharge(bi_, ci_, ch.cbc, dqbc, vbc);
    stampCharge(b, ci_, ch.cbx, dqbx, pol_ * x.diff(b, ci_));
    stampCharge(sub_, ci_, ch.ccs, dqcs, vcs);
  }
}

void Bjt::loadAc(AcStamper& s, const Solution& op, double omega) {
  AcSlotWriter w(s, stampMemoAc());
  const int c = nodes()[0], b = nodes()[1], e = nodes()[2];
  const double vbe = pol_ * op.diff(bi_, ei_);
  const double vbc = pol_ * op.diff(bi_, ci_);
  const double vcs = pol_ * op.diff(sub_, ci_);

  const Eval ev = evaluate(vbe, vbc, 0.0);
  const Charges ch = charges(vbe, vbc, vcs, ev);

  if (m_.rc > 0.0) w.addAdmittance(c, ci_, {1.0 / m_.rc, 0.0});
  if (m_.re > 0.0) w.addAdmittance(e, ei_, {1.0 / m_.re, 0.0});
  if (m_.rb > 0.0) w.addAdmittance(b, bi_, {1.0 / ev.rbEff, 0.0});

  const double gpi = ev.gbe1 / m_.bf + ev.gbe2;
  const double gmu = ev.gbc1 / m_.br + ev.gbc2;
  w.addAdmittance(bi_, ei_, {gpi, omega * ch.cbe});
  w.addAdmittance(bi_, ci_, {gmu, omega * ch.cbc});
  w.addAdmittance(b, ci_, {0.0, omega * ch.cbx});
  w.addAdmittance(sub_, ci_, {0.0, omega * ch.ccs});

  // Transport transconductances (polarity cancels: see load()).
  w.addA(ci_, bi_, {ev.gmf + ev.gmr, 0.0});
  w.addA(ci_, ei_, {-ev.gmf, 0.0});
  w.addA(ci_, ci_, {-ev.gmr, 0.0});
  w.addA(ei_, bi_, {-(ev.gmf + ev.gmr), 0.0});
  w.addA(ei_, ei_, {ev.gmf, 0.0});
  w.addA(ei_, ci_, {ev.gmr, 0.0});
}

void Bjt::appendNoise(std::vector<NoiseSourceDesc>& out,
                      const Solution& op, double tempK) const {
  const BjtOpInfo info = opInfo(op);
  const double kT4 = 4.0 * 1.380649e-23 * tempK;
  constexpr double kQ = 1.602176634e-19;

  // Thermal noise of the parasitic resistances.
  if (m_.rb > 0.0)
    out.push_back({nodes()[1], bi_, kT4 / info.rbEff, 0.0,
                   name() + " rb thermal"});
  if (m_.re > 0.0)
    out.push_back({nodes()[2], ei_, kT4 / m_.re, 0.0,
                   name() + " re thermal"});
  if (m_.rc > 0.0)
    out.push_back({nodes()[0], ci_, kT4 / m_.rc, 0.0,
                   name() + " rc thermal"});

  // Shot noise of the junction currents.
  out.push_back({bi_, ei_, 2.0 * kQ * std::fabs(info.ib), 0.0,
                 name() + " base shot"});
  out.push_back({ci_, ei_, 2.0 * kQ * std::fabs(info.ic), 0.0,
                 name() + " collector shot"});
}

BjtOpInfo Bjt::opInfo(const Solution& op) const {
  BjtOpInfo info;
  info.vbe = pol_ * op.diff(bi_, ei_);
  info.vbc = pol_ * op.diff(bi_, ci_);
  const double vcs = pol_ * op.diff(sub_, ci_);

  const Eval ev = evaluate(info.vbe, info.vbc, 0.0);
  const Charges ch = charges(info.vbe, info.vbc, vcs, ev);

  info.ic = ev.icc - ev.ibc1 / m_.br - ev.ibc2;
  info.ib = ev.ibe1 / m_.bf + ev.ibe2 + ev.ibc1 / m_.br + ev.ibc2;
  info.gm = ev.gmf;
  info.gpi = ev.gbe1 / m_.bf + ev.gbe2;
  info.gmu = ev.gbc1 / m_.br + ev.gbc2;
  info.go = -ev.gmr + ev.gbc1 / m_.br + ev.gbc2;
  info.cpi = ch.cbe;
  info.cmu = ch.cbc + ch.cbx;
  info.ccs = ch.ccs;
  info.rbEff = ev.rbEff;
  info.qb = ev.qb;
  return info;
}

}  // namespace ahfic::spice
