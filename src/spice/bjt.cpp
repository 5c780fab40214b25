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
      n_{c, b, e, c, b, e, substrate} {
  if (area <= 0.0) throw Error("bjt " + this->name() + ": area must be > 0");
  // Area factor, RBM default, temperature adjustment and the pnjlim
  // critical voltages all live in spice/gummel.h, shared with the batched
  // replica engine.
  const DerivedGummelPoon d = deriveGummelPoon(model_, area_, tempC);
  m_ = d.m;
  gp_ = gummelParams(m_, d.vt);
  dep_ = gummelDepletion(m_);
  vcritE_ = d.vcritE;
  vcritC_ = d.vcritC;
  if (m_.rc > 0.0) {
    n_.ci = ckt.internalNode(this->name() + "#c");
    grc_ = 1.0 / m_.rc;
  }
  if (m_.rb > 0.0) n_.bi = ckt.internalNode(this->name() + "#b");
  if (m_.re > 0.0) {
    n_.ei = ckt.internalNode(this->name() + "#e");
    gre_ = 1.0 / m_.re;
  }
}

void Bjt::beginSolve(const Solution& x) {
  vbeLimited_ = pol_ * x.diff(n_.bi, n_.ei);
  vbcLimited_ = pol_ * x.diff(n_.bi, n_.ci);
}

void Bjt::load(Stamper& s, const Solution& x, const LoadContext& ctx) {
  // Junction voltages in model (NPN) polarity, with SPICE limiting.
  const double vbeCand = pol_ * x.diff(n_.bi, n_.ei);
  const double vbcCand = pol_ * x.diff(n_.bi, n_.ci);
  const double vbe = limitJunction(vbeCand, vbeLimited_, gp_.nfvt, vcritE_);
  const double vbc = limitJunction(vbcCand, vbcLimited_, gp_.nrvt, vcritC_);
  ctx.noteLimited(vbe, vbeCand, this);
  ctx.noteLimited(vbc, vbcCand, this);

  const GummelPoonEval ev = evaluate(vbe, vbc, ctx.gmin);
  const GummelPoonStamp lin =
      gummelLinearize(gp_, ev, pol_, vbe, vbc, ctx.gmin);

  // Charge states are recorded in DC too (the first transient step
  // starts from them); their companions are stamped only in transient.
  const double vcs = pol_ * x.diff(n_.sub, n_.ci);
  const GummelPoonCharges ch = charges(vbe, vbc, vcs, ev);
  const double dqbe = ctx.integrate(stateBase() + 0, ch.qbe);
  const double dqbc = ctx.integrate(stateBase() + 1, ch.qbc);
  const double dqbx = ctx.integrate(stateBase() + 2, ch.qbx);
  const double dqcs = ctx.integrate(stateBase() + 3, ch.qcs);

  const bool tran = ctx.c0 != 0.0;
  GummelPoonCompanions q{};
  if (tran)
    q = {chargeCompanion(ch.cbe, ctx.c0, pol_, dqbe, vbe),
         chargeCompanion(ch.cbc, ctx.c0, pol_, dqbc, vbc),
         chargeCompanion(ch.cbx, ctx.c0, pol_, dqbx,
                         pol_ * x.diff(n_.b, n_.ci)),
         chargeCompanion(ch.ccs, ctx.c0, pol_, dqcs, vcs)};
  SlotWriter w(s, stampPlan(ctx));
  stampGummelPoon(w, n_, grc_, gre_, lin, tran ? &q : nullptr);
}

void Bjt::loadAc(AcStamper& s, const Solution& op, double omega) {
  AcSlotWriter w(s, stampPlanAc());
  const double vbe = pol_ * op.diff(n_.bi, n_.ei);
  const double vbc = pol_ * op.diff(n_.bi, n_.ci);
  const double vcs = pol_ * op.diff(n_.sub, n_.ci);

  const GummelPoonEval ev = evaluate(vbe, vbc, 0.0);
  const GummelPoonCharges ch = charges(vbe, vbc, vcs, ev);

  if (m_.rc > 0.0) w.addAdmittance(n_.c, n_.ci, {grc_, 0.0});
  if (m_.re > 0.0) w.addAdmittance(n_.e, n_.ei, {gre_, 0.0});
  if (m_.rb > 0.0) w.addAdmittance(n_.b, n_.bi, {1.0 / ev.rbEff, 0.0});

  const double gpi = ev.gbe1 / m_.bf + ev.gbe2;
  const double gmu = ev.gbc1 / m_.br + ev.gbc2;
  w.addAdmittance(n_.bi, n_.ei, {gpi, omega * ch.cbe});
  w.addAdmittance(n_.bi, n_.ci, {gmu, omega * ch.cbc});
  w.addAdmittance(n_.b, n_.ci, {0.0, omega * ch.cbx});
  w.addAdmittance(n_.sub, n_.ci, {0.0, omega * ch.ccs});

  // Transport transconductances (polarity cancels, as in the real path).
  w.addA(n_.ci, n_.bi, {ev.gmf + ev.gmr, 0.0});
  w.addA(n_.ci, n_.ei, {-ev.gmf, 0.0});
  w.addA(n_.ci, n_.ci, {-ev.gmr, 0.0});
  w.addA(n_.ei, n_.bi, {-(ev.gmf + ev.gmr), 0.0});
  w.addA(n_.ei, n_.ei, {ev.gmf, 0.0});
  w.addA(n_.ei, n_.ci, {ev.gmr, 0.0});
}

void Bjt::appendNoise(std::vector<NoiseSourceDesc>& out,
                      const Solution& op, double tempK) const {
  const BjtOpInfo info = opInfo(op);
  const double kT4 = 4.0 * 1.380649e-23 * tempK;
  constexpr double kQ = 1.602176634e-19;

  // Thermal noise of the parasitic resistances.
  if (m_.rb > 0.0)
    out.push_back({nodes()[1], n_.bi, kT4 / info.rbEff, 0.0,
                   name() + " rb thermal"});
  if (m_.re > 0.0)
    out.push_back({nodes()[2], n_.ei, kT4 / m_.re, 0.0,
                   name() + " re thermal"});
  if (m_.rc > 0.0)
    out.push_back({nodes()[0], n_.ci, kT4 / m_.rc, 0.0,
                   name() + " rc thermal"});

  // Shot noise of the junction currents.
  out.push_back({n_.bi, n_.ei, 2.0 * kQ * std::fabs(info.ib), 0.0,
                 name() + " base shot"});
  out.push_back({n_.ci, n_.ei, 2.0 * kQ * std::fabs(info.ic), 0.0,
                 name() + " collector shot"});
}

BjtOpInfo Bjt::opInfo(const Solution& op) const {
  BjtOpInfo info;
  info.vbe = pol_ * op.diff(n_.bi, n_.ei);
  info.vbc = pol_ * op.diff(n_.bi, n_.ci);
  const double vcs = pol_ * op.diff(n_.sub, n_.ci);

  const GummelPoonEval ev = evaluate(info.vbe, info.vbc, 0.0);
  const GummelPoonCharges ch = charges(info.vbe, info.vbc, vcs, ev);

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
