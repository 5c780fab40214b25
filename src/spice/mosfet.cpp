#include "spice/mosfet.h"

#include <algorithm>
#include <cmath>

#include "spice/circuit.h"
#include "util/error.h"

namespace ahfic::spice {

Mosfet::Mosfet(std::string name, Circuit& ckt, int d, int g, int s, int b,
               const MosModel& model, double w, double l)
    : Device(std::move(name), {d, g, s, b}),
      m_(model),
      w_(w),
      l_(l),
      pol_(model.pmos ? -1.0 : 1.0),
      di_(d),
      si_(s) {
  if (w <= 0.0 || l <= 0.0)
    throw Error("mosfet " + this->name() + ": W and L must be > 0");
  if (m_.kp <= 0.0)
    throw Error("mosfet " + this->name() + ": KP must be > 0");
  if (m_.rd > 0.0) di_ = ckt.internalNode(this->name() + "#d");
  if (m_.rs > 0.0) si_ = ckt.internalNode(this->name() + "#s");
}

Mosfet::Eval Mosfet::evaluate(double vgs, double vds, double vbs) const {
  // Source-drain symmetry: evaluate with the more positive end as the
  // drain. With the mirrored device at (vgs', vds', vbs') =
  // (vgs - vds, -vds, vbs - vds) and Id = -Id', the chain rule gives the
  // partials w.r.t. the ORIGINAL voltages exactly:
  //   dId/dvgs = -gm'
  //   dId/dvds =  gm' + gds' + gmb'
  //   dId/dvbs = -gmb'
  if (vds < 0.0) {
    const Eval m = evaluate(vgs - vds, -vds, vbs - vds);
    Eval r = m;
    r.id = -m.id;
    r.gm = -m.gm;
    r.gds = m.gm + m.gds + m.gmb;
    r.gmb = -m.gmb;
    return r;
  }

  Eval r{};
  // Bulk-modulated threshold.
  const double phiEff = std::max(m_.phi, 1e-3);
  const double sb = std::sqrt(std::max(phiEff - vbs, 1e-6));
  r.vth = m_.vto + m_.gamma * (sb - std::sqrt(phiEff));
  const double dvthDvbs = m_.gamma * 0.5 / sb;  // note dVth/dVbs = -g/2sb... sign below

  const double beta = m_.kp * w_ / l_;
  const double vov = vgs - r.vth;
  const double lam = 1.0 + m_.lambda * vds;

  if (vov <= 0.0) {
    // Cutoff: leave only gmin (stamped by caller) to keep the node alive.
    r.id = 0.0;
    r.gm = r.gds = r.gmb = 0.0;
    r.saturated = false;
    return r;
  }
  if (vds < vov) {
    // Triode.
    r.id = beta * lam * (vov - vds / 2.0) * vds;
    r.gm = beta * lam * vds;
    r.gds = beta * (lam * (vov - vds) + m_.lambda * (vov - vds / 2.0) * vds);
    r.saturated = false;
  } else {
    // Saturation.
    r.id = 0.5 * beta * lam * vov * vov;
    r.gm = beta * lam * vov;
    r.gds = 0.5 * beta * m_.lambda * vov * vov;
    r.saturated = true;
  }
  // dId/dvbs = gm * dvov/dvbs = gm * (-dVth/dvbs); vth falls as vbs rises:
  // dVth/dvbs = -gamma/(2*sqrt(phi - vbs)).
  r.gmb = r.gm * dvthDvbs;
  return r;
}

void Mosfet::load(Stamper& s, const Solution& x, const LoadContext& ctx) {
  SlotWriter w(s, stampPlan(ctx));
  const int d = nodes()[0], g = nodes()[1], srcn = nodes()[2],
            b = nodes()[3];
  if (m_.rd > 0.0) w.addConductance(d, di_, 1.0 / m_.rd);
  if (m_.rs > 0.0) w.addConductance(srcn, si_, 1.0 / m_.rs);

  const double vgs = pol_ * x.diff(g, si_);
  const double vds = pol_ * x.diff(di_, si_);
  const double vbs = pol_ * x.diff(b, si_);

  const Eval ev = evaluate(vgs, vds, vbs);

  // Channel current di -> si with partials w.r.t. (vgs, vds, vbs).
  // d(pol*id)/dV(g) = gm; /dV(di) = gds; /dV(b) = gmb;
  // /dV(si) = -(gm + gds + gmb). Plus gmin to keep the matrix regular.
  const double gmin = ctx.gmin;
  w.addA(di_, g, ev.gm);
  w.addA(di_, di_, ev.gds + gmin);
  w.addA(di_, b, ev.gmb);
  w.addA(di_, si_, -(ev.gm + ev.gds + ev.gmb + gmin));
  w.addA(si_, g, -ev.gm);
  w.addA(si_, di_, -(ev.gds + gmin));
  w.addA(si_, b, -ev.gmb);
  w.addA(si_, si_, ev.gm + ev.gds + ev.gmb + gmin);
  const double iTot = ev.id + gmin * vds;
  const double ieq =
      pol_ * (iTot - ev.gm * vgs - ev.gds * vds - ev.gmb * vbs);
  w.addRhs(di_, -ieq);
  w.addRhs(si_, ieq);

  // Charge storage: overlap + simplified intrinsic gate caps (2/3 C_ox in
  // saturation lumped onto G-S), fixed junction caps.
  const double cgs = m_.cgso * w_ + (2.0 / 3.0) * m_.cox * w_ * l_;
  const double cgd = m_.cgdo * w_;
  const double cgb = m_.cgbo * l_;
  const double vgd = pol_ * x.diff(g, di_);
  const double vgb = pol_ * x.diff(g, b);
  const double vbd = pol_ * x.diff(b, di_);

  const double dqgs = ctx.integrate(stateBase() + 0, cgs * vgs);
  const double dqgd = ctx.integrate(stateBase() + 1, cgd * vgd);
  const double dqgb = ctx.integrate(stateBase() + 2, cgb * vgb);
  const double dqb =
      ctx.integrate(stateBase() + 3, m_.cbd * vbd + m_.cbs * vbs);
  if (ctx.c0 != 0.0) {
    auto stampCap = [&](int p, int n, double cap, double dqdt, double v) {
      if (cap <= 0.0) return;
      const double geq = cap * ctx.c0;
      w.addConductance(p, n, geq);
      const double ie = pol_ * (dqdt - geq * v);
      w.addRhs(p, -ie);
      w.addRhs(n, ie);
    };
    stampCap(g, si_, cgs, dqgs, vgs);
    stampCap(g, di_, cgd, dqgd, vgd);
    stampCap(g, b, cgb, dqgb, vgb);
    // Split the lumped bulk charge across the two junctions.
    stampCap(b, di_, m_.cbd, m_.cbd == 0.0 ? 0.0 : dqb * 0.5, vbd);
    stampCap(b, si_, m_.cbs, m_.cbs == 0.0 ? 0.0 : dqb * 0.5, vbs);
  }
}

void Mosfet::loadAc(AcStamper& s, const Solution& op, double omega) {
  AcSlotWriter w(s, stampPlanAc());
  const int d = nodes()[0], g = nodes()[1], srcn = nodes()[2],
            b = nodes()[3];
  if (m_.rd > 0.0) w.addAdmittance(d, di_, {1.0 / m_.rd, 0.0});
  if (m_.rs > 0.0) w.addAdmittance(srcn, si_, {1.0 / m_.rs, 0.0});

  const double vgs = pol_ * op.diff(g, si_);
  const double vds = pol_ * op.diff(di_, si_);
  const double vbs = pol_ * op.diff(b, si_);
  const Eval ev = evaluate(vgs, vds, vbs);

  w.addA(di_, g, {ev.gm, 0.0});
  w.addA(di_, di_, {ev.gds, 0.0});
  w.addA(di_, b, {ev.gmb, 0.0});
  w.addA(di_, si_, {-(ev.gm + ev.gds + ev.gmb), 0.0});
  w.addA(si_, g, {-ev.gm, 0.0});
  w.addA(si_, di_, {-ev.gds, 0.0});
  w.addA(si_, b, {-ev.gmb, 0.0});
  w.addA(si_, si_, {ev.gm + ev.gds + ev.gmb, 0.0});

  const double cgs = m_.cgso * w_ + (2.0 / 3.0) * m_.cox * w_ * l_;
  const double cgd = m_.cgdo * w_;
  const double cgb = m_.cgbo * l_;
  w.addAdmittance(g, si_, {0.0, omega * cgs});
  w.addAdmittance(g, di_, {0.0, omega * cgd});
  w.addAdmittance(g, b, {0.0, omega * cgb});
  if (m_.cbd > 0.0) w.addAdmittance(b, di_, {0.0, omega * m_.cbd});
  if (m_.cbs > 0.0) w.addAdmittance(b, si_, {0.0, omega * m_.cbs});
}

void Mosfet::appendNoise(std::vector<NoiseSourceDesc>& out,
                         const Solution& op, double tempK) const {
  const OpInfo info = opInfo(op);
  const double kT4 = 4.0 * 1.380649e-23 * tempK;
  if (m_.rd > 0.0)
    out.push_back({nodes()[0], di_, kT4 / m_.rd, 0.0,
                   name() + " rd thermal"});
  if (m_.rs > 0.0)
    out.push_back({nodes()[2], si_, kT4 / m_.rs, 0.0,
                   name() + " rs thermal"});
  // Channel thermal noise: 4kT * (2/3) * gm in saturation (long-channel).
  out.push_back({di_, si_, kT4 * (2.0 / 3.0) * std::max(info.gm, 0.0), 0.0,
                 name() + " channel thermal"});
}

Mosfet::OpInfo Mosfet::opInfo(const Solution& op) const {
  OpInfo info;
  info.vgs = pol_ * op.diff(nodes()[1], si_);
  info.vds = pol_ * op.diff(di_, si_);
  info.vbs = pol_ * op.diff(nodes()[3], si_);
  const Eval ev = evaluate(info.vgs, info.vds, info.vbs);
  info.id = ev.id;
  info.gm = ev.gm;
  info.gds = ev.gds;
  info.gmb = ev.gmb;
  info.vth = ev.vth;
  info.saturated = ev.saturated;
  return info;
}

}  // namespace ahfic::spice
