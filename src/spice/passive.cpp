#include "spice/passive.h"

#include "util/error.h"

namespace ahfic::spice {

Resistor::Resistor(std::string name, int a, int b, double ohms)
    : Device(std::move(name), {a, b}), ohms_(ohms) {
  if (!(ohms > 0.0))
    throw Error("resistor " + this->name() + ": resistance must be > 0");
}

void Resistor::setResistance(double ohms) {
  if (!(ohms > 0.0))
    throw Error("resistor " + name() + ": resistance must be > 0");
  ohms_ = ohms;
}

void Resistor::load(Stamper& s, const Solution&, const LoadContext& ctx) {
  SlotWriter w(s, stampPlan(ctx));
  w.addConductance(nodes()[0], nodes()[1], 1.0 / ohms_);
}

void Resistor::loadAc(AcStamper& s, const Solution&, double) {
  AcSlotWriter w(s, stampPlanAc());
  w.addAdmittance(nodes()[0], nodes()[1], {1.0 / ohms_, 0.0});
}

void Resistor::appendNoise(std::vector<NoiseSourceDesc>& out,
                           const Solution&, double tempK) const {
  // Johnson-Nyquist: S_i = 4kT/R.
  NoiseSourceDesc n;
  n.a = nodes()[0];
  n.b = nodes()[1];
  n.white = 4.0 * 1.380649e-23 * tempK / ohms_;
  n.label = name() + " thermal";
  out.push_back(std::move(n));
}

Capacitor::Capacitor(std::string name, int a, int b, double farads)
    : Device(std::move(name), {a, b}), farads_(farads) {
  if (farads < 0.0)
    throw Error("capacitor " + this->name() + ": capacitance must be >= 0");
}

void Capacitor::load(Stamper& s, const Solution& x, const LoadContext& ctx) {
  const int a = nodes()[0], b = nodes()[1];
  const double v = x.diff(a, b);
  const double q = farads_ * v;
  const double dqdt = ctx.integrate(stateBase(), q);
  if (ctx.c0 == 0.0) return;  // DC: open circuit
  const double geq = farads_ * ctx.c0;
  // i = dqdt at v*, linearised: g = geq, ieq = dqdt - geq*v*
  SlotWriter w(s, stampPlan(ctx));
  w.addNonlinearBranch(a, b, geq, dqdt - geq * v);
}

void Capacitor::loadAc(AcStamper& s, const Solution&, double omega) {
  AcSlotWriter w(s, stampPlanAc());
  w.addAdmittance(nodes()[0], nodes()[1], {0.0, omega * farads_});
}

Inductor::Inductor(std::string name, int a, int b, double henries)
    : Device(std::move(name), {a, b}), henries_(henries) {
  if (!(henries > 0.0))
    throw Error("inductor " + this->name() + ": inductance must be > 0");
}

void Inductor::load(Stamper& s, const Solution& x, const LoadContext& ctx) {
  const int a = nodes()[0], b = nodes()[1];
  const int br = branchId();
  SlotWriter w(s, stampPlan(ctx));
  // KCL coupling: branch current leaves a, enters b.
  w.addA(a, br, 1.0);
  w.addA(b, br, -1.0);
  // Branch equation: v(a) - v(b) - dphi/dt = 0 with phi = L * I.
  w.addA(br, a, 1.0);
  w.addA(br, b, -1.0);
  const double current = x.at(br);
  const double phi = henries_ * current;
  const double dphidt = ctx.integrate(stateBase(), phi);
  if (ctx.c0 == 0.0) return;  // DC: short (v(a) - v(b) = 0)
  // dphi/dt linearised in I: d(dphidt)/dI = c0 * L.
  const double geq = ctx.c0 * henries_;
  w.addA(br, br, -geq);
  // Residual constant: dphidt(I*) - geq*I* must move to the RHS.
  w.addRhs(br, dphidt - geq * current);
}

void Inductor::loadAc(AcStamper& s, const Solution&, double omega) {
  const int a = nodes()[0], b = nodes()[1];
  const int br = branchId();
  AcSlotWriter w(s, stampPlanAc());
  w.addA(a, br, {1.0, 0.0});
  w.addA(b, br, {-1.0, 0.0});
  w.addA(br, a, {1.0, 0.0});
  w.addA(br, b, {-1.0, 0.0});
  w.addA(br, br, {0.0, -omega * henries_});
}

}  // namespace ahfic::spice
