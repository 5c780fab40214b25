#include "spice/diode.h"

#include <cmath>

#include "spice/circuit.h"
#include "spice/gummel.h"
#include "spice/junction.h"
#include "util/units.h"

namespace ahfic::spice {

Diode::Diode(std::string name, Circuit& ckt, int anode, int cathode,
             const DiodeModel& model, double area, double tempC)
    : Device(std::move(name), {anode, cathode}),
      model_(model),
      area_(area),
      aInt_(anode) {
  // Temperature adjustment and the pnjlim critical voltage live in
  // spice/gummel.h, shared with the batched replica engine.
  const DerivedDiode d = deriveDiode(model, area_, tempC);
  model_ = d.m;
  vte_ = d.vte;
  vcrit_ = d.vcrit;
  isArea_ = model_.is * area_;
  dep_ = depletionConsts(model_.cj0 * area_, model_.vj, model_.m, model_.fc);
  if (model_.rs > 0.0) {
    aInt_ = ckt.internalNode(this->name() + "#a");
    grs_ = area_ / model_.rs;
  }
}

double Diode::junctionVoltage(const Solution& x) const {
  return x.diff(aInt_, nodes()[1]);
}

double Diode::current(const Solution& x) const {
  return junctionIV(junctionVoltage(x), isArea_, vte_).i;
}

void Diode::beginSolve(const Solution& x) {
  vLimited_ = junctionVoltage(x);
}

void Diode::load(Stamper& s, const Solution& x, const LoadContext& ctx) {
  const int a = nodes()[0], c = nodes()[1];

  // SPICE-style limiting: evaluate at a damped junction voltage.
  const double vCand = x.diff(aInt_, c);
  const double v = limitJunction(vCand, vLimited_, vte_, vcrit_);
  ctx.noteLimited(v, vCand, this);

  const JunctionIV iv = junctionIV(v, isArea_, vte_);
  const DiodeStamp lin = diodeLinearize(iv, v, ctx.gmin);

  // Charge: depletion + diffusion (tt * id), recorded in DC too.
  const auto dep = depletionQC(v, dep_);
  const double q = dep.q + model_.tt * iv.i;
  const double cap = dep.c + model_.tt * iv.g;
  const double dqdt = ctx.integrate(stateBase(), q);

  const bool tran = ctx.c0 != 0.0;
  const ChargeCompanion qc =
      tran ? chargeCompanion(cap, ctx.c0, 1.0, dqdt, v) : ChargeCompanion{};
  SlotWriter w(s, stampPlan(ctx));
  stampDiode(w, a, aInt_, c, grs_, lin, tran ? &qc : nullptr);
}

void Diode::appendNoise(std::vector<NoiseSourceDesc>& out,
                        const Solution& op, double tempK) const {
  constexpr double kQ = 1.602176634e-19;
  const double kT4 = 4.0 * 1.380649e-23 * tempK;
  if (model_.rs > 0.0)
    out.push_back({nodes()[0], aInt_, kT4 * area_ / model_.rs, 0.0,
                   name() + " rs thermal"});
  out.push_back({aInt_, nodes()[1], 2.0 * kQ * std::fabs(current(op)), 0.0,
                 name() + " shot"});
}

void Diode::loadAc(AcStamper& s, const Solution& op, double omega) {
  AcSlotWriter w(s, stampPlanAc());
  const int a = nodes()[0], c = nodes()[1];
  if (model_.rs > 0.0) w.addAdmittance(a, aInt_, {grs_, 0.0});
  const double v = op.diff(aInt_, c);
  const auto iv = junctionIV(v, isArea_, vte_);
  const auto dep = depletionQC(v, dep_);
  const double cap = dep.c + model_.tt * iv.g;
  w.addAdmittance(aInt_, c, {iv.g, omega * cap});
}

}  // namespace ahfic::spice
