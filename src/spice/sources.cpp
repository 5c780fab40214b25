#include "spice/sources.h"

#include <cmath>

#include "util/error.h"
#include "util/units.h"

namespace ahfic::spice {

using util::constants::kTwoPi;

SinWaveform::SinWaveform(double offset, double amplitude, double freqHz,
                         double delay, double theta)
    : offset_(offset),
      amplitude_(amplitude),
      freq_(freqHz),
      delay_(delay),
      theta_(theta) {
  if (freqHz <= 0.0) throw Error("SIN waveform: frequency must be > 0");
}

double SinWaveform::value(double t) const {
  if (t < delay_) return offset_;
  const double tt = t - delay_;
  return offset_ + amplitude_ * std::exp(-theta_ * tt) *
                       std::sin(kTwoPi * freq_ * tt);
}

PulseWaveform::PulseWaveform(double v1, double v2, double delay, double rise,
                             double fall, double width, double period)
    : v1_(v1),
      v2_(v2),
      delay_(delay),
      rise_(rise > 0 ? rise : 1e-12),
      fall_(fall > 0 ? fall : 1e-12),
      width_(width),
      period_(period) {}

double PulseWaveform::value(double t) const {
  if (t < delay_) return v1_;
  double tt = t - delay_;
  if (period_ > 0.0) tt = std::fmod(tt, period_);
  if (tt < rise_) return v1_ + (v2_ - v1_) * tt / rise_;
  tt -= rise_;
  if (tt < width_) return v2_;
  tt -= width_;
  if (tt < fall_) return v2_ + (v1_ - v2_) * tt / fall_;
  return v1_;
}

PwlWaveform::PwlWaveform(std::vector<std::pair<double, double>> points)
    : points_(std::move(points)) {
  if (points_.size() < 2) throw Error("PWL waveform: need >= 2 points");
  for (size_t i = 1; i < points_.size(); ++i)
    if (points_[i].first <= points_[i - 1].first)
      throw Error("PWL waveform: times must be strictly increasing");
}

double PwlWaveform::value(double t) const {
  if (t <= points_.front().first) return points_.front().second;
  if (t >= points_.back().first) return points_.back().second;
  for (size_t i = 1; i < points_.size(); ++i) {
    if (t <= points_[i].first) {
      const auto& [t0, v0] = points_[i - 1];
      const auto& [t1, v1] = points_[i];
      return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
    }
  }
  return points_.back().second;
}

ExpWaveform::ExpWaveform(double v1, double v2, double td1, double tau1,
                         double td2, double tau2)
    : v1_(v1), v2_(v2), td1_(td1), tau1_(tau1), td2_(td2), tau2_(tau2) {
  if (tau1 <= 0.0 || tau2 <= 0.0)
    throw Error("EXP waveform: time constants must be > 0");
}

double ExpWaveform::value(double t) const {
  double v = v1_;
  if (t >= td1_) v += (v2_ - v1_) * (1.0 - std::exp(-(t - td1_) / tau1_));
  if (t >= td2_) v += (v1_ - v2_) * (1.0 - std::exp(-(t - td2_) / tau2_));
  return v;
}

SffmWaveform::SffmWaveform(double offset, double amplitude,
                           double carrierHz, double modIndex,
                           double signalHz)
    : offset_(offset),
      amplitude_(amplitude),
      fc_(carrierHz),
      mdi_(modIndex),
      fs_(signalHz) {
  if (carrierHz <= 0.0 || signalHz <= 0.0)
    throw Error("SFFM waveform: frequencies must be > 0");
}

double SffmWaveform::value(double t) const {
  return offset_ + amplitude_ * std::sin(kTwoPi * fc_ * t +
                                         mdi_ * std::sin(kTwoPi * fs_ * t));
}

AmWaveform::AmWaveform(double amplitude, double offset, double modHz,
                       double carrierHz, double delay)
    : sa_(amplitude), oc_(offset), fm_(modHz), fc_(carrierHz), td_(delay) {
  if (carrierHz <= 0.0 || modHz <= 0.0)
    throw Error("AM waveform: frequencies must be > 0");
}

double AmWaveform::value(double t) const {
  if (t < td_) return 0.0;
  const double tt = t - td_;
  return sa_ * (oc_ + std::sin(kTwoPi * fm_ * tt)) *
         std::sin(kTwoPi * fc_ * tt);
}

VSource::VSource(std::string name, int p, int n,
                 std::unique_ptr<Waveform> wave, double acMag,
                 double acPhaseDeg)
    : Device(std::move(name), {p, n}),
      wave_(std::move(wave)),
      acMag_(acMag),
      acPhaseDeg_(acPhaseDeg) {
  if (!wave_) throw Error("VSource: null waveform");
}

VSource::VSource(std::string name, int p, int n, double dc, double acMag,
                 double acPhaseDeg)
    : VSource(std::move(name), p, n, std::make_unique<DcWaveform>(dc), acMag,
              acPhaseDeg) {}

void VSource::load(Stamper& s, const Solution&, const LoadContext& ctx) {
  SlotWriter w(s, stampPlan(ctx));
  const int p = nodes()[0], n = nodes()[1], br = branchId();
  w.addA(p, br, 1.0);
  w.addA(n, br, -1.0);
  w.addA(br, p, 1.0);
  w.addA(br, n, -1.0);
  const double v = (ctx.mode == AnalysisMode::kTransient)
                       ? wave_->value(ctx.time)
                       : wave_->dcValue();
  w.addRhs(br, ctx.srcScale * v);
}

void VSource::loadAc(AcStamper& s, const Solution&, double) {
  AcSlotWriter w(s, stampPlanAc());
  const int p = nodes()[0], n = nodes()[1], br = branchId();
  w.addA(p, br, {1.0, 0.0});
  w.addA(n, br, {-1.0, 0.0});
  w.addA(br, p, {1.0, 0.0});
  w.addA(br, n, {-1.0, 0.0});
  const double ph = acPhaseDeg_ * util::constants::kPi / 180.0;
  w.addRhs(br, {acMag_ * std::cos(ph), acMag_ * std::sin(ph)});
}

ISource::ISource(std::string name, int p, int n,
                 std::unique_ptr<Waveform> wave, double acMag,
                 double acPhaseDeg)
    : Device(std::move(name), {p, n}),
      wave_(std::move(wave)),
      acMag_(acMag),
      acPhaseDeg_(acPhaseDeg) {
  if (!wave_) throw Error("ISource: null waveform");
}

ISource::ISource(std::string name, int p, int n, double dc, double acMag,
                 double acPhaseDeg)
    : ISource(std::move(name), p, n, std::make_unique<DcWaveform>(dc), acMag,
              acPhaseDeg) {}

void ISource::load(Stamper& s, const Solution&, const LoadContext& ctx) {
  SlotWriter w(s, stampPlan(ctx));
  const double i = ctx.srcScale * ((ctx.mode == AnalysisMode::kTransient)
                                       ? wave_->value(ctx.time)
                                       : wave_->dcValue());
  // Positive current flows p -> n through the source: out of node p's KCL,
  // into node n's.
  w.addCurrent(nodes()[0], -i);
  w.addCurrent(nodes()[1], i);
}

void ISource::loadAc(AcStamper& s, const Solution&, double) {
  AcSlotWriter w(s, stampPlanAc());
  const double ph = acPhaseDeg_ * util::constants::kPi / 180.0;
  const std::complex<double> i{acMag_ * std::cos(ph),
                               acMag_ * std::sin(ph)};
  w.addRhs(nodes()[0], -i);
  w.addRhs(nodes()[1], i);
}

Vcvs::Vcvs(std::string name, int p, int n, int cp, int cn, double gain)
    : Device(std::move(name), {p, n, cp, cn}), gain_(gain) {}

void Vcvs::load(Stamper& s, const Solution&, const LoadContext& ctx) {
  SlotWriter w(s, stampPlan(ctx));
  const int p = nodes()[0], n = nodes()[1], cp = nodes()[2], cn = nodes()[3];
  const int br = branchId();
  w.addA(p, br, 1.0);
  w.addA(n, br, -1.0);
  w.addA(br, p, 1.0);
  w.addA(br, n, -1.0);
  w.addA(br, cp, -gain_);
  w.addA(br, cn, gain_);
}

void Vcvs::loadAc(AcStamper& s, const Solution&, double) {
  AcSlotWriter w(s, stampPlanAc());
  const int p = nodes()[0], n = nodes()[1], cp = nodes()[2], cn = nodes()[3];
  const int br = branchId();
  w.addA(p, br, {1.0, 0.0});
  w.addA(n, br, {-1.0, 0.0});
  w.addA(br, p, {1.0, 0.0});
  w.addA(br, n, {-1.0, 0.0});
  w.addA(br, cp, {-gain_, 0.0});
  w.addA(br, cn, {gain_, 0.0});
}

Vccs::Vccs(std::string name, int p, int n, int cp, int cn, double gm)
    : Device(std::move(name), {p, n, cp, cn}), gm_(gm) {}

void Vccs::load(Stamper& s, const Solution&, const LoadContext& ctx) {
  SlotWriter w(s, stampPlan(ctx));
  // Current gm*v(cp,cn) flows p -> n through the source.
  w.addTransconductance(nodes()[0], nodes()[1], nodes()[2], nodes()[3], gm_);
}

void Vccs::loadAc(AcStamper& s, const Solution&, double) {
  AcSlotWriter w(s, stampPlanAc());
  w.addTransadmittance(nodes()[0], nodes()[1], nodes()[2], nodes()[3],
                       {gm_, 0.0});
}

Cccs::Cccs(std::string name, int p, int n, const VSource& ctrl, double gain)
    : Device(std::move(name), {p, n}), ctrl_(ctrl), gain_(gain) {}

void Cccs::load(Stamper& s, const Solution&, const LoadContext& ctx) {
  SlotWriter w(s, stampPlan(ctx));
  const int p = nodes()[0], n = nodes()[1], cbr = ctrl_.branchId();
  w.addA(p, cbr, gain_);
  w.addA(n, cbr, -gain_);
}

void Cccs::loadAc(AcStamper& s, const Solution&, double) {
  AcSlotWriter w(s, stampPlanAc());
  const int p = nodes()[0], n = nodes()[1], cbr = ctrl_.branchId();
  w.addA(p, cbr, {gain_, 0.0});
  w.addA(n, cbr, {-gain_, 0.0});
}

Ccvs::Ccvs(std::string name, int p, int n, const VSource& ctrl, double r)
    : Device(std::move(name), {p, n}), ctrl_(ctrl), r_(r) {}

void Ccvs::load(Stamper& s, const Solution&, const LoadContext& ctx) {
  SlotWriter w(s, stampPlan(ctx));
  const int p = nodes()[0], n = nodes()[1], br = branchId();
  const int cbr = ctrl_.branchId();
  w.addA(p, br, 1.0);
  w.addA(n, br, -1.0);
  w.addA(br, p, 1.0);
  w.addA(br, n, -1.0);
  w.addA(br, cbr, -r_);
}

void Ccvs::loadAc(AcStamper& s, const Solution&, double) {
  AcSlotWriter w(s, stampPlanAc());
  const int p = nodes()[0], n = nodes()[1], br = branchId();
  const int cbr = ctrl_.branchId();
  w.addA(p, br, {1.0, 0.0});
  w.addA(n, br, {-1.0, 0.0});
  w.addA(br, p, {1.0, 0.0});
  w.addA(br, n, {-1.0, 0.0});
  w.addA(br, cbr, {-r_, 0.0});
}

}  // namespace ahfic::spice
