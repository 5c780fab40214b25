#pragma once
// Shared p-n junction physics: exponential current with overflow-safe
// linear continuation, SPICE's pnjlim Newton damping, and depletion
// charge/capacitance with the standard FC linearisation above fc*vj.

#include <cmath>

namespace ahfic::spice {

/// Junction current and conductance: i = isat*(exp(v/vte)-1), linearly
/// continued above `vcrit`-ish voltages to avoid overflow (SPICE style:
/// exponential is evaluated exactly up to an explim; beyond, first-order
/// Taylor continuation keeps i and di/dv continuous).
struct JunctionIV {
  double i;
  double g;  ///< di/dv
};

inline JunctionIV junctionIV(double v, double isat, double vte) {
  constexpr double kMaxExpArg = 80.0;  // exp(80) ~ 5.5e34, still finite
  const double arg = v / vte;
  if (arg > kMaxExpArg) {
    const double e = std::exp(kMaxExpArg);
    const double g = isat * e / vte;
    const double i = isat * (e - 1.0) + g * (v - kMaxExpArg * vte);
    return {i, g};
  }
  if (arg < -kMaxExpArg) {
    // Deep reverse: i -> -isat, tiny slope to keep the Jacobian regular.
    return {-isat, isat / vte * std::exp(-kMaxExpArg)};
  }
  const double e = std::exp(arg);
  return {isat * (e - 1.0), isat * e / vte};
}

/// SPICE pnjlim: limits the Newton update of a junction voltage so the
/// exponential does not explode. `vnew` is the raw update, `vold` the
/// previous iterate, `vt` the (emission-scaled) thermal voltage and
/// `vcrit` = vte*ln(vte/(sqrt(2)*isat)).
inline double pnjlim(double vnew, double vold, double vte, double vcrit) {
  if (vnew > vcrit && std::fabs(vnew - vold) > 2.0 * vte) {
    if (vold > 0.0) {
      const double arg = 1.0 + (vnew - vold) / vte;
      if (arg > 0.0)
        vnew = vold + vte * std::log(arg);
      else
        vnew = vcrit;
    } else {
      vnew = vte * std::log(vnew / vte);
    }
  }
  return vnew;
}

/// Critical voltage for pnjlim.
inline double junctionVcrit(double isat, double vte) {
  return vte * std::log(vte / (1.4142135623730951 * isat));
}

/// Depletion charge and capacitance for a step/graded junction:
///   c(v) = cj0 / (1 - v/vj)^m            for v <  fc*vj
/// linearised (SPICE) above fc*vj so charge and capacitance stay smooth.
struct DepletionQC {
  double q;
  double c;
};

/// The bias-independent part of one junction's depletionQC(): the card
/// values plus every product that does not involve v, computed once per
/// device instance. An evaluation then pays at most the pow() pair of
/// the graded branch and nothing above fc*vj.
struct DepletionConsts {
  double cj0, vj, m;
  double vf;                   ///< fc * vj, the linearisation point
  double qk;                   ///< cj0 * vj / (1 - m)
  double f1, f2, f3;           ///< linear-continuation coefficients
  double cjf2;                 ///< cj0 * f2
  double halfMOverVj, vfSq;    ///< 0.5 * m / vj, vf * vf
};

inline DepletionConsts depletionConsts(double cj0, double vj, double m,
                                       double fc) {
  DepletionConsts k;
  k.cj0 = cj0;
  k.vj = vj;
  k.m = m;
  k.vf = fc * vj;
  k.qk = cj0 * vj / (1.0 - m);
  // Linear continuation: c(v) = cj0/(1-fc)^(1+m) * (1 - fc(1+m) + m v/vj)
  k.f1 = vj / (1.0 - m) * (1.0 - std::pow(1.0 - fc, 1.0 - m));
  k.f2 = std::pow(1.0 - fc, -(1.0 + m));
  k.f3 = 1.0 - fc * (1.0 + m);
  k.cjf2 = cj0 * k.f2;
  k.halfMOverVj = 0.5 * m / vj;
  k.vfSq = k.vf * k.vf;
  return k;
}

namespace detail {

/// depletionQC() below fc*vj, given the shared powers (1 - v/vj)^-m and
/// (1 - v/vj)^(1-m).
inline DepletionQC depletionGraded(const DepletionConsts& k, double pm,
                                   double p1m) {
  if (k.cj0 <= 0.0) return {0.0, 0.0};
  return {k.qk * (1.0 - p1m), k.cj0 * pm};
}

/// depletionQC() at or above fc*vj.
inline DepletionQC depletionLinear(const DepletionConsts& k, double v) {
  if (k.cj0 <= 0.0) return {0.0, 0.0};
  const double c = k.cjf2 * (k.f3 + k.m * v / k.vj);
  const double q =
      k.cj0 * (k.f1 + k.f2 * (k.f3 * (v - k.vf) +
                              k.halfMOverVj * (v * v - k.vfSq)));
  return {q, c};
}

}  // namespace detail

inline DepletionQC depletionQC(double v, const DepletionConsts& k) {
  if (k.cj0 <= 0.0) return {0.0, 0.0};
  if (v < k.vf) {
    const double a = 1.0 - v / k.vj;
    return detail::depletionGraded(k, std::pow(a, -k.m),
                                   std::pow(a, 1.0 - k.m));
  }
  return detail::depletionLinear(k, v);
}

/// Two junctions that share vj, m and fc and differ only in cj0 (the
/// B-C XCJC split): one pow() pair serves both.
inline void depletionQCPair(double v, const DepletionConsts& ka,
                            const DepletionConsts& kb, DepletionQC& a,
                            DepletionQC& b) {
  if (v < ka.vf) {
    const double t = 1.0 - v / ka.vj;
    const double pm = std::pow(t, -ka.m);
    const double p1m = std::pow(t, 1.0 - ka.m);
    a = detail::depletionGraded(ka, pm, p1m);
    b = detail::depletionGraded(kb, pm, p1m);
    return;
  }
  a = detail::depletionLinear(ka, v);
  b = detail::depletionLinear(kb, v);
}

/// One-shot form for callers without a per-instance DepletionConsts.
inline DepletionQC depletionQC(double v, double cj0, double vj, double m,
                               double fc) {
  return depletionQC(v, depletionConsts(cj0, vj, m, fc));
}

}  // namespace ahfic::spice
