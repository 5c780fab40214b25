#pragma once
// Independent and controlled sources.
//
// Independent sources carry a time-domain Waveform (DC/SIN/PULSE/PWL/EXP)
// plus an AC magnitude/phase used only by the AC analysis. Controlled
// sources are the four SPICE types E (VCVS), G (VCCS), F (CCCS), H (CCVS);
// the current-controlled ones reference the branch current of a named
// voltage source, as in SPICE.

#include <memory>
#include <string>
#include <vector>

#include "spice/device.h"

namespace ahfic::spice {

/// Time-domain source waveform.
class Waveform {
 public:
  virtual ~Waveform() = default;
  /// Value at time `t` (t = 0 for DC analyses).
  virtual double value(double t) const = 0;
  /// Value used by DC analyses (the SPICE "DC value" / t=0 convention).
  virtual double dcValue() const { return value(0.0); }
  /// True for waveforms whose value changes with time (everything except
  /// DC). Lint uses this to spot transient specs without a .TRAN card.
  virtual bool isTimeVarying() const { return true; }
};

/// Constant value.
class DcWaveform final : public Waveform {
 public:
  explicit DcWaveform(double v) : v_(v) {}
  double value(double) const override { return v_; }
  bool isTimeVarying() const override { return false; }

 private:
  double v_;
};

/// SIN(VO VA FREQ TD THETA): offset + damped sine starting at TD.
class SinWaveform final : public Waveform {
 public:
  SinWaveform(double offset, double amplitude, double freqHz,
              double delay = 0.0, double theta = 0.0);
  double value(double t) const override;
  double dcValue() const override { return offset_; }

 private:
  double offset_, amplitude_, freq_, delay_, theta_;
};

/// PULSE(V1 V2 TD TR TF PW PER).
class PulseWaveform final : public Waveform {
 public:
  PulseWaveform(double v1, double v2, double delay, double rise, double fall,
                double width, double period);
  double value(double t) const override;
  double dcValue() const override { return v1_; }

 private:
  double v1_, v2_, delay_, rise_, fall_, width_, period_;
};

/// PWL(t1 v1 t2 v2 ...): piecewise linear, clamped at the ends.
class PwlWaveform final : public Waveform {
 public:
  /// `points` are (time, value) pairs with strictly increasing times.
  explicit PwlWaveform(std::vector<std::pair<double, double>> points);
  double value(double t) const override;

 private:
  std::vector<std::pair<double, double>> points_;
};

/// EXP(V1 V2 TD1 TAU1 TD2 TAU2).
class ExpWaveform final : public Waveform {
 public:
  ExpWaveform(double v1, double v2, double td1, double tau1, double td2,
              double tau2);
  double value(double t) const override;
  double dcValue() const override { return v1_; }

 private:
  double v1_, v2_, td1_, tau1_, td2_, tau2_;
};

/// SFFM(VO VA FC MDI FS): single-frequency FM.
class SffmWaveform final : public Waveform {
 public:
  SffmWaveform(double offset, double amplitude, double carrierHz,
               double modIndex, double signalHz);
  double value(double t) const override;
  double dcValue() const override { return offset_; }

 private:
  double offset_, amplitude_, fc_, mdi_, fs_;
};

/// AM(SA OC FM FC TD): amplitude modulation,
/// v = sa * (oc + sin(2*pi*fm*(t-td))) * sin(2*pi*fc*(t-td)).
class AmWaveform final : public Waveform {
 public:
  AmWaveform(double amplitude, double offset, double modHz, double carrierHz,
             double delay = 0.0);
  double value(double t) const override;
  double dcValue() const override { return 0.0; }

 private:
  double sa_, oc_, fm_, fc_, td_;
};

/// Independent voltage source (SPICE V element). One branch unknown.
class VSource final : public Device {
 public:
  VSource(std::string name, int p, int n, std::unique_ptr<Waveform> wave,
          double acMag = 0.0, double acPhaseDeg = 0.0);
  /// Convenience DC constructor.
  VSource(std::string name, int p, int n, double dc, double acMag = 0.0,
          double acPhaseDeg = 0.0);

  int branchCount() const override { return 1; }
  void load(Stamper& s, const Solution& x, const LoadContext& ctx) override;
  void loadAc(AcStamper& s, const Solution& op, double omega) override;

  /// Replaces the waveform (used by DC sweeps over a source).
  void setWaveform(std::unique_ptr<Waveform> wave) { wave_ = std::move(wave); }
  const Waveform& waveform() const { return *wave_; }
  double acMagnitude() const { return acMag_; }

 private:
  std::unique_ptr<Waveform> wave_;
  double acMag_, acPhaseDeg_;
};

/// Independent current source (SPICE I element), current flows p -> n
/// through the source (into node n externally... SPICE convention: positive
/// current flows from node p through the source to node n).
class ISource final : public Device {
 public:
  ISource(std::string name, int p, int n, std::unique_ptr<Waveform> wave,
          double acMag = 0.0, double acPhaseDeg = 0.0);
  ISource(std::string name, int p, int n, double dc, double acMag = 0.0,
          double acPhaseDeg = 0.0);

  void load(Stamper& s, const Solution& x, const LoadContext& ctx) override;
  void loadAc(AcStamper& s, const Solution& op, double omega) override;

  void setWaveform(std::unique_ptr<Waveform> wave) { wave_ = std::move(wave); }
  const Waveform& waveform() const { return *wave_; }
  double acMagnitude() const { return acMag_; }

 private:
  std::unique_ptr<Waveform> wave_;
  double acMag_, acPhaseDeg_;
};

/// VCVS (E): v(p,n) = gain * v(cp,cn). One branch unknown.
class Vcvs final : public Device {
 public:
  Vcvs(std::string name, int p, int n, int cp, int cn, double gain);
  int branchCount() const override { return 1; }
  bool matrixOnly() const override { return true; }
  void load(Stamper& s, const Solution& x, const LoadContext& ctx) override;
  void loadAc(AcStamper& s, const Solution& op, double omega) override;

 private:
  double gain_;
};

/// VCCS (G): i(p->n) = gm * v(cp,cn).
class Vccs final : public Device {
 public:
  Vccs(std::string name, int p, int n, int cp, int cn, double gm);
  bool matrixOnly() const override { return true; }
  void load(Stamper& s, const Solution& x, const LoadContext& ctx) override;
  void loadAc(AcStamper& s, const Solution& op, double omega) override;

 private:
  double gm_;
};

/// CCCS (F): i(p->n) = gain * i(Vctrl). References a VSource's branch.
class Cccs final : public Device {
 public:
  Cccs(std::string name, int p, int n, const VSource& ctrl, double gain);
  bool matrixOnly() const override { return true; }
  void load(Stamper& s, const Solution& x, const LoadContext& ctx) override;
  void loadAc(AcStamper& s, const Solution& op, double omega) override;

 private:
  const VSource& ctrl_;
  double gain_;
};

/// CCVS (H): v(p,n) = r * i(Vctrl). One branch unknown.
class Ccvs final : public Device {
 public:
  Ccvs(std::string name, int p, int n, const VSource& ctrl, double r);
  int branchCount() const override { return 1; }
  bool matrixOnly() const override { return true; }
  void load(Stamper& s, const Solution& x, const LoadContext& ctx) override;
  void loadAc(AcStamper& s, const Solution& op, double omega) override;

 private:
  const VSource& ctrl_;
  double r_;
};

}  // namespace ahfic::spice
