#pragma once
// Junction diode (SPICE D element).

#include "spice/device.h"
#include "spice/gummel.h"
#include "spice/junction.h"
#include "spice/models.h"

namespace ahfic::spice {

class Circuit;

/// The one junction-diode stamp sequence, shared by Diode::load() and
/// the batched replica engine: series resistance `grs` from anode `a` to
/// the internal anode `aInt` (stamped only when they differ), the
/// junction companion to cathode `c` and, when `q` is non-null
/// (transient), the charge companion. `w` is a SlotWriter.
template <typename W>
void stampDiode(W& w, int a, int aInt, int c, double grs,
                const DiodeStamp& s, const ChargeCompanion* q) {
  if (aInt != a) w.addConductance(a, aInt, grs);
  w.addNonlinearBranch(aInt, c, s.gd, s.ieq);
  if (q != nullptr) w.addNonlinearBranch(aInt, c, q->geq, q->ieq);
}

/// Junction diode from anode to cathode. When the model has rs > 0 an
/// internal anode node is created. Carries one charge state (depletion +
/// diffusion).
class Diode final : public Device {
 public:
  /// `area` scales is/cj0 and divides rs, as in SPICE.
  Diode(std::string name, Circuit& ckt, int anode, int cathode,
        const DiodeModel& model, double area = 1.0, double tempC = 27.0);

  int stateCount() const override { return 1; }
  bool isNonlinear() const override { return true; }

  void beginSolve(const Solution& x) override;
  void load(Stamper& s, const Solution& x, const LoadContext& ctx) override;
  void loadAc(AcStamper& s, const Solution& op, double omega) override;
  void appendNoise(std::vector<NoiseSourceDesc>& out, const Solution& op,
                   double tempK) const override;

  /// Junction voltage (internal anode to cathode) at solution `x`.
  double junctionVoltage(const Solution& x) const;
  /// Diode current at solution `x` (through the junction).
  double current(const Solution& x) const;

  /// Instance constants the batched replica engine needs to run this
  /// device's linearization and stamp sequence (see spice/batch.h).
  double vte() const { return vte_; }
  double vcrit() const { return vcrit_; }
  int internalAnode() const { return aInt_; }
  double saturationCurrent() const { return isArea_; }
  double rsConductance() const { return grs_; }

 private:
  DiodeModel model_;
  double area_;
  double vte_;    ///< n * Vt
  double vcrit_;
  double isArea_ = 0.0;  ///< is * area
  double grs_ = 0.0;     ///< area / rs (0 when rs == 0)
  DepletionConsts dep_;  ///< bias-independent depletion constants
  int aInt_;      ///< internal anode (== anode when rs == 0)
  double vLimited_ = 0.0;  ///< limiting history across Newton iterations
};

}  // namespace ahfic::spice
