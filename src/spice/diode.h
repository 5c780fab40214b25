#pragma once
// Junction diode (SPICE D element).

#include "spice/device.h"
#include "spice/junction.h"
#include "spice/models.h"

namespace ahfic::spice {

class Circuit;

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

  /// Derived constants used by the batched replica engine to mirror this
  /// device's arithmetic exactly (see spice/batch.h).
  const DiodeModel& scaledModel() const { return model_; }
  double area() const { return area_; }
  double vte() const { return vte_; }
  double vcrit() const { return vcrit_; }
  int internalAnode() const { return aInt_; }

 private:
  DiodeModel model_;
  double area_;
  double vte_;    ///< n * Vt
  double vcrit_;
  DepletionConsts dep_;  ///< bias-independent depletion constants
  int aInt_;      ///< internal anode (== anode when rs == 0)
  double vLimited_ = 0.0;  ///< limiting history across Newton iterations
};

}  // namespace ahfic::spice
