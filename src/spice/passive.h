#pragma once
// Linear passive elements: resistor, capacitor, inductor.

#include "spice/device.h"

namespace ahfic::spice {

/// Linear resistor between nodes a and b.
class Resistor final : public Device {
 public:
  /// `ohms` must be > 0.
  Resistor(std::string name, int a, int b, double ohms);

  double resistance() const { return ohms_; }
  void setResistance(double ohms);

  bool matrixOnly() const override { return true; }
  void load(Stamper& s, const Solution& x, const LoadContext& ctx) override;
  void loadAc(AcStamper& s, const Solution& op, double omega) override;
  void appendNoise(std::vector<NoiseSourceDesc>& out, const Solution& op,
                   double tempK) const override;

 private:
  double ohms_;
};

/// Linear capacitor between nodes a and b. Carries one charge state.
class Capacitor final : public Device {
 public:
  /// `farads` must be >= 0.
  Capacitor(std::string name, int a, int b, double farads);

  double capacitance() const { return farads_; }

  int stateCount() const override { return 1; }
  void load(Stamper& s, const Solution& x, const LoadContext& ctx) override;
  void loadAc(AcStamper& s, const Solution& op, double omega) override;

 private:
  double farads_;
};

/// Linear inductor between nodes a and b. Uses one branch-current unknown
/// and one flux state; a DC short when c0 == 0.
class Inductor final : public Device {
 public:
  /// `henries` must be > 0.
  Inductor(std::string name, int a, int b, double henries);

  double inductance() const { return henries_; }

  int branchCount() const override { return 1; }
  int stateCount() const override { return 1; }
  void load(Stamper& s, const Solution& x, const LoadContext& ctx) override;
  void loadAc(AcStamper& s, const Solution& op, double omega) override;

 private:
  double henries_;
};

}  // namespace ahfic::spice
