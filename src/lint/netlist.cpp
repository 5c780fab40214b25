#include "lint/netlist.h"

#include <map>
#include <vector>

#include "lint/modelcard.h"
#include "obs/metrics.h"
#include "spice/bjt.h"
#include "spice/diode.h"
#include "spice/mosfet.h"
#include "spice/passive.h"
#include "spice/sources.h"
#include "util/error.h"

namespace ahfic::lint {

namespace {

/// Union-find over node ids with path halving.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<size_t>(n)) {
    for (int k = 0; k < n; ++k) parent_[static_cast<size_t>(k)] = k;
  }
  int find(int a) {
    while (parent_[static_cast<size_t>(a)] != a) {
      parent_[static_cast<size_t>(a)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(a)])];
      a = parent_[static_cast<size_t>(a)];
    }
    return a;
  }
  /// Merges the sets of a and b; returns false when they were already in
  /// the same set (i.e. the edge closes a cycle).
  bool unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[static_cast<size_t>(a)] = b;
    return true;
  }

 private:
  std::vector<int> parent_;
};

/// Engine-synthesised internal nodes ("q1#b") are wired inside their
/// device and never user-visible; node-level checks skip them.
bool isInternalNode(const std::string& name) {
  return name.find('#') != std::string::npos;
}

/// SourceLoc for a device: deck line when the parser recorded one.
SourceLoc deviceLoc(const spice::Circuit& ckt, const spice::Device& dev) {
  SourceLoc loc = SourceLoc::forObject(dev.name());
  loc.line = ckt.deviceLine(dev.name());
  return loc;
}

}  // namespace

LintReport lintCircuit(const spice::Circuit& ckt) {
  static const obs::Counter cRuns = obs::counter("lint.netlist_runs");
  static const obs::Counter cDiags = obs::counter("lint.diagnostics");
  cRuns.add();

  LintReport report;
  const int n = ckt.nodeCount();
  const size_t nn = static_cast<size_t>(n);

  // One device walk classifies every terminal.
  std::vector<int> attachments(nn, 0);       // device terminals per node
  std::vector<int> nonCurrentTerms(nn, 0);   // terminals that are not
                                             // current-source injections
  std::vector<int> firstDevice(nn, -1);      // device index per node (loc)
  UnionFind structural(n);  // every device ties all its nodes together
  UnionFind dcPath(n);      // only DC-conductive edges
  UnionFind vBranches(n);   // only voltage-defining branches

  const auto& devices = ckt.devices();
  for (size_t di = 0; di < devices.size(); ++di) {
    const spice::Device* dev = devices[di].get();
    const auto& nodes = dev->nodes();
    for (int nd : nodes) {
      if (nd <= 0 || nd >= n) continue;
      ++attachments[static_cast<size_t>(nd)];
      if (firstDevice[static_cast<size_t>(nd)] < 0)
        firstDevice[static_cast<size_t>(nd)] = static_cast<int>(di);
    }
    for (size_t k = 1; k < nodes.size(); ++k)
      structural.unite(nodes[0], nodes[k]);

    // Current-source injections: the first two terminals of I/VCCS/CCCS.
    const bool isCurrentSource = dynamic_cast<const spice::ISource*>(dev) ||
                                 dynamic_cast<const spice::Vccs*>(dev) ||
                                 dynamic_cast<const spice::Cccs*>(dev);
    for (size_t k = 0; k < nodes.size(); ++k) {
      const int nd = nodes[k];
      if (nd <= 0 || nd >= n) continue;
      if (!(isCurrentSource && k < 2))
        ++nonCurrentTerms[static_cast<size_t>(nd)];
    }

    // DC-conductive edges (capacitors open, current sources unconstrained,
    // MOS gate insulated).
    if (dynamic_cast<const spice::Resistor*>(dev) ||
        dynamic_cast<const spice::Inductor*>(dev) ||
        dynamic_cast<const spice::VSource*>(dev) ||
        dynamic_cast<const spice::Vcvs*>(dev) ||
        dynamic_cast<const spice::Ccvs*>(dev) ||
        dynamic_cast<const spice::Diode*>(dev)) {
      dcPath.unite(nodes[0], nodes[1]);
    } else if (dynamic_cast<const spice::Bjt*>(dev)) {
      // c-b-e conduct through the junctions; the substrate junction at
      // least sees the gmin shunt, so tie it in too (false positives on
      // substrate nets would be worse than a missed corner case).
      for (size_t k = 1; k < nodes.size(); ++k)
        dcPath.unite(nodes[0], nodes[k]);
    } else if (dynamic_cast<const spice::Mosfet*>(dev)) {
      // d(0), s(2), b(3) conduct; the gate (1) is insulated.
      dcPath.unite(nodes[0], nodes[2]);
      dcPath.unite(nodes[0], nodes[3]);
    }

    // Voltage-defining branches: cycles here mean a singular MNA matrix.
    const bool definesVoltage = dynamic_cast<const spice::VSource*>(dev) ||
                                dynamic_cast<const spice::Vcvs*>(dev) ||
                                dynamic_cast<const spice::Ccvs*>(dev);
    const bool isInductor = dynamic_cast<const spice::Inductor*>(dev);
    if (definesVoltage || isInductor) {
      const int ra = vBranches.find(nodes[0]);
      const int rb = vBranches.find(nodes[1]);
      const bool closes = (ra == rb);
      if (!closes) vBranches.unite(nodes[0], nodes[1]);
      if (closes || nodes[0] == nodes[1]) {
        // Walk earlier devices in this component to classify the loop.
        bool loopHasSource = definesVoltage;
        if (!loopHasSource) {
          for (size_t dj = 0; dj < di; ++dj) {
            const spice::Device* other = devices[dj].get();
            if (!(dynamic_cast<const spice::VSource*>(other) ||
                  dynamic_cast<const spice::Vcvs*>(other) ||
                  dynamic_cast<const spice::Ccvs*>(other)))
              continue;
            if (vBranches.find(other->nodes()[0]) == ra) {
              loopHasSource = true;
              break;
            }
          }
        }
        if (loopHasSource) {
          report.error(
              "NET_VSRC_LOOP",
              "'" + dev->name() + "' closes a loop of voltage sources" +
                  (isInductor ? "/inductors" : "") +
                  " between nodes '" + ckt.nodeName(nodes[0]) + "' and '" +
                  ckt.nodeName(nodes[1]) +
                  "': the MNA matrix is singular (KVL overdetermined)",
              deviceLoc(ckt, *dev));
        } else {
          report.error(
              "NET_IND_LOOP",
              "'" + dev->name() + "' closes a loop of inductors between "
                  "nodes '" + ckt.nodeName(nodes[0]) + "' and '" +
                  ckt.nodeName(nodes[1]) +
                  "': inductors are DC shorts, the operating point is "
                  "singular",
              deviceLoc(ckt, *dev));
        }
      }
    }

    // Value sanity on constructed passives.
    if (const auto* cap = dynamic_cast<const spice::Capacitor*>(dev)) {
      if (cap->capacitance() == 0.0)
        report.warning("NET_ZERO_CAP",
                       "capacitor '" + dev->name() +
                           "' has zero capacitance and never conducts",
                       deviceLoc(ckt, *dev));
    }
  }

  auto nodeLoc = [&](int nd) {
    SourceLoc loc = SourceLoc::forObject("node " + ckt.nodeName(nd));
    const int di = firstDevice[static_cast<size_t>(nd)];
    if (di >= 0) loc.line = ckt.deviceLine(devices[static_cast<size_t>(di)]->name());
    return loc;
  };

  // Per-node verdicts. Ordered so each node gets its most specific
  // diagnosis only: cutset > disconnected > floating > dangling.
  const int groundStructural = structural.find(0);
  const int groundDc = dcPath.find(0);
  std::map<int, std::vector<std::string>> islands;  // root -> node names
  for (int nd = 1; nd < n; ++nd) {
    const size_t ni = static_cast<size_t>(nd);
    if (isInternalNode(ckt.nodeName(nd))) continue;
    if (attachments[ni] == 0) continue;  // named but unused: harmless

    if (nonCurrentTerms[ni] == 0) {
      report.error(
          "NET_ISRC_CUTSET",
          "node '" + ckt.nodeName(nd) +
              "' is fed exclusively by current sources: KCL there is "
              "overdetermined and the node voltage is unconstrained",
          nodeLoc(nd));
      continue;
    }
    if (structural.find(nd) != groundStructural) {
      islands[structural.find(nd)].push_back(ckt.nodeName(nd));
      continue;
    }
    if (dcPath.find(nd) != groundDc) {
      report.error(
          "NET_FLOATING_NODE",
          "node '" + ckt.nodeName(nd) +
              "' has no DC path to ground (capacitors are open, current "
              "sources and MOS gates do not constrain the voltage): the "
              "operating-point matrix is singular",
          nodeLoc(nd));
      continue;
    }
    if (attachments[ni] == 1)
      report.warning("NET_DANGLING_NODE",
                     "node '" + ckt.nodeName(nd) +
                         "' is attached to a single device terminal",
                     nodeLoc(nd));
  }
  for (const auto& [root, names] : islands) {
    std::string list;
    for (size_t k = 0; k < names.size() && k < 4; ++k) {
      if (k) list += ", ";
      list += names[k];
    }
    if (names.size() > 4) list += ", ...";
    report.error("NET_DISCONNECTED",
                 "component island {" + list + "} (" +
                     std::to_string(names.size()) +
                     " node(s)) is unreachable from ground",
                 SourceLoc::forObject(names.front()));
  }

  // Model cards registered on the circuit.
  for (const auto& [name, model] : ckt.bjtModels())
    lintBjtModel(model, name, report);
  for (const auto& [name, model] : ckt.diodeModels())
    lintDiodeModel(model, name, report);

  cDiags.add(static_cast<long long>(report.diagnostics().size()));
  return report;
}

LintReport lintDeck(const spice::Deck& deck) {
  LintReport report = lintCircuit(deck.circuit);

  bool hasAc = false, hasTran = false;
  for (const auto& req : deck.analyses) {
    if (std::holds_alternative<spice::AcRequest>(req) ||
        std::holds_alternative<spice::NoiseRequest>(req))
      hasAc = true;
    if (std::holds_alternative<spice::TranRequest>(req)) hasTran = true;
  }

  bool anyAcSource = false;
  for (const auto& dev : deck.circuit.devices()) {
    double acMag = 0.0;
    const spice::Waveform* wave = nullptr;
    if (const auto* v = dynamic_cast<const spice::VSource*>(dev.get())) {
      acMag = v->acMagnitude();
      wave = &v->waveform();
    } else if (const auto* i =
                   dynamic_cast<const spice::ISource*>(dev.get())) {
      acMag = i->acMagnitude();
      wave = &i->waveform();
    } else {
      continue;
    }
    if (acMag != 0.0) anyAcSource = true;
    if (acMag != 0.0 && !hasAc)
      report.warning("NET_UNUSED_AC",
                     "source '" + dev->name() +
                         "' carries an AC specification but the deck "
                         "requests no .AC or .NOISE analysis",
                     deviceLoc(deck.circuit, *dev));
    if (wave->isTimeVarying() && !hasTran)
      report.warning("NET_UNUSED_TRAN",
                     "source '" + dev->name() +
                         "' carries a time-varying waveform but the deck "
                         "requests no .TRAN analysis",
                     deviceLoc(deck.circuit, *dev));
  }
  if (hasAc && !anyAcSource)
    report.warning("NET_NO_AC_SOURCE",
                   "an .AC/.NOISE analysis is requested but no source has "
                   "a nonzero AC magnitude: the response will be zero");
  if (deck.analyses.empty())
    report.info("NET_NO_ANALYSIS",
                "the deck requests no analysis (.OP/.DC/.AC/.TRAN/.NOISE)");
  return report;
}

LintReport lintDeckText(const std::string& text) {
  spice::Deck deck;
  try {
    deck = spice::parseDeck(text);
  } catch (const ParseError& e) {
    LintReport report;
    report.error("PARSE", e.what(), SourceLoc::forLine(e.line()));
    return report;
  } catch (const Error& e) {
    // Construction-time rejection (zero-valued R/L, duplicate device
    // names, unknown models referenced by position...).
    LintReport report;
    report.error("PARSE", e.what());
    return report;
  }
  return lintDeck(deck);
}

}  // namespace ahfic::lint
