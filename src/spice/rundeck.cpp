#include "spice/rundeck.h"

#include <cmath>
#include <ostream>

#include "spice/analysis.h"
#include "util/plot.h"
#include "util/table.h"
#include "util/units.h"

namespace ahfic::spice {

namespace {

namespace u = ahfic::util;

/// User-visible nodes: skip device-internal ('#') and subckt-internal
/// ('.') nodes, and ground.
std::vector<int> visibleNodes(const Circuit& ckt, int maxColumns) {
  std::vector<int> nodes;
  for (int id = 1; id < ckt.nodeCount(); ++id) {
    const std::string& name = ckt.nodeName(id);
    if (name.find('#') != std::string::npos) continue;
    if (name.find('.') != std::string::npos) continue;
    nodes.push_back(id);
    if (static_cast<int>(nodes.size()) >= maxColumns) break;
  }
  if (nodes.empty()) {
    for (int id = 1;
         id < ckt.nodeCount() &&
         static_cast<int>(nodes.size()) < maxColumns;
         ++id)
      nodes.push_back(id);
  }
  return nodes;
}

void printOp(const Circuit& ckt, const std::vector<double>& x,
             std::ostream& os) {
  os << "* operating point\n";
  u::Table t({"node", "voltage [V]"});
  Solution s(&x);
  for (int id = 1; id < ckt.nodeCount(); ++id) {
    const std::string& name = ckt.nodeName(id);
    if (name.find('#') != std::string::npos) continue;
    t.addRow({name, u::fixed(s.at(id), 6)});
  }
  t.print(os);
  os << '\n';
}

void printDc(const Circuit& ckt, const DcRequest& req,
             const DcSweepResult& res, std::ostream& os,
             const RunDeckOptions& opt) {
  os << "* dc sweep of " << req.source << '\n';
  const auto nodes = visibleNodes(ckt, opt.maxColumns);
  std::vector<std::string> header{req.source};
  for (int id : nodes) header.push_back("V(" + ckt.nodeName(id) + ")");
  u::Table t(header);
  const size_t stride =
      std::max<size_t>(1, res.sweep.size() / opt.maxSweepRows);
  for (size_t k = 0; k < res.sweep.size(); k += stride) {
    std::vector<std::string> row{u::fixed(res.sweep[k], 4)};
    for (int id : nodes) row.push_back(u::fixed(res.voltage(k, id), 6));
    t.addRow(std::move(row));
  }
  t.print(os);
  os << '\n';
}

void printAc(const Circuit& ckt, const AcResult& res, std::ostream& os,
             const RunDeckOptions& opt) {
  os << "* ac analysis (magnitude dB / phase deg)\n";
  const auto nodes = visibleNodes(ckt, opt.maxColumns / 2 + 1);
  std::vector<std::string> header{"freq"};
  for (int id : nodes) {
    header.push_back("|V(" + ckt.nodeName(id) + ")| dB");
    header.push_back("ph deg");
  }
  u::Table t(header);
  const size_t stride =
      std::max<size_t>(1, res.frequency.size() / opt.maxSweepRows);
  for (size_t k = 0; k < res.frequency.size(); k += stride) {
    std::vector<std::string> row{u::formatFrequency(res.frequency[k])};
    for (int id : nodes) {
      const auto v = res.voltage(k, id);
      row.push_back(u::fixed(res.magnitudeDb(k, id), 2));
      row.push_back(
          u::fixed(std::arg(v) * 180.0 / u::constants::kPi, 1));
    }
    t.addRow(std::move(row));
  }
  t.print(os);
  os << '\n';
}

void printTran(const Circuit& ckt, const TranResult& res, std::ostream& os,
               const RunDeckOptions& opt) {
  os << "* transient analysis (" << res.time.size() << " points)\n";
  const auto nodes = visibleNodes(ckt, opt.maxColumns);
  std::vector<std::string> header{"time"};
  for (int id : nodes) header.push_back("V(" + ckt.nodeName(id) + ")");
  u::Table t(header);
  const size_t stride =
      std::max<size_t>(1, res.time.size() / opt.maxTranRows);
  for (size_t k = 0; k < res.time.size(); k += stride) {
    std::vector<std::string> row{u::formatEngineering(res.time[k], 4)};
    Solution s(&res.values[k]);
    for (int id : nodes) row.push_back(u::fixed(s.at(id), 5));
    t.addRow(std::move(row));
  }
  t.print(os);
  os << '\n';
  // ASCII plot of the first visible node (classic .PLOT flavour).
  if (!nodes.empty() && res.time.size() >= 2) {
    u::PlotOptions popt;
    popt.xLabel = "t [s]";
    popt.yLabel = "V(" + ckt.nodeName(nodes[0]) + ") [V]";
    os << u::asciiChart(res.time, res.unknown(nodes[0]), popt) << '\n';
  }
}

void printNoise(const NoiseRequest& req, const NoiseResult& res,
                std::ostream& os, const RunDeckOptions& opt) {
  os << "* noise analysis at node " << req.outputNode << '\n';
  u::Table t({"freq", "output PSD [V^2/Hz]", "spot noise [nV/rtHz]"});
  const size_t stride =
      std::max<size_t>(1, res.frequency.size() / opt.maxSweepRows);
  for (size_t k = 0; k < res.frequency.size(); k += stride) {
    t.addRow({u::formatFrequency(res.frequency[k]),
              u::formatEngineering(res.outputPsd[k], 4),
              u::fixed(std::sqrt(res.outputPsd[k]) * 1e9, 3)});
  }
  t.print(os);
  os << "total over band: " << u::formatEngineering(res.rmsVoltage(), 4)
     << " Vrms\n";
  os << "top contributors:\n";
  for (size_t k = 0; k < res.contributions.size() && k < 5; ++k)
    os << "  " << res.contributions[k].label << "  ("
       << u::formatEngineering(res.contributions[k].variance, 3)
       << " V^2)\n";
  os << '\n';
}

}  // namespace

void runDeck(Deck& deck, std::ostream& os, const RunDeckOptions& options) {
  if (!deck.title.empty()) os << deck.title << "\n\n";
  if (deck.analyses.empty()) {
    os << "* no analyses requested; nothing to do\n";
    return;
  }
  for (const auto& request : deck.analyses) {
    Analyzer an(deck.circuit, options.analysis);
    if (std::holds_alternative<OpRequest>(request)) {
      printOp(deck.circuit, an.op(), os);
    } else if (const auto* dc = std::get_if<DcRequest>(&request)) {
      printDc(deck.circuit, *dc,
              an.dcSweep(dc->source, dc->start, dc->stop, dc->step), os,
              options);
    } else if (const auto* ac = std::get_if<AcRequest>(&request)) {
      printAc(deck.circuit,
              an.ac(logspace(ac->fStart, ac->fStop, ac->pointsPerDecade)),
              os, options);
    } else if (const auto* tr = std::get_if<TranRequest>(&request)) {
      printTran(deck.circuit, an.transient(tr->tstop, tr->maxStep), os,
                options);
    } else if (const auto* nz = std::get_if<NoiseRequest>(&request)) {
      printNoise(*nz,
                 an.noise(logspace(nz->fStart, nz->fStop,
                                   nz->pointsPerDecade),
                          nz->outputNode, an.op()),
                 os, options);
    }
  }
}

}  // namespace ahfic::spice
