// Batched Monte-Carlo data plane: the scalar fT pipeline (one
// FtExtractor per die, its own circuit + pattern priming + symbolic
// analysis, one operating point per BiasSearch step) against
// spice::ReplicaBatch via BatchFtExtractor (one shared symbolic
// analysis, batched device evaluation, per-replica refactor replay),
// plus the binary "ahfic-wave-v1" payload vs the equivalent JSON
// document.
//
// The batched column is checked bit-identical (hex-float compare of vbe
// and ft) against the scalar reference for the same seeds. Emits
// BENCH_mc_batch.json; --json additionally prints the enveloped document
// to stdout for CI gating.
//
// Usage: bench_mc_batch [--out FILE] [--dies N] [--ic A] [--shape NAME]
//                       [--seed N] [--reps N] [--json]
//                       [--trace FILE] [--metrics FILE]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bjtgen/batchft.h"
#include "bjtgen/ft.h"
#include "bjtgen/montecarlo.h"
#include "obs/bench.h"
#include "obs/cli.h"
#include "runner/job.h"
#include "util/error.h"
#include "util/json.h"
#include "util/table.h"
#include "util/wave.h"

namespace bg = ahfic::bjtgen;
namespace rn = ahfic::runner;
namespace sp = ahfic::spice;
namespace u = ahfic::util;

namespace {

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string hexFloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// One die's outcome in a comparable shape across all pipelines.
struct DieOutcome {
  bool ok = false;
  double vbe = 0.0;
  double ft = 0.0;
};

bool bitIdentical(const std::vector<DieOutcome>& a,
                  const std::vector<DieOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].ok != b[r].ok) return false;
    if (!a[r].ok) continue;
    if (hexFloat(a[r].vbe) != hexFloat(b[r].vbe)) return false;
    if (hexFloat(a[r].ft) != hexFloat(b[r].ft)) return false;
  }
  return true;
}

/// One measured pipeline column.
struct Column {
  std::string name;
  double wallMs = 0.0;
  long newtonIterations = 0;
  std::vector<DieOutcome> dies;
  sp::BatchStats batch;  // zero-initialised for the scalar column
};

std::vector<sp::BjtModel> drawCards(int dies, std::uint64_t baseSeed,
                                    const std::string& shape) {
  // Same draw as the runner pipelines: die d's card comes from
  // deriveJobSeed(baseSeed, d) — both the scalar job at index d and the
  // batched block covering d see this exact card.
  std::vector<sp::BjtModel> cards;
  cards.reserve(static_cast<size_t>(dies));
  for (int d = 0; d < dies; ++d) {
    const auto gen = bg::dieGenerator(
        bg::defaultTechnology(), bg::ProcessVariation{},
        rn::deriveJobSeed(baseSeed, static_cast<std::uint64_t>(d)));
    cards.push_back(gen.generate(shape));
  }
  return cards;
}

Column runScalar(const std::vector<sp::BjtModel>& cards, double ic,
                 const sp::AnalysisOptions& opts) {
  Column col;
  col.name = "scalar";
  col.dies.resize(cards.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t d = 0; d < cards.size(); ++d) {
    bg::FtExtractor fx(cards[d], 2.0, opts);
    try {
      const bg::FtPoint pt = fx.measureAnalyticAt(ic);
      col.dies[d] = {true, pt.vbe, pt.ft};
    } catch (const ahfic::Error&) {
      col.dies[d] = {false, 0.0, 0.0};
    }
    col.newtonIterations += fx.solverStats().newtonIterations;
  }
  col.wallMs = msSince(t0);
  return col;
}

Column runBatched(const std::vector<sp::BjtModel>& cards, double ic,
                  const sp::AnalysisOptions& opts) {
  Column col;
  col.name = "batched";
  const auto t0 = std::chrono::steady_clock::now();
  bg::BatchFtExtractor bx(cards, 2.0, opts);
  const auto block = bx.measureAnalyticAt(ic);
  col.wallMs = msSince(t0);
  col.newtonIterations = bx.solverStats().newtonIterations;
  col.batch = bx.batchStats();
  col.dies.resize(block.size());
  for (size_t d = 0; d < block.size(); ++d)
    col.dies[d] = {block[d].ok, block[d].point.vbe, block[d].point.ft};
  return col;
}

u::WaveTable waveOf(const Column& col, double ic) {
  u::WaveTable t;
  std::vector<double> wDie, wIc, wVbe, wFt;
  for (size_t d = 0; d < col.dies.size(); ++d) {
    if (!col.dies[d].ok) continue;
    wDie.push_back(static_cast<double>(d));
    wIc.push_back(ic);
    wVbe.push_back(col.dies[d].vbe);
    wFt.push_back(col.dies[d].ft);
  }
  t.addColumn("die", std::move(wDie));
  t.addColumn("ic", std::move(wIc));
  t.addColumn("vbe", std::move(wVbe));
  t.addColumn("ft", std::move(wFt));
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  std::string outPath = "BENCH_mc_batch.json";
  std::string shape = "N1.2-12D";
  int dies = 64;
  double ic = 3e-3;
  unsigned long long seed = 1;  // RunnerOptions::baseSeed default
  int reps = 3;
  bool jsonOut = false;
  ahfic::obs::CliOptions obsOpts;
  try {
    for (int k = 1; k < argc; ++k) {
      if (obsOpts.consume(argc, argv, k)) continue;
      if (std::strcmp(argv[k], "--out") == 0 && k + 1 < argc)
        outPath = argv[++k];
      else if (std::strcmp(argv[k], "--dies") == 0)
        dies = ahfic::obs::countArg(argc, argv, k);
      else if (std::strcmp(argv[k], "--ic") == 0 && k + 1 < argc)
        ic = std::atof(argv[++k]);
      else if (std::strcmp(argv[k], "--shape") == 0 && k + 1 < argc)
        shape = argv[++k];
      else if (std::strcmp(argv[k], "--seed") == 0 && k + 1 < argc)
        seed = std::strtoull(argv[++k], nullptr, 0);
      else if (std::strcmp(argv[k], "--reps") == 0)
        reps = ahfic::obs::countArg(argc, argv, k);
      else if (std::strcmp(argv[k], "--json") == 0)
        jsonOut = true;
    }
  } catch (const ahfic::Error& e) {
    return ahfic::obs::usageError(
        std::cerr, argv[0], e.what(),
        "[--out FILE] [--dies N] [--ic A] [--shape NAME] [--seed N] "
        "[--reps N] [--json]");
  }
  obsOpts.begin();
  std::ostream& os = jsonOut ? std::cerr : std::cout;

  os << "== Monte-Carlo data plane: scalar vs batched fT extraction ==\n"
     << "(" << dies << " dies of " << shape << " at Ic = " << ic
     << " A, seed " << seed << ")\n\n";

  const auto cards = drawCards(dies, seed, shape);
  const sp::AnalysisOptions opts;

  // Best-of-reps wall time: the results are deterministic rep to rep, so
  // the minimum is the least-noisy throughput estimate on a shared host.
  Column scalar = runScalar(cards, ic, opts);
  Column batched = runBatched(cards, ic, opts);
  for (int k = 1; k < reps; ++k) {
    scalar.wallMs = std::min(scalar.wallMs, runScalar(cards, ic, opts).wallMs);
    batched.wallMs =
        std::min(batched.wallMs, runBatched(cards, ic, opts).wallMs);
  }

  u::Table table({"pipeline", "wall [ms]", "dies/s", "speedup",
                  "newton iters", "bit-identical"});
  u::JsonValue cols = u::JsonValue::array();
  for (const Column* col : {&scalar, &batched}) {
    const double diesPerSec =
        col->wallMs > 0.0 ? dies / (col->wallMs * 1e-3) : 0.0;
    const double speedup =
        col->wallMs > 0.0 ? scalar.wallMs / col->wallMs : 0.0;
    const bool identical = bitIdentical(scalar.dies, col->dies);
    table.addRow({col->name, u::fixed(col->wallMs, 1),
                  u::fixed(diesPerSec, 1), u::fixed(speedup, 2) + "x",
                  std::to_string(col->newtonIterations),
                  identical ? "yes" : "NO"});
    u::JsonValue c = u::JsonValue::object();
    c.set("name", col->name);
    c.set("wallMs", col->wallMs);
    c.set("diesPerSec", diesPerSec);
    c.set("speedup", speedup);
    c.set("newtonIterations", static_cast<double>(col->newtonIterations));
    c.set("bitIdentical", identical);
    if (col != &scalar) {
      c.set("fullFactors", static_cast<double>(col->batch.fullFactors));
      c.set("refactors", static_cast<double>(col->batch.refactors));
      c.set("pivotCollapses",
            static_cast<double>(col->batch.pivotCollapses));
      c.set("fallbacks", static_cast<double>(col->batch.fallbacks));
      c.set("patternInserts",
            static_cast<double>(col->batch.patternInserts));
    }
    cols.push(std::move(c));
  }
  table.print(os);
  os << "\n";

  // The waveform payload, binary vs JSON, on the batched result.
  const u::WaveTable wave = waveOf(batched, ic);
  const int waveReps = 512;
  const auto tb0 = std::chrono::steady_clock::now();
  std::vector<std::uint8_t> bytes;
  for (int k = 0; k < waveReps; ++k) bytes = u::encodeWave(wave);
  const double binEncNs = msSince(tb0) * 1e6 / waveReps;
  const auto tb1 = std::chrono::steady_clock::now();
  u::WaveTable binBack;
  for (int k = 0; k < waveReps; ++k) binBack = u::decodeWave(bytes);
  const double binDecNs = msSince(tb1) * 1e6 / waveReps;
  const bool binIdentical = binBack.bitIdentical(wave);

  const auto tj0 = std::chrono::steady_clock::now();
  std::string jsonText;
  for (int k = 0; k < waveReps; ++k) jsonText = u::waveToJson(wave).dump(0);
  const double jsonEncNs = msSince(tj0) * 1e6 / waveReps;
  const auto tj1 = std::chrono::steady_clock::now();
  u::WaveTable jsonBack;
  for (int k = 0; k < waveReps; ++k)
    jsonBack = u::waveFromJson(u::parseJson(jsonText));
  const double jsonDecNs = msSince(tj1) * 1e6 / waveReps;
  const bool jsonIdentical = jsonBack.bitIdentical(wave);

  u::Table wtab({"payload", "bytes", "encode [us]", "decode [us]",
                 "round-trip bit-identical"});
  wtab.addRow({"ahfic-wave-v1", std::to_string(bytes.size()),
               u::fixed(binEncNs * 1e-3, 1), u::fixed(binDecNs * 1e-3, 1),
               binIdentical ? "yes" : "NO"});
  wtab.addRow({"json", std::to_string(jsonText.size()),
               u::fixed(jsonEncNs * 1e-3, 1), u::fixed(jsonDecNs * 1e-3, 1),
               jsonIdentical ? "yes" : "no (decimal)"});
  wtab.print(os);
  os << "\n";

  u::JsonValue doc = u::JsonValue::object();
  doc.set("schema", "ahfic-bench-mc-batch-v1");
  doc.set("dies", static_cast<double>(dies));
  doc.set("shape", shape);
  doc.set("ic", ic);
  doc.set("seed", static_cast<double>(seed));
  doc.set("columns", std::move(cols));
  u::JsonValue wv = u::JsonValue::object();
  wv.set("binaryBytes", static_cast<double>(bytes.size()));
  wv.set("jsonBytes", static_cast<double>(jsonText.size()));
  wv.set("binaryEncodeNs", binEncNs);
  wv.set("binaryDecodeNs", binDecNs);
  wv.set("jsonEncodeNs", jsonEncNs);
  wv.set("jsonDecodeNs", jsonDecNs);
  wv.set("binaryRoundTripBitIdentical", binIdentical);
  wv.set("jsonRoundTripBitIdentical", jsonIdentical);
  doc.set("wave", std::move(wv));
  // CI gate conveniences.
  doc.set("batchedSpeedup",
          batched.wallMs > 0.0 ? scalar.wallMs / batched.wallMs : 0.0);
  doc.set("bitIdentical", bitIdentical(scalar.dies, batched.dies));
  doc.set("patternInserts",
          static_cast<double>(batched.batch.patternInserts));

  const std::string stamp = ahfic::obs::benchTimestampUtc();
  const u::JsonValue envelope =
      ahfic::obs::benchEnvelope("mc_batch", doc, stamp);
  ahfic::obs::writeBenchFile(outPath, "mc_batch", std::move(doc), stamp);
  os << "wrote " << outPath << "\n";
  if (jsonOut) std::cout << envelope.dump(1) << "\n";
  obsOpts.finish(os);
  return 0;
}
