// A batch SPICE runner: parse one or more decks, run their
// .OP/.DC/.AC/.TRAN cards, print listing-style results. The seventh
// runnable example, and a handy standalone tool for poking at the
// simulator.
//
// Usage:
//   ./spice_cli [--jobs N] [--trace FILE] [--metrics FILE]
//               [--lint] [--lint-json FILE]
//               [--diag FILE] [--explain] [deck.sp ...]
// With no deck a built-in demo deck (the Fig. 11-style ECL gate) runs.
// Several decks are executed as one batch through the job engine — N
// worker threads (default: hardware concurrency), each deck's listing
// captured and printed in argument order, a parse/convergence failure in
// one deck never aborting the others. Every deck is statically linted
// before it is simulated; decks with lint errors are rejected without
// touching the solver. `--lint` stops after the lint stage (exit 1 on
// any error) and `--lint-json FILE` additionally writes the merged
// "ahfic-lint-v1" report.
//
// Convergence forensics: `--diag FILE` enables per-iteration telemetry
// and writes every convergence-failure report ("ahfic-diag-v1") to FILE;
// `--explain` prints the same reports human-readably on stderr. Both
// flags work for single decks and batches.

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "lint/netlist.h"
#include "obs/cli.h"
#include "runner/engine.h"
#include "spice/forensics.h"
#include "spice/rundeck.h"
#include "util/error.h"
#include "util/json.h"

namespace rn = ahfic::runner;
namespace sp = ahfic::spice;
namespace u = ahfic::util;

namespace {

const char* kDemoDeck = R"(ECL gate demo (one ring-oscillator stage)
.MODEL n1 NPN(IS=1e-16 BF=110 VAF=45 RB=120 RE=3 RC=20 CJE=20f CJC=25f TF=12p)
VCC vcc 0 5
VIN inp 0 DC 3.8 AC 1
VREF inn 0 DC 3.8

.SUBCKT eclstage inp inn outp outn vcc
RC1 vcc c1 170
RC2 vcc c2 170
Q1 c1 inp e n1
Q2 c2 inn e n1
IT e 0 3m
Q3 vcc c1 outn n1
Q4 vcc c2 outp n1
RF1 outn 0 1.5k
RF2 outp 0 1.5k
.ENDS

X1 inp inn outp outn vcc eclstage

.OP
.DC VIN 3.3 4.3 0.05
.AC DEC 6 1MEG 20G
.END
)";

/// Writes the collected failure reports as one "ahfic-diag-v1" envelope.
/// Returns false (after printing to stderr) when FILE cannot be written.
bool writeDiagFile(const std::string& path,
                   const std::vector<sp::DiagReport>& reports) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write '" << path << "'\n";
    return false;
  }
  out << sp::diagEnvelope(reports).dump(2) << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;
  bool lintOnly = false;
  bool explain = false;
  std::string lintJsonPath;
  std::string diagPath;
  ahfic::obs::CliOptions obsOpts;
  std::vector<std::string> deckPaths;
  try {
    for (int k = 1; k < argc; ++k) {
      if (obsOpts.consume(argc, argv, k)) continue;
      if (std::strcmp(argv[k], "--jobs") == 0)
        jobs = ahfic::obs::countArg(argc, argv, k);
      else if (std::strcmp(argv[k], "--lint") == 0)
        lintOnly = true;
      else if (std::strcmp(argv[k], "--lint-json") == 0 && k + 1 < argc) {
        lintOnly = true;
        lintJsonPath = argv[++k];
      } else if (std::strcmp(argv[k], "--diag") == 0 && k + 1 < argc)
        diagPath = argv[++k];
      else if (std::strcmp(argv[k], "--explain") == 0)
        explain = true;
      else {
        deckPaths.emplace_back(argv[k]);
      }
    }
  } catch (const ahfic::Error& e) {
    return ahfic::obs::usageError(
        std::cerr, argv[0], e.what(),
        "[--jobs N] [--lint] [--lint-json FILE] [--diag FILE] [--explain] "
        "[deck ...]");
  }
  const bool wantDiag = !diagPath.empty() || explain;
  obsOpts.begin();

  std::vector<std::pair<std::string, std::string>> decks;  // label, text
  for (const std::string& path : deckPaths) {
    std::ifstream f(path);
    if (!f) {
      std::cerr << "cannot open '" << path << "'\n";
      return 1;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    decks.emplace_back(path, ss.str());
  }
  if (decks.empty()) {
    std::cout << "(no deck given; running the built-in ECL-stage demo)\n\n";
    decks.emplace_back("<demo>", kDemoDeck);
  }

  if (lintOnly) {
    // Static analysis only: no deck is ever simulated.
    ahfic::lint::LintReport merged;
    for (const auto& [label, text] : decks)
      merged.merge(ahfic::lint::lintDeckText(text), label);
    if (!merged.empty()) std::cout << merged.renderText();
    std::cout << "[lint] " << decks.size() << " deck(s): "
              << merged.count(ahfic::lint::Severity::kError) << " error(s), "
              << merged.count(ahfic::lint::Severity::kWarning)
              << " warning(s)\n";
    if (!lintJsonPath.empty()) {
      std::ofstream out(lintJsonPath);
      if (!out) {
        std::cerr << "cannot write '" << lintJsonPath << "'\n";
        return 1;
      }
      out << merged.toJsonString() << "\n";
    }
    obsOpts.finish(std::cout);
    return merged.hasErrors() ? 1 : 0;
  }

  if (decks.size() == 1) {
    // Single deck: stream directly, exactly the classic behaviour.
    sp::RunDeckOptions rdOpts;
    rdOpts.analysis.forensics = wantDiag;
    try {
      auto deck = sp::parseDeck(decks[0].second);
      sp::runDeck(deck, std::cout, rdOpts);
    } catch (const ahfic::ConvergenceError& e) {
      std::cerr << "error: " << e.what() << "\n";
      std::vector<sp::DiagReport> reports;
      if (e.diag() != nullptr) {
        try {
          reports.push_back(sp::DiagReport::fromJson(u::parseJson(*e.diag())));
        } catch (const ahfic::Error&) {
        }
      }
      if (explain)
        for (const sp::DiagReport& r : reports) std::cerr << r.renderText();
      if (!diagPath.empty() && !writeDiagFile(diagPath, reports)) return 2;
      return 1;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    if (!diagPath.empty() && !writeDiagFile(diagPath, {})) return 2;
    obsOpts.finish(std::cout);
    return 0;
  }

  // Multiple decks: one job per deck. Each job renders its listing into
  // its own slot; the engine guarantees a failed deck is reported in the
  // manifest instead of killing the batch.
  std::vector<std::string> listings(decks.size());
  std::vector<rn::Job> batchJobs;
  for (size_t k = 0; k < decks.size(); ++k) {
    rn::Job job;
    job.key = "deck/" + decks[k].first;
    job.preflight = [&decks, k] {
      return ahfic::lint::lintDeckText(decks[k].second);
    };
    job.run = [&listings, &decks, k](rn::JobContext& ctx) {
      std::ostringstream out;
      auto deck = sp::parseDeck(decks[k].second);
      // The engine's retry ladder (and --diag forensics) arrive through
      // the per-attempt analysis options.
      sp::RunDeckOptions rdOpts;
      rdOpts.analysis = ctx.options;
      sp::runDeck(deck, out, rdOpts);
      listings[k] = out.str();
      return rn::JobResult{};
    };
    batchJobs.push_back(std::move(job));
  }

  rn::RunnerOptions ropts;
  ropts.threads = jobs;
  ropts.useCache = false;  // listings are text, not cacheable metrics
  rn::BatchRunner runner(ropts);
  const auto batch = runner.run(batchJobs);

  int failures = 0;
  std::vector<sp::DiagReport> reports;
  for (size_t k = 0; k < decks.size(); ++k) {
    std::cout << "===== " << decks[k].first << " =====\n";
    const auto& out = batch.outcomes[k];
    if (out.ok()) {
      std::cout << listings[k];
      if (out.record.status == rn::JobStatus::kRecovered)
        std::cout << "(recovered on retry rung '" << out.record.rungName
                  << "')\n";
    } else if (out.record.status == rn::JobStatus::kRejected) {
      ++failures;
      std::cout << "rejected by pre-flight lint: " << out.record.error
                << "\n";
    } else {
      ++failures;
      std::cout << "error: " << out.record.error << "\n";
    }
    // Collect the per-attempt diag attachments the engine recorded.
    if (wantDiag && out.record.diags.isArray()) {
      for (size_t d = 0; d < out.record.diags.size(); ++d) {
        try {
          reports.push_back(
              sp::DiagReport::fromJson(out.record.diags.at(d).get("report")));
        } catch (const ahfic::Error&) {
        }
      }
    }
    std::cout << "\n";
  }
  if (explain)
    for (const sp::DiagReport& r : reports) std::cerr << r.renderText();
  if (!diagPath.empty() && !writeDiagFile(diagPath, reports)) return 2;
  std::cout << "[runner] " << decks.size() << " deck(s) on "
            << batch.manifest.threads << " thread(s), " << failures
            << " failed\n";
  obsOpts.finish(std::cout);
  return failures == 0 ? 0 : 1;
}
