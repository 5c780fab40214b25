#pragma once
// Deck runner: executes the analysis requests of a parsed deck and prints
// SPICE-listing-style results. This is what turns the parser + analyses
// into a usable batch simulator (see examples/spice_cli.cpp).

#include <iosfwd>

#include "spice/analysis.h"
#include "spice/parser.h"

namespace ahfic::spice {

/// Output shaping for runDeck.
struct RunDeckOptions {
  int maxColumns = 8;     ///< node-voltage columns per printed table
  int maxTranRows = 40;   ///< transient rows (decimated to this many)
  int maxSweepRows = 60;  ///< DC/AC rows
  /// Analysis options (tolerances, forensics) for every analysis in the
  /// deck; `.OPTIONS` cards never override them. This is how the
  /// runner's retry ladder and --diag reach deck solves.
  AnalysisOptions analysis;
};

/// Runs every analysis in the deck in order, printing each result to
/// `os`. Node columns are the user-named nodes (internal '#'/'.'-scoped
/// nodes are skipped unless there is nothing else). Throws on analysis
/// failures (non-convergence etc.).
void runDeck(Deck& deck, std::ostream& os,
             const RunDeckOptions& options = {});

}  // namespace ahfic::spice
