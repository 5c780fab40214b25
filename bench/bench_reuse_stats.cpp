// Reproduces the Sec. 3 re-use claim: "Investigating the re-use of IC
// design in the authors' design group revealed that above 70% of the
// circuits can be re-used."
//
// A synthetic stream of IC projects draws blocks from a product-line
// taxonomy; blocks already in the cell database are checked out, missing
// ones are designed and registered. The steady-state re-use ratio is the
// reproduced quantity.

#include <iostream>

#include "celldb/reuse.h"
#include "celldb/seed.h"
#include "obs/cli.h"
#include "util/error.h"
#include "util/table.h"

namespace cd = ahfic::celldb;
namespace u = ahfic::util;

int main(int argc, char** argv) {
  ahfic::obs::CliOptions obsOpts;
  try {
    for (int k = 1; k < argc; ++k) obsOpts.consume(argc, argv, k);
  } catch (const ahfic::Error& e) {
    return ahfic::obs::usageError(std::cerr, argv[0], e.what(), "");
  }
  obsOpts.begin();

  cd::CellDatabase db;
  cd::seedExampleLibrary(db);  // the Fig. 6 starter library

  cd::ReuseSimConfig cfg;
  const auto res = cd::runReuseStudy(db, cfg);

  std::cout << "== Sec. 3: circuit re-use across a project stream ==\n"
            << "(" << cfg.projects << " consecutive IC projects, "
            << cfg.distinctBlockKinds << "-kind block taxonomy)\n\n";

  u::Table table({"project", "blocks needed", "reused", "newly designed",
                  "reuse ratio"});
  for (size_t p = 0; p < res.projects.size(); ++p) {
    const auto& o = res.projects[p];
    table.addRow({std::to_string(p + 1), std::to_string(o.blocksNeeded),
                  std::to_string(o.blocksReused),
                  std::to_string(o.blocksNewlyDesigned),
                  u::fixed(o.reuseRatio() * 100.0, 0) + "%"});
  }
  table.print(std::cout);

  std::cout << "\nOverall re-use ratio:       "
            << u::fixed(res.overallReuseRatio() * 100.0, 1) << "%\n"
            << "Steady-state (2nd half):    "
            << u::fixed(res.steadyStateReuseRatio() * 100.0, 1) << "%\n"
            << "Paper's claim: \"above 70% of the circuits can be "
               "re-used\" -> "
            << (res.steadyStateReuseRatio() > 0.70 ? "REPRODUCED"
                                                   : "NOT reproduced")
            << "\n\n";

  const auto st = db.stats();
  std::cout << "Final library: " << st.cellCount << " cells, "
            << st.totalCheckouts << " checkouts recorded.\n";
  obsOpts.finish(std::cout);
  return 0;
}
