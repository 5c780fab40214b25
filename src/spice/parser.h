#pragma once
// SPICE-style netlist parser.
//
// Accepted grammar (a practical subset of Berkeley SPICE 2G6 [2]):
//   * first line is the title; '*' starts a comment; '+' continues a card
//   * elements:  Rxxx n1 n2 value
//                Cxxx n1 n2 value
//                Lxxx n1 n2 value
//                Vxxx n+ n- [DC v] [AC mag [phase]] [SIN(...)|PULSE(...)|
//                                                    PWL(...)|EXP(...)]
//                Ixxx n+ n- (same source syntax as V)
//                Exxx p n cp cn gain        (VCVS)
//                Gxxx p n cp cn gm          (VCCS)
//                Fxxx p n Vctrl gain        (CCCS)
//                Hxxx p n Vctrl r           (CCVS)
//                Dxxx a c model [area]
//                Qxxx c b e [subs] model [area]
//                Mxxx d g s b model [W=w] [L=l]
//                Xxxx n1 n2 ... subcktname  (subcircuit call)
//   * cards:     .MODEL name NPN|PNP|D|NMOS|PMOS (key=value ...)
//                .SUBCKT name port1 port2 ...  /  .ENDS
//                .TRAN step tstop
//                .AC DEC npts fstart fstop
//                .DC srcname start stop step
//                .NOISE node DEC npts fstart fstop
//                .OP
//                .TEMP value
//                .END
//
// Subcircuits flatten at parse time: devices get "xname." prefixes and
// internal nodes become "xname.node"; port nodes map to the caller's
// nodes. Definitions may appear anywhere in the deck (also after use);
// calls may nest. Models are global and must be defined at the top level.
//
// Numbers use SPICE engineering suffixes (1.2u, 45MEG, 10pF ...).

#include <string>
#include <variant>
#include <vector>

#include "spice/circuit.h"

namespace ahfic::spice {

/// .TRAN step tstop
struct TranRequest {
  double maxStep;
  double tstop;
};
/// .AC DEC npts fstart fstop
struct AcRequest {
  int pointsPerDecade;
  double fStart;
  double fStop;
};
/// .DC source start stop step
struct DcRequest {
  std::string source;
  double start;
  double stop;
  double step;
};
/// .OP
struct OpRequest {};
/// .NOISE node DEC npts fstart fstop
struct NoiseRequest {
  std::string outputNode;
  int pointsPerDecade;
  double fStart;
  double fStop;
};

using AnalysisRequest = std::variant<OpRequest, DcRequest, AcRequest,
                                     TranRequest, NoiseRequest>;

/// A parsed deck: the circuit plus any requested analyses.
struct Deck {
  std::string title;
  Circuit circuit;
  std::vector<AnalysisRequest> analyses;
};

/// Parses a full deck from text. Throws ahfic::ParseError with a line
/// number on malformed input.
Deck parseDeck(const std::string& text);

/// Parses netlist body text (no title line, no .END required) into an
/// existing circuit. Returns the analyses encountered. Used to splice
/// cell-database schematics into a host circuit.
std::vector<AnalysisRequest> parseInto(Circuit& ckt, const std::string& text,
                                       int lineOffset = 0);

}  // namespace ahfic::spice
