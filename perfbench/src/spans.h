#pragma once
// In-memory span recorder for the traced run.
//
// The benchmark opens a span around each of its own calls into a layer
// (BatchRunner::run, a job body, card generation, an HTTP round trip,
// ...). Span names are "<layer>.<what>"; the layer is the part before
// the first dot. Spans live in memory until the run ends and are then
// written out as JSON lines. While tracing is off a Span costs two
// relaxed atomic loads.
//
// The batch workloads also switch on the libraries' own tracer
// (obs/trace.h: spice.op, spice.ac, spice.transient, bjtgen.ring_measure,
// ...). Each benchmark Span then mirrors itself into that tracer, and
// adoptLibrarySpans() moves the library spans into this recorder as
// children of the benchmark span around them, so the solver time of the
// workload's own calls is booked to its layer.

#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

class Report;

struct SpanRecord {
  const char* name = "";  ///< "<layer>.<what>", a literal or interned
  double start = 0.0;     ///< steady clock [s]
  double end = 0.0;
  int parent = -1;        ///< index of the parent span, -1 for a root
  long group = -1;        ///< pass index or request id
  int lane = 0;           ///< recording thread
};

/// Switches the recorder. With `library` the libraries' own tracer
/// (obs/trace.h) is switched with it, so adoptLibrarySpans() can take in
/// what it records.
void setTracing(bool on, bool library = false);
bool tracing();

class Span {
 public:
  /// Opens a span on the calling thread. Its parent is `parent` when
  /// given (work handed to another thread), else the innermost span open
  /// on this thread. `group` < 0 inherits the parent's group.
  explicit Span(const char* name, int parent = -1, long group = -1);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Index of this span, -1 while tracing is off.
  int id() const { return id_; }

 private:
  // Opened before and closed after this span's own clock readings, so
  // the library spans inside it nest inside the mirror too.
  ahfic::obs::ScopedSpan mirror_;
  int id_ = -1;
};

/// Moves every span the library tracer recorded since the last call into
/// this recorder and clears that tracer. A library span becomes a child
/// of the innermost recorded span that encloses it on its thread; one
/// directly inside a library span of its own layer is folded into that
/// span (its time stays in the layer); one with no recorded span around
/// it on its thread (a runner worker's job slice) is dropped. A benchmark
/// span that an adopted library span encloses is re-parented to it, so
/// each interval is counted once. Throws when the library tracer dropped
/// events.
void adoptLibrarySpans();

/// Snapshot of every span recorded so far.
std::vector<SpanRecord> recordedSpans();

/// Writes the recorded spans to `path`, one JSON object per line.
void writeSpans(const std::string& path);

/// Self time per layer over the span trees whose root is named `root`.
/// A span's self time is its duration minus the part of it covered by
/// its children. Children that run in parallel on other threads overlap
/// each other; that overlap is summed separately. `rootSelfSeconds` is
/// the roots' own self time: the part of each pass or request no named
/// layer call covers.
struct LayerBreakdown {
  std::map<std::string, double> selfSeconds;
  double parallelSeconds = 0.0;
  double rootSeconds = 0.0;
  double rootSelfSeconds = 0.0;
  int roots = 0;
};
LayerBreakdown layerBreakdown(const std::vector<SpanRecord>& spans,
                              const std::string& root);

/// Most of a pass or request must sit inside named layer calls: above
/// this share of unattributed root time the traced run fails.
constexpr double kMaxUnattributedPct = 5.0;

/// Reports `<layer>.self_ms` per root (pass or request) and
/// `obs.unattributed_pct`, the roots' own self time over their summed
/// duration; fails the run above kMaxUnattributedPct. Returns the
/// breakdown it reported.
LayerBreakdown reportSelfTimes(Report& report,
                               const std::vector<SpanRecord>& spans,
                               const std::string& root);

/// Per-name totals over all spans: count and summed duration.
struct SpanTotal {
  long count = 0;
  double seconds = 0.0;
};
std::map<std::string, SpanTotal> spanTotals(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
