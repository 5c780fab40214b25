#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <set>
#include <tuple>
#include <utility>

#include "common.h"
#include "util/error.h"
#include "util/json.h"

namespace perfbench {

namespace {

std::atomic<bool> gTracing{false};
std::atomic<int> gNextLane{0};
std::mutex gMu;
std::vector<SpanRecord> gSpans;  // guarded by gMu
std::set<std::string> gNames;  // adopted span names; guarded by gMu

thread_local std::vector<int> tOpen;  // spans open on this thread
thread_local int tLane = -1;

std::string layerOf(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

/// One complete event of the library tracer, times in its clock [s].
struct LibraryEvent {
  int lane = 0;
  double start = 0.0;
  double end = 0.0;
  std::string name;  ///< "<category>.<what>"
  int benchId = -1;  ///< the mirrored Span's id, -1 for a library span
};

std::vector<LibraryEvent> takeLibraryEvents() {
  namespace obs = ahfic::obs;
  if (obs::droppedTraceEvents() > 0)
    throw ahfic::Error("the library tracer dropped events");
  const ahfic::util::JsonValue doc = ahfic::util::parseJson(obs::traceJson());
  obs::clearTrace();
  std::vector<LibraryEvent> out;
  const ahfic::util::JsonValue& events = doc.get("traceEvents");
  for (size_t i = 0; i < events.size(); ++i) {
    const ahfic::util::JsonValue& e = events.at(i);
    if (e.get("ph").asString() != "X") continue;
    LibraryEvent ev;
    ev.lane = static_cast<int>(e.get("tid").asNumber());
    ev.start = e.get("ts").asNumber() * 1e-6;
    ev.end = ev.start + e.get("dur").asNumber() * 1e-6;
    // The runner's job slices are named "job:<key>"; name every span
    // after its category so its layer is the part before the dot.
    const std::string cat = e.get("cat").asString();
    ev.name = e.get("name").asString();
    if (ev.name.compare(0, cat.size() + 1, cat + ".") != 0)
      ev.name = cat + "." + ev.name;
    if (e.has("args") && e.get("args").has("bench_id"))
      ev.benchId = std::stoi(e.get("args").get("bench_id").asString());
    out.push_back(std::move(ev));
  }
  return out;
}

}  // namespace

void setTracing(bool on, bool library) {
  // The library tracer goes on before and off after the recorder, so the
  // mirror of every recorded Span is recorded too.
  if (on && library) ahfic::obs::setTracingEnabled(true);
  gTracing.store(on, std::memory_order_relaxed);
  if (!on) ahfic::obs::setTracingEnabled(false);
}
bool tracing() { return gTracing.load(std::memory_order_relaxed); }

Span::Span(const char* name, int parent, long group) : mirror_(name, "bench") {
  if (!tracing()) return;
  if (tLane < 0) tLane = gNextLane.fetch_add(1);
  if (parent < 0 && !tOpen.empty()) parent = tOpen.back();
  SpanRecord rec;
  rec.name = name;
  rec.parent = parent;
  rec.lane = tLane;
  {
    std::lock_guard<std::mutex> lock(gMu);
    rec.group = group >= 0 || parent < 0 ? group : gSpans[parent].group;
    id_ = static_cast<int>(gSpans.size());
    rec.start = nowSeconds();
    gSpans.push_back(rec);
  }
  tOpen.push_back(id_);
  mirror_.annotate("bench_id", std::to_string(id_));
}

Span::~Span() {
  if (id_ < 0) return;
  const double end = nowSeconds();
  tOpen.pop_back();
  std::lock_guard<std::mutex> lock(gMu);
  gSpans[id_].end = end;
}

void adoptLibrarySpans() {
  std::vector<LibraryEvent> events = takeLibraryEvents();
  // Per thread, parents before children: by start, the longer span first.
  std::sort(events.begin(), events.end(),
            [](const LibraryEvent& a, const LibraryEvent& b) {
              return std::tie(a.lane, a.start, b.end) <
                     std::tie(b.lane, b.start, a.end);
            });
  std::lock_guard<std::mutex> lock(gMu);
  // Both clocks are the steady clock; a mirror opens just before its
  // Span reads the clock, so the smallest difference is the offset.
  double offset = std::numeric_limits<double>::infinity();
  for (const LibraryEvent& ev : events)
    if (ev.benchId >= 0)
      offset = std::min(offset, gSpans[static_cast<size_t>(ev.benchId)].start -
                                    ev.start);
  if (!std::isfinite(offset)) return;
  // Event times are printed to the nanosecond.
  constexpr double kRoundS = 2e-9;

  struct Open {
    double end;
    int id;        ///< recorded span this interval is booked to, -1 none
    bool library;  ///< a library span (adopted or folded)
  };
  std::vector<Open> stack;
  int lane = -1;
  for (const LibraryEvent& ev : events) {
    if (ev.lane != lane) {
      stack.clear();
      lane = ev.lane;
    }
    while (!stack.empty() && stack.back().end + kRoundS < ev.end)
      stack.pop_back();
    const Open* around = stack.empty() ? nullptr : &stack.back();
    int parent = -1;
    for (auto it = stack.rbegin(); it != stack.rend() && parent < 0; ++it)
      parent = it->id;
    if (ev.benchId >= 0) {
      if (parent >= 0) gSpans[static_cast<size_t>(ev.benchId)].parent = parent;
      stack.push_back({ev.end, ev.benchId, false});
      continue;
    }
    if (parent < 0) {
      stack.push_back({ev.end, -1, true});
      continue;
    }
    const SpanRecord p = gSpans[static_cast<size_t>(parent)];
    if (around->library && layerOf(p.name) == layerOf(ev.name.c_str())) {
      stack.push_back({ev.end, parent, true});
      continue;
    }
    SpanRecord rec;
    rec.name = gNames.insert(ev.name).first->c_str();
    rec.start = std::clamp(ev.start + offset, p.start, p.end);
    rec.end = std::clamp(ev.end + offset, rec.start, p.end);
    rec.parent = parent;
    rec.group = p.group;
    rec.lane = p.lane;
    stack.push_back({ev.end, static_cast<int>(gSpans.size()), true});
    gSpans.push_back(rec);
  }
}

std::vector<SpanRecord> recordedSpans() {
  std::lock_guard<std::mutex> lock(gMu);
  return gSpans;
}

void writeSpans(const std::string& path) {
  const std::vector<SpanRecord> spans = recordedSpans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw ahfic::Error("cannot write span file '" + path + "'");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d, \"group\": %ld, "
                 "\"lane\": %d}\n",
                 i, s.name, s.start, s.end, s.parent, s.group, s.lane);
  }
  std::fclose(f);
}

LayerBreakdown layerBreakdown(const std::vector<SpanRecord>& spans,
                              const std::string& root) {
  const size_t n = spans.size();
  // Adopted spans are recorded after their children, so tree membership
  // follows the parent links rather than the recording order.
  std::vector<int> inTree(n, -1);  // -1 unknown, 0 no, 1 yes
  std::vector<size_t> chain;
  for (size_t i = 0; i < n; ++i) {
    size_t k = i;
    chain.clear();
    while (inTree[k] < 0 && spans[k].parent >= 0) {
      chain.push_back(k);
      k = static_cast<size_t>(spans[k].parent);
    }
    if (inTree[k] < 0) inTree[k] = spans[k].parent < 0 && root == spans[k].name;
    for (size_t c : chain) inTree[c] = inTree[k];
  }
  std::vector<std::vector<int>> children(n);
  LayerBreakdown out;
  for (size_t i = 0; i < n; ++i) {
    if (inTree[i] != 1) continue;
    if (spans[i].parent < 0) {
      ++out.roots;
      out.rootSeconds += spans[i].end - spans[i].start;
    } else {
      children[static_cast<size_t>(spans[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (inTree[i] != 1) continue;
    const SpanRecord& s = spans[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> iv;
    double childSum = 0.0;
    for (int c : children[i]) {
      const SpanRecord& k = spans[static_cast<size_t>(c)];
      const double a = std::max(k.start, s.start);
      const double b = std::min(k.end, s.end);
      if (b > a) {
        iv.emplace_back(a, b);
        childSum += b - a;
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, curA = 0.0, curB = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > curB) {
        if (curB > curA) covered += curB - curA;
        curA = a;
        curB = b;
      } else {
        curB = std::max(curB, b);
      }
    }
    if (curB > curA) covered += curB - curA;
    const double self = (s.end - s.start) - covered;
    out.selfSeconds[layerOf(s.name)] += self;
    if (s.parent < 0) out.rootSelfSeconds += self;
    out.parallelSeconds += childSum - covered;
  }
  return out;
}

LayerBreakdown reportSelfTimes(Report& report,
                               const std::vector<SpanRecord>& spans,
                               const std::string& root) {
  const LayerBreakdown lb = layerBreakdown(spans, root);
  if (lb.roots == 0) throw ahfic::Error("no traced " + root + " span");
  for (const auto& [layer, seconds] : lb.selfSeconds)
    report.set(layer + ".self_ms", seconds / lb.roots * 1e3);
  const double unattributedPct = 100.0 * lb.rootSelfSeconds / lb.rootSeconds;
  report.set("obs.unattributed_pct", unattributedPct);
  if (unattributedPct > kMaxUnattributedPct)
    report.fail("layer calls cover too little of the " + root + " wall time");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "trace: %d %s spans, %.4f s; unattributed %.4f s, parallel "
                "overlap %.4f s",
                lb.roots, root.c_str(), lb.rootSeconds, lb.rootSelfSeconds,
                lb.parallelSeconds);
  report.note(buf);
  return lb;
}

std::map<std::string, SpanTotal> spanTotals(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, SpanTotal> out;
  for (const SpanRecord& s : spans) {
    SpanTotal& t = out[s.name];
    ++t.count;
    t.seconds += s.end - s.start;
  }
  return out;
}

}  // namespace perfbench
