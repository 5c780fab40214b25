// The daemon_mix workload: the ahficd service stack run in-process from
// the public serve API, driven over loopback HTTP by a closed loop of
// client connections.
//
// Each client submits (POST /v1/jobs), then polls GET /v1/jobs/<id>
// every 1 ms until the job is done, and only then sends its next
// request. The seeded mix is ~50% fresh common-emitter decks (values
// perturbed per request, so result-cache misses), ~30% resubmissions of
// a recent deck (cache hits, checked bit-identical to the first answer),
// ~10% "mc-ft" requests of 8-16 dies and ~10% lint-broken decks, which
// must be refused with 422 and their lint code.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "celldb/database.h"
#include "common.h"
#include "lint/netlist.h"
#include "obs/history.h"
#include "obs/metrics.h"
#include "runner/job.h"
#include "runner/session.h"
#include "serve/api.h"
#include "serve/jobs.h"
#include "serve/server.h"
#include "spans.h"
#include "util/error.h"
#include "util/json.h"
#include "util/numeric.h"
#include "util/units.h"

namespace perfbench {

namespace {

namespace sv = ahfic::serve;
namespace u = ahfic::util;

constexpr int kClients = 2;
constexpr int kJobWorkers = 2;
constexpr int kSegments = 4;
constexpr int kBlockRequests = 2000;
constexpr int kDaemonStarts = 201;
constexpr long kRssMarkRequests = 2048;
constexpr double kPollIntervalS = 1e-3;
constexpr double kJobTimeoutS = 60.0;
constexpr int kHealthzEvery = 16;
constexpr size_t kRecentDecks = 16;

// ------------------------------------------------------------ transport

struct Reply {
  int status = 0;  ///< 0 = transport error
  std::string body;
};

/// One HTTP/1.1 exchange on a fresh loopback connection (the server
/// answers one request per connection).
Reply exchange(int port, const char* method, const std::string& path,
               const std::string& body) {
  Reply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return reply;
  }
  std::string req = std::string(method) + " " + path +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n";
  if (!body.empty())
    req += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n";
  req += "\r\n" + body;
  size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return reply;
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char chunk[8192];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
    raw.append(chunk, static_cast<size_t>(n));
  ::close(fd);
  if (raw.compare(0, 5, "HTTP/") != 0 || raw.find(' ') == std::string::npos)
    return reply;
  reply.status = std::atoi(raw.c_str() + raw.find(' ') + 1);
  const size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) reply.body = raw.substr(split + 4);
  return reply;
}

// --------------------------------------------------------------- daemon

/// The ahficd wiring: a JobService over a persistent runner::Session,
/// a cell database and a metrics history behind the API router.
class Daemon {
 public:
  Daemon()
      : jobs_(session_, jobOptions()),
        history_(5.0, 720),
        server_(sv::buildApiRouter(apiContext()), serverOptions()) {
    server_.start();
    history_.start();
  }
  ~Daemon() {
    jobs_.stop(/*drain=*/true, std::chrono::seconds(30));
    history_.stop();
    server_.stop();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return server_.port(); }

 private:
  static sv::JobServiceOptions jobOptions() {
    sv::JobServiceOptions o;
    o.workers = kJobWorkers;
    return o;
  }
  static sv::ServerOptions serverOptions() {
    sv::ServerOptions o;
    o.port = 0;  // ephemeral
    return o;
  }
  sv::ApiContext apiContext() {
    sv::ApiContext ctx;
    ctx.jobs = &jobs_;
    ctx.db = &db_;
    ctx.dbMutex = &dbMutex_;
    ctx.history = &history_;
    return ctx;
  }

  ahfic::runner::Session session_;
  sv::JobService jobs_;
  ahfic::celldb::CellDatabase db_;
  u::Mutex dbMutex_;
  ahfic::obs::MetricsHistory history_;
  sv::HttpServer server_;
};

// ------------------------------------------------------------- requests

enum class Kind { kFreshDeck, kResubmit, kMcFt, kBrokenDeck };

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string freshDeck(u::Rng& rng) {
  return "ce stage\n"
         ".MODEL n1 NPN(IS=1e-16 BF=110 VAF=45 RB=200 RE=4 RC=30 CJE=12f "
         "CJC=15f TF=12p)\n"
         "VCC vcc 0 8\n"
         "VIN in 0 DC " + num(rng.uniform(1.6, 2.0)) + " AC 1\n"
         "RC vcc out " + num(rng.uniform(800.0, 1200.0)) + "\n"
         "Q1 out in e n1\n"
         "RE2 e 0 " + num(rng.uniform(150.0, 250.0)) + "\n"
         ".OP\n"
         ".AC DEC 5 100k 20G\n"
         ".END\n";
}

/// A deck lint must refuse, with the code it must name.
std::pair<std::string, std::string> brokenDeck(u::Rng& rng) {
  if (rng.uniform() < 0.5) {
    return {"source loop\nV1 a 0 " + num(rng.uniform(4.0, 6.0)) +
                "\nV2 a 0 " + num(rng.uniform(3.0, 3.9)) +
                "\nR1 a b 1k\nRL b 0 1k\n.OP\n.END\n",
            "NET_VSRC_LOOP"};
  }
  return {"bad card\n.MODEL badnpn NPN(IS=1e-16 BF=100 RB=" +
              num(-rng.uniform(1.0, 10.0)) +
              " CJE=20f MJE=1.4 TF=12p)\nVCC vcc 0 5\nVIN b 0 0.8\n"
              "Q1 vcc b e badnpn\nRE e 0 1k\n.OP\n.END\n",
          "MOD_BJT_RANGE"};
}

std::string deckBody(const std::string& deck) {
  u::JsonValue doc = u::JsonValue::object();
  doc.set("deck", deck);
  return doc.dump();
}

std::string mcFtBody(u::Rng& rng) {
  u::JsonValue params = u::JsonValue::object();
  params.set("dies", static_cast<int>(8 + rng.next(9)));
  params.set("ic", 2.5e-3 + 1e-6 * static_cast<double>(rng.next(1000)));
  params.set("shape", "N1.2-12D");
  u::JsonValue doc = u::JsonValue::object();
  doc.set("workload", "mc-ft");
  doc.set("params", std::move(params));
  return doc.dump();
}

/// What a finished deck job answered, for the resubmission check.
std::string deckAnswer(const u::JsonValue& env) {
  std::string out = env.get("status").asString() + "\n";
  if (env.has("metrics")) out += env.get("metrics").dump() + "\n";
  if (env.has("listing")) out += env.get("listing").asString();
  return out;
}

struct RecentDeck {
  std::string body;
  std::string answer;
};

/// One client request as the benchmark saw it.
struct RequestRecord {
  Kind kind = Kind::kFreshDeck;
  bool traced = false;
  bool ok = false;
  int status = 0;
  double iterEnd = 0.0;    ///< after the last reply
  double latencyMs = 0.0;  ///< POST send to the reply that completes it
  double submitMs = 0.0;
  std::vector<double> pollMs;
  double healthzMs = -1.0;
  double lintUs = -1.0;
  double queueMs = -1.0;
  double jobWallMs = -1.0;
  bool cacheHit = false;
  long jobs = 0;
  long cacheHits = 0;
  long retries = 0;
};

struct ClientState {
  u::Rng rng;
  std::deque<RecentDeck> recent;
  long requests = 0;
  std::vector<RequestRecord> records;
  std::vector<std::string> problems;

  explicit ClientState(std::uint64_t seed) : rng(seed) {}
};

Kind pickKind(ClientState& c) {
  const double r = c.rng.uniform();
  if (r < 0.5) return Kind::kFreshDeck;
  if (r < 0.8) return c.recent.empty() ? Kind::kFreshDeck : Kind::kResubmit;
  if (r < 0.9) return Kind::kMcFt;
  return Kind::kBrokenDeck;
}

double msSince(double t0) { return (nowSeconds() - t0) * 1e3; }

/// Polls until the job is done; returns the final envelope (null on a
/// transport error or timeout).
u::JsonValue waitDone(int port, const std::string& id, RequestRecord& rec) {
  const double deadline = nowSeconds() + kJobTimeoutS;
  while (nowSeconds() < deadline) {
    {
      // The daemon works on the job while the client waits.
      Span span("serve.poll_wait");
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kPollIntervalS));
    }
    Reply r;
    const double t0 = nowSeconds();
    {
      Span span("serve.poll");
      r = exchange(port, "GET", "/v1/jobs/" + id, "");
    }
    rec.pollMs.push_back(msSince(t0));
    if (r.status != 200) return {};
    u::JsonValue env = u::parseJson(r.body);
    if (env.get("state").asString() == "done") return env;
  }
  return {};
}

/// One closed-loop iteration: build, lint, submit, poll, check.
void runRequest(int port, ClientState& c, long requestId) {
  RequestRecord rec;
  rec.traced = tracing();
  rec.kind = pickKind(c);
  Span root("bench.request", -1, requestId);
  auto problem = [&](const std::string& why) {
    c.problems.push_back("request " + std::to_string(requestId) + ": " + why);
  };

  if (++c.requests % kHealthzEvery == 0) {
    const double t0 = nowSeconds();
    Reply h;
    {
      Span span("serve.healthz");
      h = exchange(port, "GET", "/healthz", "");
    }
    rec.healthzMs = msSince(t0);
    if (h.status != 200) problem("/healthz answered " + std::to_string(h.status));
  }

  std::string body, deck, expectCode;
  const RecentDeck* resubmitted = nullptr;
  switch (rec.kind) {
    case Kind::kFreshDeck: deck = freshDeck(c.rng); break;
    case Kind::kResubmit:
      resubmitted = &c.recent[c.rng.next(c.recent.size())];
      body = resubmitted->body;
      break;
    case Kind::kMcFt: body = mcFtBody(c.rng); break;
    case Kind::kBrokenDeck: std::tie(deck, expectCode) = brokenDeck(c.rng); break;
  }
  if (!deck.empty()) {
    // Client-side admission check: the same lint the daemon runs.
    const double t0 = nowSeconds();
    bool hasErrors = false;
    {
      Span span("lint.deck");
      hasErrors = ahfic::lint::lintDeckText(deck).hasErrors();
    }
    rec.lintUs = (nowSeconds() - t0) * 1e6;
    if (hasErrors != !expectCode.empty())
      problem("client-side lint disagrees with the deck's intent");
    body = deckBody(deck);
  }

  const double sent = nowSeconds();
  Reply r;
  {
    Span span("serve.submit");
    r = exchange(port, "POST", "/v1/jobs", body);
  }
  rec.submitMs = msSince(sent);
  rec.status = r.status;
  if (rec.kind == Kind::kBrokenDeck) {
    rec.latencyMs = rec.submitMs;
    rec.ok = r.status == 422 &&
             r.body.find("\"" + expectCode + "\"") != std::string::npos;
    if (!rec.ok)
      problem("broken deck answered " + std::to_string(r.status) +
              " without " + expectCode);
  } else if (r.status != 202) {
    problem("submission answered " + std::to_string(r.status));
  } else {
    const std::string id = u::parseJson(r.body).get("id").asString();
    const u::JsonValue env = waitDone(port, id, rec);
    rec.latencyMs = msSince(sent);
    if (!env.isObject()) {
      problem("job " + id + " did not finish");
    } else {
      rec.queueMs = env.get("queueMs").asNumber();
      rec.jobWallMs = env.get("wallMs").asNumber();
      const bool statusOk = env.get("status").asString() == "ok";
      if (rec.kind == Kind::kMcFt) {
        const u::JsonValue& jobs = env.get("jobs");
        rec.jobs = static_cast<long>(jobs.size());
        rec.cacheHits = static_cast<long>(env.get("cacheHits").asNumber());
        for (size_t j = 0; j < jobs.size(); ++j)
          rec.retries +=
              std::max(0L, static_cast<long>(
                               jobs.at(j).get("attempts").asNumber()) - 1);
        rec.cacheHit = rec.cacheHits == rec.jobs;
        rec.ok = statusOk;
      } else {
        rec.jobs = 1;
        rec.cacheHit = env.get("cacheHit").asBool();
        rec.cacheHits = rec.cacheHit ? 1 : 0;
        rec.retries = std::max(
            0L, static_cast<long>(env.get("attempts").asNumber()) - 1);
        const std::string answer = deckAnswer(env);
        rec.ok = statusOk && env.has("listing");
        if (resubmitted != nullptr) {
          if (answer != resubmitted->answer) {
            rec.ok = false;
            problem("resubmitted deck answered differently");
          }
        } else if (rec.ok) {
          c.recent.push_back({body, answer});
          if (c.recent.size() > kRecentDecks) c.recent.pop_front();
        }
      }
      if (!rec.ok) problem("job " + id + " did not succeed");
    }
  }
  rec.iterEnd = nowSeconds();
  c.records.push_back(std::move(rec));
}

/// Peak resident set when the kRssMarkRequests-th measured request
/// completes. The daemon's result cache keeps every fresh deck, so the
/// peak over a timed run would follow throughput; a fixed request count
/// does not. A run that does not reach the mark fails.
struct RssProbe {
  std::atomic<long> done{0};
  std::atomic<double> mbAtMark{0.0};
};

/// Runs the closed loop on every client until `deadline`.
void closedLoop(int port, std::vector<ClientState>& clients, double deadline,
                long& nextId, RssProbe* rss) {
  std::vector<std::thread> threads;
  for (size_t k = 0; k < clients.size(); ++k) {
    const long idBase = nextId + static_cast<long>(k) * 1000000;
    threads.emplace_back([port, &c = clients[k], deadline, idBase, rss] {
      long id = idBase;
      while (nowSeconds() < deadline) {
        runRequest(port, c, id++);
        if (rss != nullptr && rss->done.fetch_add(1) + 1 == kRssMarkRequests)
          rss->mbAtMark.store(peakRssMb());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  nextId += static_cast<long>(clients.size()) * 1000000;
}

// ------------------------------------------------------------- accuracy

/// Exact response of an RC low-pass (tau) to a 0 -> 1 V ramp of rise
/// time tr starting at t = 0.
double rcRampResponse(double t, double tau, double tr) {
  if (t <= 0.0) return 0.0;
  if (t <= tr) return (t - tau * (1.0 - std::exp(-t / tau))) / tr;
  return 1.0 - tau / tr * (std::exp(-(t - tr) / tau) - std::exp(-t / tau));
}

constexpr const char* kRcDeck =
    "rc step response\n"
    "V1 in 0 PULSE(0 1 0 1p 1p 10n 20n)\n"
    "R1 in out 1k\n"
    "C1 out 0 1p\n"
    ".TRAN 10p 5n\n"
    ".END\n";

/// Largest deviation of the daemon's transient listing for kRcDeck from
/// the exact solution, in percent of the 1 V step.
double rcDeckErrorPct(int port, Report& report) {
  const Reply r = exchange(port, "POST", "/v1/jobs", deckBody(kRcDeck));
  if (r.status != 202) {
    report.fail("RC accuracy deck answered " + std::to_string(r.status));
    return 0.0;
  }
  RequestRecord scratch;
  const u::JsonValue env =
      waitDone(port, u::parseJson(r.body).get("id").asString(), scratch);
  if (!env.isObject() || !env.has("listing")) {
    report.fail("RC accuracy deck produced no listing");
    return 0.0;
  }
  // Rows after the "time V(in) V(out)" header and its rule.
  const std::string listing = env.get("listing").asString();
  size_t pos = listing.find("\ntime");
  pos = listing.find('\n', listing.find('\n', pos + 1) + 1);
  double worst = 0.0;
  int rows = 0;
  while (pos != std::string::npos && pos + 1 < listing.size()) {
    const size_t end = listing.find('\n', pos + 1);
    const std::string line = listing.substr(pos + 1, end - pos - 1);
    pos = end;
    char tText[32] = {0};
    double vin = 0.0, vout = 0.0;
    if (std::sscanf(line.c_str(), "%31s %lf %lf", tText, &vin, &vout) != 3)
      break;
    const auto t = u::parseSpiceNumber(tText);
    if (!t) break;
    worst = std::max(worst,
                     std::fabs(vout - rcRampResponse(*t, 1e-9, 1e-12)));
    ++rows;
  }
  if (rows < 10) report.fail("RC accuracy listing has too few rows");
  if (worst > 0.01) report.fail("RC transient is off by more than 1%");
  return worst * 100.0;
}

}  // namespace

Report runDaemonMix(const Options& opts) {
  Report report(opts.trace);
  // The daemon always runs with live metrics (as ahficd does).
  ahfic::obs::setMetricsEnabled(true);

  // Setup: daemon construction until /healthz answers, several times.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < kDaemonStarts; ++k) {
    daemon.reset();
    const double t0 = nowSeconds();
    daemon = std::make_unique<Daemon>();
    while (exchange(daemon->port(), "GET", "/healthz", "").status != 200) {
      if (nowSeconds() - t0 > 10.0)
        throw ahfic::Error("daemon did not answer /healthz");
    }
    setups.push_back(nowSeconds() - t0);
  }
  const int port = daemon->port();

  const double errPctValue = rcDeckErrorPct(port, report);

  std::vector<ClientState> clients;
  for (int k = 0; k < kClients; ++k)
    clients.emplace_back(ahfic::runner::deriveJobSeed(opts.seed, k));
  long nextId = 0;
  // Warm-up: fills the deck history the resubmissions draw from.
  closedLoop(port, clients, nowSeconds() + std::min(1.0, opts.seconds / 4),
             nextId, nullptr);
  for (ClientState& c : clients) {
    for (const std::string& p : c.problems) report.fail(p);
    c.problems.clear();
    c.records.clear();
  }

  // Measured segments; the traced run alternates untraced and traced.
  struct Segment {
    bool traced;
    double start, end;
  };
  std::vector<Segment> segments;
  RssProbe rss;
  for (int s = 0; s < kSegments; ++s) {
    const bool traced = opts.trace && s % 2 == 1;
    setTracing(traced);
    const double start = nowSeconds();
    closedLoop(port, clients, start + opts.seconds / kSegments, nextId, &rss);
    segments.push_back({traced, start, nowSeconds()});
    setTracing(false);
  }

  std::vector<RequestRecord> recs;
  for (ClientState& c : clients) {
    for (const std::string& p : c.problems) report.fail(p);
    recs.insert(recs.end(), c.records.begin(), c.records.end());
  }
  std::sort(recs.begin(), recs.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.iterEnd < b.iterEnd;
            });
  for (const RequestRecord& r : recs) {
    ++report.attempted;
    if (!r.ok) ++report.failed;
  }

  auto ratePerS = [&](bool traced) {
    double wall = 0.0;
    long n = 0;
    for (const Segment& s : segments) {
      if (s.traced != traced) continue;
      wall += s.end - s.start;
      for (const RequestRecord& r : recs)
        n += (r.iterEnd >= s.start && r.iterEnd <= s.end) ? 1 : 0;
    }
    return static_cast<double>(n) / wall;
  };

  if (!opts.trace) {
    // A pass is a block of kBlockRequests completions inside one
    // segment (a whole segment when none completes that many).
    // Throughput is best-of-K over the blocks, so a slow phase of a
    // shared host does not decide it (see README.md). Latency
    // percentiles are the median block's: with 1 ms polling latency moves
    // in poll-sized steps, so the lowest block p99 is set by luck and the
    // run-wide p99 by the worst bursts.
    std::vector<double> rates, p50s, tails;
    double tailPct = 100.0;
    auto addBlock = [&](const std::vector<double>& lat, double seconds) {
      rates.push_back(static_cast<double>(lat.size()) / seconds);
      p50s.push_back(median(lat));
      const TailPercentile tail = tailPercentile(lat);
      tails.push_back(tail.value);
      tailPct = tail.percentile;
    };
    for (const Segment& s : segments) {
      double blockStart = s.start;
      std::vector<double> lat;
      for (const RequestRecord& r : recs) {
        if (r.iterEnd < s.start || r.iterEnd > s.end) continue;
        lat.push_back(r.latencyMs);
        if (lat.size() == static_cast<size_t>(kBlockRequests)) {
          addBlock(lat, r.iterEnd - blockStart);
          blockStart = r.iterEnd;
          lat.clear();
        }
      }
    }
    // A short run completes no full block; each segment is then one.
    const bool noFullBlock = rates.empty();
    for (const Segment& s : segments) {
      if (!noFullBlock) break;
      std::vector<double> lat;
      for (const RequestRecord& r : recs)
        if (r.iterEnd >= s.start && r.iterEnd <= s.end)
          lat.push_back(r.latencyMs);
      if (!lat.empty()) addBlock(lat, s.end - s.start);
    }
    if (rates.empty()) throw ahfic::Error("no block of requests completed");
    const double bestRate = *std::max_element(rates.begin(), rates.end());
    const double mbAtMark = rss.mbAtMark.load();
    if (mbAtMark <= 0.0)
      report.fail("fewer than " + std::to_string(kRssMarkRequests) +
                  " measured requests completed; peak_rss_mb is read there");
    report.set("setup_s", median(setups));
    report.set("study_s", kBlockRequests / bestRate);
    report.set("requests_per_s", bestRate);
    report.set("latency_p50_ms", median(p50s));
    report.set("latency_p99_ms", median(tails));
    report.set("result_err_pct", errPctValue);
    report.set("peak_rss_mb", mbAtMark);
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "daemon: %zu requests in %zu blocks, median block rate "
                  "%.1f/s; latency tail percentile p%.2f per block; RC "
                  "transient error %.5f%%",
                  recs.size(), rates.size(), median(rates), tailPct,
                  errPctValue);
    report.note(buf);
    std::sort(setups.begin(), setups.end());
    std::snprintf(buf, sizeof buf,
                  "daemon: %zu starts, fastest %.1f us, median %.1f us, "
                  "p90 %.1f us",
                  setups.size(), setups.front() * 1e6, median(setups) * 1e6,
                  setups[setups.size() * 9 / 10] * 1e6);
    report.note(buf);
  } else {
    std::vector<double> latencies, submit, poll, healthz, lint, queue, hitWall,
        missWall;
    long polled = 0, polls = 0, r422 = 0, r429 = 0, jobs = 0, hits = 0,
         retries = 0;
    for (const RequestRecord& r : recs) {
      if (!r.traced) continue;
      latencies.push_back(r.latencyMs);
      submit.push_back(r.submitMs);
      poll.insert(poll.end(), r.pollMs.begin(), r.pollMs.end());
      if (r.healthzMs >= 0) healthz.push_back(r.healthzMs);
      if (r.lintUs >= 0) lint.push_back(r.lintUs);
      if (r.queueMs >= 0) queue.push_back(r.queueMs);
      if (r.jobWallMs >= 0) (r.cacheHit ? hitWall : missWall).push_back(r.jobWallMs);
      if (!r.pollMs.empty()) {
        ++polled;
        polls += static_cast<long>(r.pollMs.size());
      }
      r422 += r.status == 422;
      r429 += r.status == 429;
      jobs += r.jobs;
      hits += r.cacheHits;
      retries += r.retries;
    }
    const double n = static_cast<double>(latencies.size());
    report.set("lint.deck_us", mean(lint));
    report.set("serve.submit_ms", median(submit));
    report.set("serve.healthz_ms", median(healthz));
    report.set("serve.job_wall_hit_ms", median(hitWall));
    report.set("serve.job_wall_miss_ms", median(missWall));
    report.set("serve.queue_ms", median(queue));
    report.set("serve.poll_ms", median(poll));
    report.set("serve.polls_per_request",
               static_cast<double>(polls) / static_cast<double>(polled));
    report.set("serve.useful_poll_ratio",
               static_cast<double>(polled) / static_cast<double>(polls));
    report.set("serve.rejected_422", static_cast<double>(r422));
    report.set("serve.rejected_429", static_cast<double>(r429));
    report.set("runner.cache_hit_ratio",
               static_cast<double>(hits) / static_cast<double>(jobs));
    report.set("runner.retries", static_cast<double>(retries));
    report.set("bench.latency_samples", n);
    report.set("bench.latency_tail_pct", tailPercentile(latencies).percentile);

    reportSelfTimes(report, recordedSpans(), "bench.request");
    // Throughput is this workload's pass rate: overhead = lost rate.
    report.set("obs.trace_overhead_pct",
               100.0 * (ratePerS(false) / ratePerS(true) - 1.0));
    const double mbAtMark = rss.mbAtMark.load();
    const long afterMark = rss.done.load() - kRssMarkRequests;
    report.set("serve.rss_growth_kb_per_request",
               mbAtMark > 0.0 && afterMark > 0
                   ? (peakRssMb() - mbAtMark) * 1024.0 /
                         static_cast<double>(afterMark)
                   : 0.0);
    writeSpans(opts.spansDir + "/spans-daemon_mix-" +
               std::to_string(opts.seed) + ".jsonl");
  }
  daemon.reset();
  return report;
}

}  // namespace perfbench
