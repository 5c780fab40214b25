// ahficd — the simulation-as-a-service daemon.
//
// Binds a dependency-free HTTP/1.1 server (src/serve) over a persistent
// runner::Session and a live cell database, then waits for SIGINT /
// SIGTERM. On a signal the job service drains (queued and running jobs
// finish, bounded by --drain-timeout), the HTTP server stops, and the
// process exits 0.
//
// Usage:
//   ./ahficd [--port N] [--workers N] [--queue-depth N]
//            [--connections N] [--celldb PATH] [--seed-celldb]
//            [--metrics-interval SEC] [--drain-timeout SEC]
//            [--log-level LEVEL] [--log-json FILE]
//            [--history-interval SEC] [--history-capacity N]
//            [--trace FILE] [--metrics FILE]
//
//   --port N              listen port (default 8078; 0 = ephemeral)
//   --workers N           job-execution threads (default 2)
//   --queue-depth N       admission-queue bound; overflow -> 429
//   --connections N       HTTP connection threads (default 4)
//   --celldb PATH         load the cell database from PATH at startup
//                         and save it back on clean shutdown
//   --seed-celldb         pre-populate the example cell library
//   --metrics-interval S  log a one-line metrics digest every S seconds
//                         (0 = off, the default)
//   --drain-timeout S     max seconds to wait for in-flight jobs on
//                         shutdown (default 120)
//   --log-level LEVEL     trace|debug|info|warn|error|off (default info);
//                         text log lines go to stderr
//   --log-json FILE       additionally write structured JSONL log lines
//                         to FILE (one JSON object per line)
//   --history-interval S  metrics time-series sampling period (default 5)
//   --history-capacity N  ring size for /v1/metrics/history (default 720
//                         samples = 1 h at the default interval)
//
// Endpoints and schemas: docs/serve.md. On-demand profiling
// (docs/profiling.md): GET /v1/profile?seconds=N samples the live
// process and returns an ahfic-profile-v1 document (409 while another
// capture runs); GET /v1/profile/latest replays the last capture.
// Quick check:
//   curl -s localhost:8078/healthz
// Live dashboard: http://localhost:8078/debug
//
// Every log line carries the originating request's correlation id when
// one exists (docs/logging.md); grep the X-Ahfic-Request-Id a response
// returned and the daemon's whole handling of that request lines up.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "celldb/database.h"
#include "celldb/seed.h"
#include "obs/cli.h"
#include "obs/history.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/api.h"
#include "serve/server.h"
#include "util/error.h"

namespace sv = ahfic::serve;
namespace obs = ahfic::obs;

namespace {

int intArg(int argc, char** argv, int& k, const char* flag) {
  if (k + 1 >= argc) {
    std::cerr << flag << " needs a value\n";
    std::exit(2);
  }
  return std::atoi(argv[++k]);
}

const char* strArg(int argc, char** argv, int& k, const char* flag) {
  if (k + 1 >= argc) {
    std::cerr << flag << " needs a value\n";
    std::exit(2);
  }
  return argv[++k];
}

/// One-line digest of the live registry for --metrics-interval logging.
void logDigest() {
  static const obs::LogSite sDigest =
      obs::logSite(obs::LogLevel::kInfo, "ahficd.digest");
  if (!sDigest) return;
  const auto snap = obs::metrics().snapshot();
  double requests = 0, submitted = 0, completed = 0, hits = 0, queued = 0;
  for (const auto& [name, value] : snap.counters) {
    const double v = static_cast<double>(value);
    if (name == "serve.requests") requests = v;
    if (name == "serve.jobs_submitted") submitted = v;
    if (name == "serve.jobs_completed") completed = v;
    if (name == "runner.cache_hits") hits = v;
  }
  for (const auto& [name, value] : snap.gauges)
    if (name == "serve.queue_depth") queued = value;
  sDigest.log("periodic digest")
      .num("requests", requests)
      .num("submitted", submitted)
      .num("completed", completed)
      .num("cacheHits", hits)
      .num("queued", queued);
}

}  // namespace

int main(int argc, char** argv) {
  sv::ServerOptions serverOpts;
  serverOpts.port = 8078;
  sv::JobServiceOptions jobOpts;
  std::string celldbPath;
  bool seedCelldb = false;
  int metricsInterval = 0;
  int drainTimeoutSec = 120;
  obs::LogLevel logLevel = obs::LogLevel::kInfo;
  std::string logJsonPath;
  double historyInterval = 5.0;
  int historyCapacity = 720;
  obs::CliOptions obsOpts;

  for (int k = 1; k < argc; ++k) {
    try {
      if (obsOpts.consume(argc, argv, k)) continue;
    } catch (const ahfic::Error& e) {
      return obs::usageError(
          std::cerr, argv[0], e.what(),
          "[--port N] [--workers N] [--queue-depth N] [--connections N] "
          "[--celldb PATH] [--seed-celldb] [--metrics-interval SEC] "
          "[--drain-timeout SEC] [--log-level LEVEL] [--log-json FILE] "
          "[--history-interval SEC] [--history-capacity N]");
    }
    if (std::strcmp(argv[k], "--port") == 0)
      serverOpts.port = intArg(argc, argv, k, "--port");
    else if (std::strcmp(argv[k], "--workers") == 0)
      jobOpts.workers = intArg(argc, argv, k, "--workers");
    else if (std::strcmp(argv[k], "--queue-depth") == 0)
      jobOpts.queueDepth = intArg(argc, argv, k, "--queue-depth");
    else if (std::strcmp(argv[k], "--connections") == 0)
      serverOpts.connectionThreads = intArg(argc, argv, k, "--connections");
    else if (std::strcmp(argv[k], "--celldb") == 0 && k + 1 < argc)
      celldbPath = argv[++k];
    else if (std::strcmp(argv[k], "--seed-celldb") == 0)
      seedCelldb = true;
    else if (std::strcmp(argv[k], "--metrics-interval") == 0)
      metricsInterval = intArg(argc, argv, k, "--metrics-interval");
    else if (std::strcmp(argv[k], "--drain-timeout") == 0)
      drainTimeoutSec = intArg(argc, argv, k, "--drain-timeout");
    else if (std::strcmp(argv[k], "--log-level") == 0) {
      const char* name = strArg(argc, argv, k, "--log-level");
      if (!obs::parseLogLevel(name, logLevel)) {
        std::cerr << "unknown log level '" << name
                  << "' (want trace|debug|info|warn|error|off)\n";
        return 2;
      }
    } else if (std::strcmp(argv[k], "--log-json") == 0)
      logJsonPath = strArg(argc, argv, k, "--log-json");
    else if (std::strcmp(argv[k], "--history-interval") == 0)
      historyInterval = std::atof(strArg(argc, argv, k, "--history-interval"));
    else if (std::strcmp(argv[k], "--history-capacity") == 0)
      historyCapacity = intArg(argc, argv, k, "--history-capacity");
    else {
      std::cerr << "unknown flag '" << argv[k] << "'\n";
      return 2;
    }
  }
  if (historyInterval <= 0) historyInterval = 5.0;
  if (historyCapacity < 2) historyCapacity = 2;

  // The daemon always runs with live metrics: /v1/metrics is an endpoint.
  obs::setMetricsEnabled(true);
  obs::setLogLevel(logLevel);
  if (!logJsonPath.empty()) obs::setJsonlLogSink(true, logJsonPath);
  obsOpts.begin();

  static const obs::LogSite sUp = obs::logSite(obs::LogLevel::kInfo,
                                               "ahficd.listening");
  static const obs::LogSite sSignal = obs::logSite(obs::LogLevel::kInfo,
                                                   "ahficd.signal");
  static const obs::LogSite sDrainTimeout =
      obs::logSite(obs::LogLevel::kWarn, "ahficd.drain_timeout");
  static const obs::LogSite sBye = obs::logSite(obs::LogLevel::kInfo,
                                                "ahficd.exit");

  // Block the termination signals in every thread *before* any thread is
  // spawned, so only the sigwait below ever sees them.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  try {
    ahfic::celldb::CellDatabase db;
    if (!celldbPath.empty()) db = ahfic::celldb::CellDatabase::load(celldbPath);
    if (seedCelldb) ahfic::celldb::seedExampleLibrary(db);
    ahfic::util::Mutex dbMutex;

    ahfic::runner::Session session;
    sv::JobService jobs(session, jobOpts);

    obs::MetricsHistory history(historyInterval,
                                static_cast<size_t>(historyCapacity));

    sv::ApiContext ctx;
    ctx.jobs = &jobs;
    ctx.db = &db;
    ctx.dbMutex = &dbMutex;
    ctx.history = &history;

    sv::HttpServer server(sv::buildApiRouter(ctx), serverOpts);
    server.start();
    history.start();
    if (sUp)
      sUp.log("listening")
          .str("address", serverOpts.bindAddress)
          .num("port", server.port())
          .num("workers", jobOpts.workers)
          .num("queueDepth", jobOpts.queueDepth)
          .num("cells", static_cast<double>(db.size()));

    std::thread digest;
    std::atomic<bool> digestStop{false};
    if (metricsInterval > 0)
      digest = std::thread([metricsInterval, &digestStop] {
        int elapsed = 0;
        while (!digestStop.load()) {
          std::this_thread::sleep_for(std::chrono::seconds(1));
          if (++elapsed >= metricsInterval) {
            logDigest();
            elapsed = 0;
          }
        }
      });

    int sig = 0;
    sigwait(&sigs, &sig);
    if (sSignal)
      sSignal.log("caught signal, draining")
          .str("signal", sig == SIGTERM ? "SIGTERM" : "SIGINT");

    const bool drained =
        jobs.stop(/*drain=*/true, std::chrono::seconds(drainTimeoutSec));
    history.stop();
    server.stop();
    digestStop.store(true);
    if (digest.joinable()) digest.join();
    if (!drained && sDrainTimeout)
      sDrainTimeout.log("drain timed out; queued jobs were dropped");

    if (!celldbPath.empty()) db.save(celldbPath);
    obsOpts.finish(std::cout);
    if (sBye) sBye.log("bye");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ahficd: " << e.what() << "\n";
    return 1;
  }
}
