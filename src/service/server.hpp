// spta_serve core: the resident pWCET analysis service.
//
// One Server owns the shared state — SessionManager, AnalysisEngine (with
// its result cache), ServiceMetrics and a common/ThreadPool — and serves
// any number of request streams over it:
//
//   * pipe mode: ServeStream(std::cin, std::cout), also what the tests and
//     the load generator drive with string streams;
//   * socket mode: ServeUnixSocket() accepts connections on an AF_UNIX
//     stream socket, one thread per connection, all sharing the engine.
//
// Request handling discipline:
//   * Session mutations (OPEN/APPEND/CLOSE) and cheap reads run inline on
//     the connection's reader thread — appends must apply in stream order
//     or the convergence criterion (defined over the time-ordered sample)
//     would be evaluated on a scrambled history.
//   * ANALYZE is the heavy verb and is dispatched to the worker pool,
//     bounded by `queue_capacity` outstanding requests; when the bound is
//     hit the request is rejected immediately with ERR busy
//     (backpressure, not buffering). A per-request deadline_ms is honored
//     by dropping requests whose deadline expired while queued. The
//     sample snapshot is taken at ACCEPT time, so an analysis sees
//     exactly the appends that preceded it on its stream.
//   * ANALYZE dispatch is ordered by content address (AnalysisKey). The
//     reader claims the key of every analysis it sends to the pool before
//     it reads the next frame. An identical ANALYZE accepted while that
//     analysis is pending, on any stream of this Server, is parked behind
//     it instead of starting a second cold run; once the leader has
//     answered, the follower is served from the cache as a hit (or runs
//     its own analysis if the leader inserted nothing). So `cache=` does
//     not depend on the worker count or on scheduling. Distinct keys still
//     run concurrently, and the reader never blocks on a parked request.
//   * Responses are written strictly in request order per stream (a small
//     reorder buffer); SHUTDOWN drains the pool before acknowledging, so
//     every accepted request gets its response before the daemon exits —
//     zero loss on graceful shutdown.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "service/engine.hpp"
#include "service/fd_stream.hpp"
#include "service/metrics.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"

namespace spta::service {

struct ServerOptions {
  /// Worker threads for ANALYZE requests; 0 = hardware concurrency.
  std::size_t workers = 0;
  /// Max ANALYZE requests queued or executing before busy-rejection.
  std::size_t queue_capacity = 64;
  /// Result-cache capacity in entries.
  std::size_t cache_capacity = 128;
  /// Default ANALYZE deadline in ms; 0 = none. A request can override via
  /// its own deadline_ms argument.
  double default_deadline_ms = 0.0;
  /// listen(2) backlog for the accepting socket. The historical hard-coded
  /// 16 drops connections under a burst: a storm of simultaneous connects
  /// overflows the SYN/accept queue before the accept loop runs (pinned by
  /// the burst-accept regression in service_fleet_test).
  int listen_backlog = 128;
  /// Directory for the disk-backed result cache; empty = no persistence.
  /// When set, the directory (which must exist) is scanned at construction
  /// and every validated entry pre-warms the in-memory cache, and every
  /// fresh analysis / mined INGEST table is written through to it — so a
  /// restarted daemon answers repeat requests from cache immediately.
  std::string cache_dir;
  /// On-disk budget for the persistent cache; overshoot evicts the
  /// least-recently-written entries. 0 = unbounded.
  std::uint64_t cache_max_bytes = 0;
  /// Simulated device capacity for the persistent cache (fault injection:
  /// Puts past this behave like ENOSPC). 0 = no simulation.
  std::uint64_t cache_quota_bytes = 0;
  mbpta::ConvergenceOptions convergence;
  SessionLimits session_limits;
  /// Honors the debug_sleep_ms ANALYZE argument (tests/bench only: lets a
  /// test hold a worker busy to exercise backpressure deterministically).
  bool enable_debug_hooks = false;
  /// Fault-injection hook factory (tests only). Called once per accepted
  /// socket connection with the connection ordinal; the returned hook (may
  /// be empty) guards every read/write syscall of that connection
  /// (service/fd_stream.hpp). Fired faults are counted into the
  /// `faults_injected` metric; a connection whose stream dies with faults
  /// active counts into `sessions_degraded`. The daemon itself must
  /// survive any decision the hook makes — that invariant is what
  /// tests/fault_matrix_smoke.cpp pins down.
  std::function<IoFaultHook(std::uint64_t)> io_fault_hook_factory;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});

  /// Serves one framed request stream until EOF, an unrecoverable framing
  /// error, or SHUTDOWN. Returns true iff SHUTDOWN was received. Safe to
  /// call from several threads at once (socket mode does).
  bool ServeStream(std::istream& in, std::ostream& out);

  /// Binds `path` (an AF_UNIX socket; any stale file is replaced), then
  /// accepts and serves connections until a SHUTDOWN request arrives.
  /// Returns 0 on clean shutdown, nonzero errno-style on setup failure.
  int ServeUnixSocket(const std::string& path);

  /// Executes one request synchronously on the caller's thread and counts
  /// it into the metrics, with the same semantics ServeStream gives it —
  /// except SHUTDOWN, which belongs to the transport (answered ERR here).
  /// This is the entry point the sharded fleet's worker shards drive: the
  /// event loop owns framing and ordering, the shard owns execution.
  Response Execute(const Request& request);

  SessionManager& sessions() { return sessions_; }
  AnalysisEngine& engine() { return engine_; }
  ServiceMetrics& metrics() { return metrics_; }
  const ServerOptions& options() const { return options_; }
  /// Non-null iff options.cache_dir was set.
  PersistentResultCache* persistent_cache() { return store_.get(); }

  /// The Prometheus text rendering served for METRICS_PROM — also what
  /// spta_serve's --prom-out periodic exporter writes to disk.
  std::string RenderPromText();

  /// True once any stream has processed a SHUTDOWN request.
  bool shutdown_requested() const { return shutdown_.load(); }

  /// Initiates the drain-on-shutdown path from outside a request stream:
  /// unblocks every connection reader and the listener so ServeUnixSocket
  /// winds down exactly as after an in-band SHUTDOWN. Async-signal-UNSAFE
  /// (takes locks) — signal handlers must defer to a watcher thread
  /// (tools/spta_serve.cpp does, via a self-pipe). Idempotent.
  void TriggerShutdown();

 private:
  /// Writes a stream's responses in request order: completions may arrive
  /// out of order from the worker pool; the head-of-line response flushes
  /// everything contiguous behind it.
  class OrderedWriter {
   public:
    explicit OrderedWriter(std::ostream& out) : out_(out) {}
    /// Reserves the next slot; ids must be reserved in increasing order.
    void Expect(std::uint64_t id);
    void Complete(std::uint64_t id, Response response);
    /// Blocks until every reserved slot has been written.
    void Drain();

   private:
    std::ostream& out_;
    std::mutex mutex_;
    std::condition_variable all_written_;
    std::map<std::uint64_t, Response> ready_;
    std::uint64_t next_write_ = 0;
    std::uint64_t expected_ = 0;
  };

  Response HandleInline(const Request& request);
  Response HandleOpen(const Request& request);
  Response HandleAppend(const Request& request);
  Response HandleStatus(const Request& request);
  Response HandleClose(const Request& request);
  Response HandleMetrics();
  Response HandleMetricsProm();
  /// TRACE: exports this process's recorded spans as Chrome trace_event
  /// JSON (args format=chrome-trace, plus the tracer's accounting).
  Response HandleTrace();
  /// HEALTH: liveness + readiness of this server. Always OK when it can
  /// be answered at all (the probe proves the serving thread is alive);
  /// readiness is carried in the args — analyses in flight vs queue
  /// capacity, open sessions, and whether a drain is underway.
  Response HandleHealth();
  /// INGEST: validates a binary trace payload (either container format),
  /// mines its kernel table and caches the rendered table in the result
  /// cache keyed by the trace's content digest — re-ingesting the same
  /// trace (in either container) is a cache hit.
  Response HandleIngest(const Request& request);
  /// Runs on a worker. `observations` was snapshotted at accept time.
  Response RunAnalysis(const Request& request,
                       std::vector<mbpta::PathObservation> observations,
                       std::chrono::steady_clock::time_point deadline,
                       bool has_deadline);
  /// RunAnalysis that never throws (an exception becomes ERR internal) and
  /// counts the request into the metrics. A worker or shard thread must
  /// never die on untrusted input.
  Response RunCountedAnalysis(const Request& request,
                              std::vector<mbpta::PathObservation> observations,
                              std::chrono::steady_clock::time_point deadline,
                              bool has_deadline);

  /// An accepted ANALYZE on its way to an answer: everything the warm
  /// path, a pool worker or a parked follower needs to finish it.
  struct AnalyzeTicket {
    std::uint64_t id = 0;
    OrderedWriter* writer = nullptr;
    Request request;
    std::vector<mbpta::PathObservation> observations;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    /// AnalysisKey of (observations, config); set by ServeFromCache.
    std::uint64_t key = 0;
  };

  /// Reader-thread half of ANALYZE: answers from the cache, parks the
  /// ticket behind a pending identical analysis, or claims the key and
  /// submits the analysis to the pool.
  void DispatchAnalyze(AnalyzeTicket ticket);
  /// Warm path: the cached answer (counted as a hit) or nullopt. Sets
  /// ticket.key either way.
  std::optional<Response> ServeFromCache(AnalyzeTicket& ticket);
  /// Runs on the leader's worker after it answered: serves every ticket
  /// parked on `key` (from the cache, or by its own analysis if the
  /// leader inserted nothing), then releases the key.
  void AnswerFollowers(std::uint64_t key);

  /// Parses the request's sample source: inline payload or session
  /// snapshot. False → `error` is the ERR message.
  bool CollectObservations(const Request& request,
                           std::vector<mbpta::PathObservation>* observations,
                           std::string* error);

  bool TryAcquireAnalyzeSlot();
  void ReleaseAnalyzeSlot();

  void RegisterConnection(int fd);
  void UnregisterConnection(int fd);

  ServerOptions options_;
  SessionManager sessions_;
  AnalysisEngine engine_;
  std::unique_ptr<PersistentResultCache> store_;
  ServiceMetrics metrics_;

  std::mutex slots_mutex_;
  std::size_t analyses_in_flight_ = 0;

  /// AnalysisKey of every ANALYZE running on the pool → the identical
  /// requests parked behind it, in arrival order.
  std::mutex pending_mutex_;
  std::unordered_map<std::uint64_t, std::vector<AnalyzeTicket>>
      pending_analyses_;

  std::atomic<bool> shutdown_{false};
  std::mutex connections_mutex_;
  std::vector<int> connection_fds_;
  int listen_fd_ = -1;

  /// Declared last so it is destroyed first: its destructor joins the
  /// workers, and a worker may still be answering parked followers after
  /// the stream that submitted its task has drained and returned.
  ThreadPool pool_;
};

}  // namespace spta::service
