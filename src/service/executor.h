#ifndef HILOG_SERVICE_EXECUTOR_H_
#define HILOG_SERVICE_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/eval/cancel.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/request_context.h"
#include "src/service/snapshot.h"

namespace hilog::service {

/// Typed completion status of a service request.
enum class ServiceStatus : uint8_t {
  kOk = 0,
  kError,       // Parse error or evaluator diagnostic.
  kTimeout,     // deadline_ms exceeded (cooperatively cancelled).
  kCancelled,   // The caller's CancelToken tripped first.
  kOverloaded,  // Shed at submission: the bounded queue was full.
  kShutdown,    // Rejected or abandoned because the executor is stopping.
};

/// Wire name: "ok", "error", "timeout", "cancelled", "overloaded",
/// "shutdown".
const char* ServiceStatusName(ServiceStatus status);

struct QueryRequest {
  std::string query;
  /// Per-query deadline from submission, 0 = the executor default (and 0
  /// there = unbounded).
  uint64_t deadline_ms = 0;
  /// Optional caller-held token: Cancel() aborts the query cooperatively
  /// (connection dropped...). The executor arms the deadline on it.
  std::shared_ptr<CancelToken> cancel;
};

struct QueryResponse {
  ServiceStatus status = ServiceStatus::kOk;
  std::string error;
  /// Ground query instances derived true, rendered in HiLog syntax in
  /// derivation order — identical strings to rendering a sequential
  /// `Engine::Query`'s answers.
  std::vector<std::string> answers;
  QueryStatus ground_status = QueryStatus::kUnsettled;
  std::vector<std::string> unsettled_negative_calls;
  size_t facts_derived = 0;
  /// Epoch of the snapshot the query ran against.
  uint64_t epoch = 0;
  uint64_t queue_ns = 0;  // Submission -> dequeue.
  uint64_t eval_ns = 0;   // Dequeue -> completion (incl. materialization).
};

/// Monotonic service-level counters (one consistent sample).
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;   // Ran to a terminal status on a worker.
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t timeouts = 0;
  uint64_t cancelled = 0;
  uint64_t shed = 0;        // kOverloaded at submission.
  uint64_t rejected = 0;    // kShutdown at submission or drain-abandon.
  uint64_t slow = 0;        // Exceeded options.slow_query_ns end to end.
  uint64_t queue_wait_ns = 0;
  uint64_t eval_ns = 0;
  uint64_t max_queue_depth = 0;
};

struct ExecutorOptions {
  size_t threads = 4;
  /// Bounded submission queue; a full queue sheds with kOverloaded
  /// instead of blocking the submitter.
  size_t queue_capacity = 64;
  /// Applied when a request carries no deadline; 0 = unbounded.
  uint64_t default_deadline_ms = 0;
  /// Slow-query budget end to end (submit -> response serialized);
  /// 0 disables. A request over budget emits one structured JSON log
  /// line through `slow_query_sink` and bumps stats().slow.
  uint64_t slow_query_ns = 0;
  /// Receives slow-query log lines (no trailing newline). Defaults to
  /// stderr; tests install a capturing sink. Called outside all executor
  /// locks, possibly from several workers at once — must be thread-safe.
  std::function<void(const std::string&)> slow_query_sink;
  /// The options every worker forks the snapshot's prototype with (its
  /// budgets and trace settings; EngineSession). trace_capacity > 0 gives
  /// each worker a trace ring merged into the aggregate (lane = worker).
  EngineOptions engine;
};

/// Fixed thread pool answering magic-sets queries against the currently
/// published snapshot.
///
/// Each worker owns an `EngineSession`: a private fork of the current
/// snapshot's prototype (its own term store — nothing in the eval layer
/// is shared mutable), forked again only on epoch change.
/// Per-query metrics accumulate in the worker engine's registry and are
/// merged into a service-level aggregate after every query, under one
/// mutex — the `MergeInto` path that makes multi-threaded observability
/// race-free.
class QueryExecutor {
 public:
  QueryExecutor(std::shared_ptr<SnapshotStore> snapshots,
                ExecutorOptions options);
  ~QueryExecutor();  // Shutdown(/*drain=*/true).

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Enqueues; the future always becomes ready (kOverloaded/kShutdown
  /// resolve immediately without touching a worker).
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Submit + wait.
  QueryResponse Execute(QueryRequest request);

  /// Stops accepting. drain=true completes everything already queued;
  /// drain=false resolves queued requests with kShutdown. Idempotent;
  /// joins the workers before returning.
  void Shutdown(bool drain = true);

  ServiceStats stats() const;
  /// Copy of the merged per-query metrics of all workers so far.
  obs::MetricsRegistry AggregatedMetrics() const;
  /// Merged per-worker trace events (empty buffer when tracing is off).
  std::string AggregatedTraceJson() const;

  size_t threads() const { return workers_.size(); }
  const ExecutorOptions& options() const { return options_; }

  /// Instantaneous load levels (for statusz and the server's sampler).
  size_t queue_depth() const;
  size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  /// True once Shutdown began: new submissions are rejected (healthz
  /// reports not-ready while queued work drains).
  bool stopping() const;

  /// Records the current queue depth and inflight count into the
  /// aggregate registry's service gauges (high-water on merge) and, when
  /// tracing, as counter samples in the aggregate trace. The LineServer's
  /// background sampler calls this periodically.
  void SampleLoadGauges();

 private:
  struct Task {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    std::shared_ptr<CancelToken> token;  // Never null once enqueued.
    uint64_t query_id = 0;
    uint64_t submit_ns = 0;
    uint64_t deadline_ns = 0;  // Absolute steady-clock; 0 = none.
  };

  void WorkerLoop(uint32_t worker_index);
  void RunTask(EngineSession* session, Task task);

  std::shared_ptr<SnapshotStore> snapshots_;
  ExecutorOptions options_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Task> queue_;       // Guarded by queue_mu_.
  bool stopping_ = false;        // Guarded by queue_mu_.

  mutable std::mutex agg_mu_;
  ServiceStats stats_;                  // Guarded by agg_mu_.
  obs::MetricsRegistry agg_metrics_;    // Guarded by agg_mu_.
  std::unique_ptr<obs::TraceBuffer> agg_trace_;  // Guarded by agg_mu_.

  std::atomic<uint64_t> next_query_id_{1};
  std::atomic<size_t> inflight_{0};

  std::vector<std::thread> workers_;
  std::once_flag shutdown_once_;
};

}  // namespace hilog::service

#endif  // HILOG_SERVICE_EXECUTOR_H_
