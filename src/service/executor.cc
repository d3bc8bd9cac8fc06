#include "src/service/executor.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace hilog::service {

namespace {

// Minimal JSON string escaper for the slow-query log line. Local on
// purpose: wire.h's JsonQuote sits above the executor in the layering
// (wire includes executor), so reaching for it here would be a cycle.
void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

}  // namespace

const char* ServiceStatusName(ServiceStatus status) {
  switch (status) {
    case ServiceStatus::kOk: return "ok";
    case ServiceStatus::kError: return "error";
    case ServiceStatus::kTimeout: return "timeout";
    case ServiceStatus::kCancelled: return "cancelled";
    case ServiceStatus::kOverloaded: return "overloaded";
    case ServiceStatus::kShutdown: return "shutdown";
  }
  return "?";
}

QueryExecutor::QueryExecutor(std::shared_ptr<SnapshotStore> snapshots,
                             ExecutorOptions options)
    : snapshots_(std::move(snapshots)), options_(std::move(options)) {
  const size_t threads = std::max<size_t>(options_.threads, 1);
  if (options_.engine.trace_capacity > 0) {
    agg_trace_ = std::make_unique<obs::TraceBuffer>(
        options_.engine.trace_capacity * threads);
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<uint32_t>(i)); });
  }
}

QueryExecutor::~QueryExecutor() { Shutdown(/*drain=*/true); }

std::future<QueryResponse> QueryExecutor::Submit(QueryRequest request) {
  Task task;
  task.query_id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  task.submit_ns = obs::NowNs();
  const uint64_t deadline_ms = request.deadline_ms != 0
                                   ? request.deadline_ms
                                   : options_.default_deadline_ms;
  if (deadline_ms != 0) {
    task.deadline_ns = task.submit_ns + deadline_ms * 1'000'000ull;
  }
  task.token = request.cancel != nullptr ? request.cancel
                                         : std::make_shared<CancelToken>();
  if (task.deadline_ns != 0) task.token->SetDeadlineNs(task.deadline_ns);
  task.request = std::move(request);
  std::future<QueryResponse> future = task.promise.get_future();

  ServiceStatus verdict = ServiceStatus::kOk;
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      verdict = ServiceStatus::kShutdown;
    } else if (queue_.size() >= options_.queue_capacity) {
      verdict = ServiceStatus::kOverloaded;
    } else {
      queue_.push_back(std::move(task));
      depth = queue_.size();
    }
  }
  {
    std::lock_guard<std::mutex> lock(agg_mu_);
    ++stats_.submitted;
    if (verdict == ServiceStatus::kOverloaded) ++stats_.shed;
    if (verdict == ServiceStatus::kShutdown) ++stats_.rejected;
    stats_.max_queue_depth = std::max<uint64_t>(stats_.max_queue_depth,
                                                depth);
  }
  if (verdict == ServiceStatus::kOk) {
    queue_cv_.notify_one();
  } else {
    QueryResponse response;
    response.status = verdict;
    response.error = verdict == ServiceStatus::kOverloaded
                         ? "submission queue full"
                         : "executor shutting down";
    task.promise.set_value(std::move(response));
  }
  return future;
}

QueryResponse QueryExecutor::Execute(QueryRequest request) {
  return Submit(std::move(request)).get();
}

void QueryExecutor::WorkerLoop(uint32_t worker_index) {
  EngineOptions engine_options = options_.engine;
  engine_options.trace_tid = worker_index;
  EngineSession session(std::move(engine_options));
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping_, and nothing left to drain.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    RunTask(&session, std::move(task));
  }
  // Thread-exit flush: merge whatever the last queries left in the
  // worker's rings (normally empty — RunTask merges per query).
  if (session.materialized()) {
    std::lock_guard<std::mutex> lock(agg_mu_);
    session.engine().metrics().MergeInto(&agg_metrics_);
    if (session.engine().trace() != nullptr && agg_trace_ != nullptr) {
      session.engine().trace()->MergeInto(agg_trace_.get());
    }
  }
}

void QueryExecutor::RunTask(EngineSession* session, Task task) {
  RequestContext ctx;
  ctx.query_id = task.query_id;
  ctx.deadline_ns = task.deadline_ns;
  ctx.submit_ns = task.submit_ns;
  ctx.dequeue_ns = obs::NowNs();
  inflight_.fetch_add(1, std::memory_order_relaxed);

  QueryResponse response;
  response.queue_ns = ctx.queue_wait_ns();

  std::shared_ptr<const ModelSnapshot> snapshot = snapshots_->Current();
  response.epoch = snapshot->epoch();

  CancelReason pre = task.token->Poll();
  if (pre != CancelReason::kNone) {
    // Expired (or cancelled) while queued: never touches an engine.
    response.status = pre == CancelReason::kDeadline
                          ? ServiceStatus::kTimeout
                          : ServiceStatus::kCancelled;
    response.error = CancelReasonMessage(pre);
    ctx.solve_done_ns = obs::NowNs();
  } else {
    session->Materialize(*snapshot, &ctx);
    Engine& engine = session->engine();
    ScopedCancelToken cancel_scope(task.token.get());
    Engine::QueryAnswer answer = engine.Query(task.request.query);
    ctx.solve_done_ns = obs::NowNs();
    if (answer.ok) {
      response.status = ServiceStatus::kOk;
      response.answers.reserve(answer.answers.size());
      for (TermId atom : answer.answers) {
        response.answers.push_back(engine.store().ToString(atom));
      }
      response.ground_status = answer.ground_status;
      for (TermId atom : answer.unsettled_negative_calls) {
        response.unsettled_negative_calls.push_back(
            engine.store().ToString(atom));
      }
      response.facts_derived = answer.facts_derived;
    } else if (answer.cancelled) {
      response.status = task.token->reason() == CancelReason::kDeadline
                            ? ServiceStatus::kTimeout
                            : ServiceStatus::kCancelled;
      response.error = answer.error;
    } else {
      response.status = ServiceStatus::kError;
      response.error = answer.error;
    }
  }
  ctx.serialize_done_ns = obs::NowNs();
  // Wire-visible timings keep their original meaning: eval_ns is
  // dequeue -> response assembled (incl. materialization + rendering).
  response.eval_ns = ctx.serialize_done_ns - ctx.dequeue_ns;

  // Request latency components go straight into the aggregate's lock-free
  // histograms — no mutex on this path.
  agg_metrics_.RecordHisto(obs::Histo::kQueryLatency, ctx.total_ns());
  agg_metrics_.RecordHisto(obs::Histo::kQueueWait, ctx.queue_wait_ns());
  agg_metrics_.RecordHisto(obs::Histo::kEval, ctx.eval_ns());
  agg_metrics_.RecordHisto(obs::Histo::kSerialize, ctx.serialize_ns());

  if (session->materialized() && session->engine().trace() != nullptr) {
    // The request's span tree, in the worker's lane: the whole request,
    // its queue wait, and the serialize tail. The engine's own phase
    // spans (load on an epoch change's fork, query, magic_rewrite)
    // already sit in the ring between dequeue and solve_done.
    obs::TraceBuffer* ring = session->engine().trace();
    ring->Span("request", ctx.submit_ns, ctx.serialize_done_ns);
    ring->Span("queue_wait", ctx.submit_ns, ctx.dequeue_ns);
    ring->Span("serialize", ctx.solve_done_ns, ctx.serialize_done_ns);
    ring->Instant("query.id", ctx.query_id);
  }

  const bool slow = options_.slow_query_ns != 0 &&
                    ctx.total_ns() > options_.slow_query_ns;

  {
    std::lock_guard<std::mutex> lock(agg_mu_);
    ++stats_.completed;
    switch (response.status) {
      case ServiceStatus::kOk: ++stats_.ok; break;
      case ServiceStatus::kTimeout: ++stats_.timeouts; break;
      case ServiceStatus::kCancelled: ++stats_.cancelled; break;
      default: ++stats_.errors; break;
    }
    if (slow) ++stats_.slow;
    stats_.queue_wait_ns += response.queue_ns;
    stats_.eval_ns += response.eval_ns;
    if (session->materialized()) {
      // Per-query flush into the service aggregate; the worker registry
      // and ring restart from zero so nothing is double-counted.
      session->engine().metrics().MergeInto(&agg_metrics_);
      session->engine().metrics().Reset();
      if (session->engine().trace() != nullptr && agg_trace_ != nullptr) {
        session->engine().trace()->MergeInto(agg_trace_.get());
      }
    }
  }
  if (session->materialized() && session->engine().trace() != nullptr) {
    // Clear outside agg_mu_: the ring is worker-confined.
    session->engine().trace()->Clear();
  }
  inflight_.fetch_sub(1, std::memory_order_relaxed);

  if (slow) {
    char buf[256];
    std::string line = "{\"event\":\"slow_query\",";
    std::snprintf(buf, sizeof(buf),
                  "\"query_id\":%" PRIu64 ",\"epoch\":%" PRIu64
                  ",\"status\":\"%s\",\"rebuilt\":%s,\"q\":\"",
                  ctx.query_id, response.epoch,
                  ServiceStatusName(response.status),
                  ctx.rebuilt ? "true" : "false");
    line += buf;
    AppendJsonEscaped(&line, task.request.query);
    std::snprintf(buf, sizeof(buf),
                  "\",\"queue_ns\":%" PRIu64 ",\"eval_ns\":%" PRIu64
                  ",\"serialize_ns\":%" PRIu64 ",\"total_ns\":%" PRIu64
                  ",\"threshold_ns\":%" PRIu64 "}",
                  ctx.queue_wait_ns(), ctx.eval_ns(), ctx.serialize_ns(),
                  ctx.total_ns(), options_.slow_query_ns);
    line += buf;
    if (options_.slow_query_sink) {
      options_.slow_query_sink(line);
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }

  task.promise.set_value(std::move(response));
}

void QueryExecutor::Shutdown(bool drain) {
  std::vector<Task> abandoned;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!stopping_) {
      stopping_ = true;
      if (!drain) {
        while (!queue_.empty()) {
          abandoned.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
    }
  }
  if (!abandoned.empty()) {
    std::lock_guard<std::mutex> lock(agg_mu_);
    stats_.rejected += abandoned.size();
  }
  for (Task& task : abandoned) {
    QueryResponse response;
    response.status = ServiceStatus::kShutdown;
    response.error = "executor shut down before the query ran";
    task.promise.set_value(std::move(response));
  }
  queue_cv_.notify_all();
  std::call_once(shutdown_once_, [this] {
    for (std::thread& worker : workers_) worker.join();
  });
}

ServiceStats QueryExecutor::stats() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  return stats_;
}

obs::MetricsRegistry QueryExecutor::AggregatedMetrics() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  return agg_metrics_;
}

std::string QueryExecutor::AggregatedTraceJson() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  if (agg_trace_ == nullptr) return "{\"traceEvents\":[]}";
  return agg_trace_->ToChromeJson();
}

size_t QueryExecutor::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

bool QueryExecutor::stopping() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return stopping_;
}

void QueryExecutor::SampleLoadGauges() {
  const uint64_t depth = queue_depth();
  const uint64_t busy = inflight();
  std::lock_guard<std::mutex> lock(agg_mu_);
  agg_metrics_.Set(obs::Gauge::kServiceQueueDepth, depth);
  agg_metrics_.Set(obs::Gauge::kServiceInflight, busy);
  if (agg_trace_ != nullptr) {
    agg_trace_->CounterSample("service.queue_depth", depth);
    agg_trace_->CounterSample("service.inflight", busy);
  }
}

}  // namespace hilog::service
