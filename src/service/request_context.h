#ifndef HILOG_SERVICE_REQUEST_CONTEXT_H_
#define HILOG_SERVICE_REQUEST_CONTEXT_H_

#include <cstdint>

namespace hilog::service {

/// Per-request identity and timeline, threaded through QueryExecutor and
/// EngineSession so every query can be turned into a span tree
/// (request / queue_wait / serialize, plus the engine's own phase and
/// scheduler-component spans) and a slow-query log line after the fact.
///
/// All timestamps are absolute steady-clock nanoseconds (obs::NowNs), so
/// they can be diffed against each other and rebased into any
/// TraceBuffer's epoch. A zero timestamp means "never reached" (e.g. a
/// request shed before dequeue).
struct RequestContext {
  uint64_t query_id = 0;     // Executor-assigned, monotonically increasing.
  uint64_t deadline_ns = 0;  // Absolute; 0 = no deadline.
  uint64_t submit_ns = 0;            // Enqueued.
  uint64_t dequeue_ns = 0;           // Picked up by a worker.
  uint64_t solve_done_ns = 0;        // Engine finished (or failed).
  uint64_t serialize_done_ns = 0;    // Response fully assembled.
  /// True when the worker forked a new epoch's prototype for this request
  /// rather than hitting the same-epoch fast path.
  bool rebuilt = false;

  uint64_t queue_wait_ns() const {
    return dequeue_ns > submit_ns ? dequeue_ns - submit_ns : 0;
  }
  uint64_t eval_ns() const {
    return solve_done_ns > dequeue_ns ? solve_done_ns - dequeue_ns : 0;
  }
  uint64_t serialize_ns() const {
    return serialize_done_ns > solve_done_ns
               ? serialize_done_ns - solve_done_ns
               : 0;
  }
  uint64_t total_ns() const {
    return serialize_done_ns > submit_ns ? serialize_done_ns - submit_ns : 0;
  }
};

}  // namespace hilog::service

#endif  // HILOG_SERVICE_REQUEST_CONTEXT_H_
