#ifndef HILOG_SERVICE_SERVER_H_
#define HILOG_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/service/executor.h"
#include "src/service/snapshot.h"
#include "src/service/wire.h"

namespace hilog::service {

struct ServerOptions {
  /// TCP listen port on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with `port()`). Set to -1 to disable TCP.
  int port = 0;
  /// When non-empty, also listen on this Unix-domain socket path (the
  /// path is unlinked first and again on Stop).
  std::string unix_path;
  /// Published program updates re-solve WFS on the new snapshot, so the
  /// "wfs" op answers from a warm model.
  bool solve_wfs = true;
  int listen_backlog = 64;
  /// Background sampler period: every interval the server records the
  /// executor's queue depth and inflight count into the aggregate
  /// registry's service gauges (and the aggregate trace as counter
  /// samples when tracing). 0 disables the sampler.
  uint64_t sample_interval_ms = 100;
};

/// Newline-delimited JSON server over the query service: one request
/// object per line, one response object per line, connections handled on
/// their own threads while all queries funnel through the shared
/// QueryExecutor (which bounds concurrency and sheds overload).
///
/// See docs/service.md for the protocol grammar.
class LineServer {
 public:
  LineServer(std::shared_ptr<SnapshotStore> snapshots,
             std::shared_ptr<QueryExecutor> executor, ServerOptions options);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds and starts the accept loop. Returns "" or the bind error.
  std::string Start();

  /// Bound TCP port (valid after Start when TCP is enabled).
  int port() const { return port_; }

  /// Blocks until RequestStop (a "shutdown" op or a signal handler).
  void Wait();

  /// Makes Wait return and begins teardown; safe from any thread and
  /// from dispatch (a connection thread may request its own stop).
  void RequestStop();

  /// Full teardown: stops accepting, unblocks and joins every
  /// connection thread, joins the acceptor. Idempotent.
  void Stop();

  /// Longest request line a connection may send (excluding the '\n').
  /// A longer line gets an error response and the connection closes, so
  /// a peer can never make the server buffer more than this per
  /// connection.
  static constexpr size_t kMaxRequestLineBytes = size_t{16} << 20;

  bool stopping() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  /// Handles one decoded request; exposed for tests. Returns the
  /// response line (no trailing newline).
  std::string Dispatch(const WireRequest& request);

 private:
  /// One accepted connection. Its fd has exactly one owner: whoever
  /// joins `thread` — the acceptor once `done` is set, or Stop() — then
  /// closes the fd. The serving thread itself only shuts the socket
  /// down, so a closed fd number is never reused while a thread or
  /// Stop() still refers to it.
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};  // Set as the serving thread exits.
  };

  std::string BindTcp();
  std::string BindUnix();
  void AcceptLoop();
  void ServeConnection(Connection* connection);
  /// Joins and closes every finished connection; conn_mu_ held.
  void ReapFinishedLocked();
  void CloseListeners();

  void SamplerLoop();

  std::string HandleLoad(const WireRequest& request, bool append);
  std::string HandleDelta(const WireRequest& request);
  std::string HandleWfs(const WireRequest& request);
  std::string HandleStats(const WireRequest& request);
  std::string HandleMetrics(const WireRequest& request);
  std::string HandleHealthz(const WireRequest& request);
  std::string HandleStatusz(const WireRequest& request);

  std::shared_ptr<SnapshotStore> snapshots_;
  std::shared_ptr<QueryExecutor> executor_;
  ServerOptions options_;

  int tcp_fd_ = -1;
  int unix_fd_ = -1;
  int port_ = -1;
  uint64_t start_ns_ = 0;  // Stamped by Start(); basis for uptime.

  std::atomic<bool> stop_requested_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;

  std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;  // Guarded.
  bool accepting_ = false;  // Guarded by conn_mu_.

  std::thread acceptor_;
  std::thread sampler_;
  std::once_flag stopped_once_;
};

}  // namespace hilog::service

#endif  // HILOG_SERVICE_SERVER_H_
