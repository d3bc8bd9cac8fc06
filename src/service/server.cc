#include "src/service/server.h"

#include <netinet/in.h>
#include <sys/select.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace hilog::service {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Writes the whole buffer, retrying short writes; false on error.
bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
#ifdef MSG_NOSIGNAL
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

LineServer::LineServer(std::shared_ptr<SnapshotStore> snapshots,
                       std::shared_ptr<QueryExecutor> executor,
                       ServerOptions options)
    : snapshots_(std::move(snapshots)),
      executor_(std::move(executor)),
      options_(std::move(options)),
      start_ns_(obs::NowNs()) {}  // Re-stamped by Start(); this keeps
                                  // uptime sane for Dispatch-only tests.

LineServer::~LineServer() { Stop(); }

std::string LineServer::BindTcp() {
  tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (tcp_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Errno("bind");
  }
  if (::listen(tcp_fd_, options_.listen_backlog) < 0) return Errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  return "";
}

std::string LineServer::BindUnix() {
  unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (unix_fd_ < 0) return Errno("socket(unix)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
    return "unix socket path too long";
  }
  std::strncpy(addr.sun_path, options_.unix_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(options_.unix_path.c_str());
  if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Errno("bind(unix)");
  }
  if (::listen(unix_fd_, options_.listen_backlog) < 0) {
    return Errno("listen(unix)");
  }
  return "";
}

std::string LineServer::Start() {
  if (options_.port >= 0) {
    std::string error = BindTcp();
    if (!error.empty()) {
      CloseListeners();
      return error;
    }
  }
  if (!options_.unix_path.empty()) {
    std::string error = BindUnix();
    if (!error.empty()) {
      CloseListeners();
      return error;
    }
  }
  if (tcp_fd_ < 0 && unix_fd_ < 0) return "no listener configured";
  start_ns_ = obs::NowNs();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    accepting_ = true;
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  if (options_.sample_interval_ms > 0) {
    sampler_ = std::thread([this] { SamplerLoop(); });
  }
  return "";
}

void LineServer::SamplerLoop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stopping()) {
    executor_->SampleLoadGauges();
    stop_cv_.wait_for(lock,
                      std::chrono::milliseconds(options_.sample_interval_ms),
                      [this] { return stopping(); });
  }
}

void LineServer::AcceptLoop() {
  // poll() over the (at most two) listeners keeps this a single loop.
  while (!stopping()) {
    fd_set fds;
    FD_ZERO(&fds);
    int max_fd = -1;
    if (tcp_fd_ >= 0) {
      FD_SET(tcp_fd_, &fds);
      max_fd = std::max(max_fd, tcp_fd_);
    }
    if (unix_fd_ >= 0) {
      FD_SET(unix_fd_, &fds);
      max_fd = std::max(max_fd, unix_fd_);
    }
    if (max_fd < 0) break;
    timeval tv{0, 200000};  // 200 ms: bounded latency for stop requests.
    const int ready = ::select(max_fd + 1, &fds, nullptr, nullptr, &tv);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    {
      // Reap on every wakeup, so before any new connection is added and
      // at least every 200 ms: a long-running server holds threads and
      // fds only for connections that are still open.
      std::lock_guard<std::mutex> lock(conn_mu_);
      ReapFinishedLocked();
    }
    if (ready == 0) continue;
    for (int listen_fd : {tcp_fd_, unix_fd_}) {
      if (listen_fd < 0 || !FD_ISSET(listen_fd, &fds)) continue;
      const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
      if (conn_fd < 0) continue;
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (!accepting_) {
        ::close(conn_fd);
        continue;
      }
      auto connection = std::make_unique<Connection>();
      connection->fd = conn_fd;
      Connection* raw = connection.get();
      connection->thread = std::thread([this, raw] { ServeConnection(raw); });
      connections_.push_back(std::move(connection));
    }
  }
}

void LineServer::ReapFinishedLocked() {
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
    if (!c->done.load(std::memory_order_acquire)) return false;
    c->thread.join();  // Returns at once: the thread is exiting.
    ::close(c->fd);
    return true;
  });
}

void LineServer::ServeConnection(Connection* connection) {
  const int fd = connection->fd;
  std::string buffer;
  char chunk[4096];
  bool open = true;
  bool overlong = false;
  while (open && !stopping()) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // Peer closed.
    // Only the new bytes can hold a newline: what is buffered is the
    // unterminated tail of earlier reads, already scanned.
    size_t scan = buffer.size();
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl; (nl = buffer.find('\n', scan)) != std::string::npos;
         start = scan = nl + 1) {
      if (nl - start > kMaxRequestLineBytes) {
        overlong = true;
        break;
      }
      std::string_view line(buffer.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.empty()) continue;
      WireRequest request;
      std::string error;
      std::string response;
      if (!ParseWireRequest(line, &request, &error)) {
        response = EncodeErrorResponse(error, /*id=*/"");
      } else {
        response = Dispatch(request);
      }
      response.push_back('\n');
      if (!SendAll(fd, response)) {
        open = false;
        break;
      }
    }
    buffer.erase(0, start);
    if (overlong || buffer.size() > kMaxRequestLineBytes) {
      overlong = true;
      open = false;
    }
  }
  if (overlong) {
    SendAll(fd, EncodeErrorResponse("request line exceeds " +
                                        std::to_string(kMaxRequestLineBytes) +
                                        " bytes; closing the connection",
                                    /*id=*/"") +
                    "\n");
  }
  // Unblock the peer now; the fd itself is closed by whoever joins this
  // thread (the acceptor's reap or Stop()), never here, so its number
  // cannot be recycled while someone may still shut it down.
  ::shutdown(fd, SHUT_RDWR);
  connection->done.store(true, std::memory_order_release);
}

std::string LineServer::Dispatch(const WireRequest& request) {
  if (request.op == "query") {
    QueryRequest query;
    query.query = request.q;
    query.deadline_ms = request.deadline_ms;
    QueryResponse response = executor_->Execute(std::move(query));
    return EncodeQueryResponse(response, request.id);
  }
  if (request.op == "load" || request.op == "load_more") {
    return HandleLoad(request, /*append=*/request.op == "load_more");
  }
  if (request.op == "publish_delta") return HandleDelta(request);
  if (request.op == "wfs") return HandleWfs(request);
  if (request.op == "stats") return HandleStats(request);
  if (request.op == "metrics") return HandleMetrics(request);
  if (request.op == "healthz") return HandleHealthz(request);
  if (request.op == "statusz") return HandleStatusz(request);
  if (request.op == "ping") {
    std::string out = "{\"status\":\"ok\"";
    if (!request.id.empty()) out += ",\"id\":" + JsonQuote(request.id);
    out += ",\"epoch\":" + std::to_string(snapshots_->epoch()) + "}";
    return out;
  }
  if (request.op == "shutdown") {
    RequestStop();
    std::string out = "{\"status\":\"ok\"";
    if (!request.id.empty()) out += ",\"id\":" + JsonQuote(request.id);
    out += ",\"stopping\":true}";
    return out;
  }
  return EncodeErrorResponse("unknown op \"" + request.op + "\"", request.id);
}

std::string LineServer::HandleLoad(const WireRequest& request, bool append) {
  std::string error =
      snapshots_->Publish(request.program, append, options_.solve_wfs);
  if (!error.empty()) return EncodeErrorResponse(error, request.id);
  std::shared_ptr<const ModelSnapshot> snapshot = snapshots_->Current();
  std::string out = "{\"status\":\"ok\"";
  if (!request.id.empty()) out += ",\"id\":" + JsonQuote(request.id);
  out += ",\"epoch\":" + std::to_string(snapshot->epoch());
  out += ",\"rules\":" + std::to_string(snapshot->rules()) + "}";
  return out;
}

std::string LineServer::HandleDelta(const WireRequest& request) {
  std::string error = snapshots_->PublishDelta(request.add, request.retract,
                                               options_.solve_wfs);
  if (!error.empty()) return EncodeErrorResponse(error, request.id);
  std::shared_ptr<const ModelSnapshot> snapshot = snapshots_->Current();
  std::string out = "{\"status\":\"ok\"";
  if (!request.id.empty()) out += ",\"id\":" + JsonQuote(request.id);
  out += ",\"epoch\":" + std::to_string(snapshot->epoch());
  out += ",\"rules\":" + std::to_string(snapshot->rules()) + "}";
  return out;
}

std::string LineServer::HandleWfs(const WireRequest& request) {
  std::shared_ptr<const ModelSnapshot> snapshot = snapshots_->Current();
  std::string out = "{\"status\":\"ok\"";
  if (!request.id.empty()) out += ",\"id\":" + JsonQuote(request.id);
  out += ",\"epoch\":" + std::to_string(snapshot->epoch());
  out += ",\"has_wfs\":";
  out += snapshot->has_wfs() ? "true" : "false";
  if (snapshot->has_wfs()) {
    const Engine::WfsAnswer& wfs = snapshot->wfs();
    out += ",\"exact\":";
    out += wfs.exact ? "true" : "false";
    out += ",\"true_atoms\":" +
           std::to_string(wfs.model.TrueAtoms().size());
    out += ",\"undefined_atoms\":" +
           std::to_string(wfs.model.UndefinedAtoms().size());
    out += ",\"ground_rules\":" + std::to_string(wfs.ground_rules);
  }
  out += "}";
  return out;
}

std::string LineServer::HandleStats(const WireRequest& request) {
  const ServiceStats stats = executor_->stats();
  std::string out = "{\"status\":\"ok\"";
  if (!request.id.empty()) out += ",\"id\":" + JsonQuote(request.id);
  out += ",\"epoch\":" + std::to_string(snapshots_->epoch());
  out += ",\"threads\":" + std::to_string(executor_->threads());
  out += ",\"submitted\":" + std::to_string(stats.submitted);
  out += ",\"completed\":" + std::to_string(stats.completed);
  out += ",\"ok\":" + std::to_string(stats.ok);
  out += ",\"errors\":" + std::to_string(stats.errors);
  out += ",\"timeouts\":" + std::to_string(stats.timeouts);
  out += ",\"cancelled\":" + std::to_string(stats.cancelled);
  out += ",\"shed\":" + std::to_string(stats.shed);
  out += ",\"rejected\":" + std::to_string(stats.rejected);
  out += ",\"slow\":" + std::to_string(stats.slow);
  out += ",\"max_queue_depth\":" + std::to_string(stats.max_queue_depth);
  out += ",\"queue_wait_ns\":" + std::to_string(stats.queue_wait_ns);
  out += ",\"eval_ns\":" + std::to_string(stats.eval_ns);
  // Same registry schema as `hilog_cli --stats-json`: counters, gauges,
  // phases, histograms — one shared shape for both surfaces.
  out += ",\"metrics\":" + executor_->AggregatedMetrics().ToJson() + "}";
  return out;
}

namespace {

/// One Prometheus series with a TYPE header, e.g.
/// "# TYPE hilog_service_submitted counter\nhilog_service_submitted 3\n".
void PromLine(std::string* out, const char* name, const char* type,
              uint64_t value) {
  *out += "# TYPE ";
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
  *out += name;
  *out += ' ';
  *out += std::to_string(value);
  *out += '\n';
}

}  // namespace

std::string LineServer::HandleMetrics(const WireRequest& request) {
  // Service-level section first, then the full aggregated registry
  // (counters, gauges, phases, latency histograms with cumulative
  // buckets). The exposition is multi-line text, so it travels inside
  // the single-line JSON response as an escaped "body" string — scrapers
  // unwrap it (see docs/observability.md for a worked example).
  const ServiceStats stats = executor_->stats();
  std::string body;
  PromLine(&body, "hilog_service_submitted_total", "counter",
           stats.submitted);
  PromLine(&body, "hilog_service_completed_total", "counter",
           stats.completed);
  PromLine(&body, "hilog_service_ok_total", "counter", stats.ok);
  PromLine(&body, "hilog_service_errors_total", "counter", stats.errors);
  PromLine(&body, "hilog_service_timeouts_total", "counter", stats.timeouts);
  PromLine(&body, "hilog_service_cancelled_total", "counter",
           stats.cancelled);
  PromLine(&body, "hilog_service_shed_total", "counter", stats.shed);
  PromLine(&body, "hilog_service_rejected_total", "counter", stats.rejected);
  PromLine(&body, "hilog_service_slow_total", "counter", stats.slow);
  PromLine(&body, "hilog_service_uptime_seconds", "gauge",
           (obs::NowNs() - start_ns_) / 1'000'000'000ull);
  PromLine(&body, "hilog_service_epoch", "gauge", snapshots_->epoch());
  PromLine(&body, "hilog_service_threads", "gauge", executor_->threads());
  PromLine(&body, "hilog_service_queue_depth", "gauge",
           executor_->queue_depth());
  PromLine(&body, "hilog_service_inflight", "gauge", executor_->inflight());
  PromLine(&body, "hilog_service_max_queue_depth", "gauge",
           stats.max_queue_depth);
  body += executor_->AggregatedMetrics().ToPrometheus();

  std::string out = "{\"status\":\"ok\"";
  if (!request.id.empty()) out += ",\"id\":" + JsonQuote(request.id);
  out += ",\"content_type\":\"text/plain; version=0.0.4\"";
  out += ",\"body\":" + JsonQuote(body) + "}";
  return out;
}

std::string LineServer::HandleHealthz(const WireRequest& request) {
  // Not-ready as soon as a drain begins anywhere in the stack: either
  // the server took a shutdown op or the executor stopped accepting.
  const bool ready = !stopping() && !executor_->stopping();
  std::string out = ready ? "{\"status\":\"ok\",\"ready\":true"
                          : "{\"status\":\"unavailable\",\"ready\":false";
  if (!request.id.empty()) out += ",\"id\":" + JsonQuote(request.id);
  out += ",\"epoch\":" + std::to_string(snapshots_->epoch()) + "}";
  return out;
}

std::string LineServer::HandleStatusz(const WireRequest& request) {
  const ServiceStats stats = executor_->stats();
  const obs::MetricsRegistry metrics = executor_->AggregatedMetrics();
  const obs::Histogram& latency =
      metrics.histo(obs::Histo::kQueryLatency);
  std::shared_ptr<const ModelSnapshot> snapshot = snapshots_->Current();
  std::string out = "{\"status\":\"ok\"";
  if (!request.id.empty()) out += ",\"id\":" + JsonQuote(request.id);
  out += ",\"uptime_ns\":" + std::to_string(obs::NowNs() - start_ns_);
  out += ",\"epoch\":" + std::to_string(snapshot->epoch());
  out += ",\"rules\":" + std::to_string(snapshot->rules());
  out += ",\"has_wfs\":";
  out += snapshot->has_wfs() ? "true" : "false";
  out += ",\"threads\":" + std::to_string(executor_->threads());
  out += ",\"queue_capacity\":" +
         std::to_string(executor_->options().queue_capacity);
  out += ",\"queue_depth\":" + std::to_string(executor_->queue_depth());
  out += ",\"inflight\":" + std::to_string(executor_->inflight());
  out += ",\"draining\":";
  out += (stopping() || executor_->stopping()) ? "true" : "false";
  out += ",\"submitted\":" + std::to_string(stats.submitted);
  out += ",\"completed\":" + std::to_string(stats.completed);
  out += ",\"ok\":" + std::to_string(stats.ok);
  out += ",\"errors\":" + std::to_string(stats.errors);
  out += ",\"timeouts\":" + std::to_string(stats.timeouts);
  out += ",\"cancelled\":" + std::to_string(stats.cancelled);
  out += ",\"shed\":" + std::to_string(stats.shed);
  out += ",\"rejected\":" + std::to_string(stats.rejected);
  out += ",\"slow\":" + std::to_string(stats.slow);
  out += ",\"max_queue_depth\":" + std::to_string(stats.max_queue_depth);
  // Publish-path breakdown: appends that seeded off the previous
  // prototype, cold full rebuilds, and delta maintenance publishes.
  out += ",\"snapshot\":{\"seeded\":" +
         std::to_string(snapshots_->seeded_builds());
  out += ",\"full_rebuilds\":" + std::to_string(snapshots_->full_rebuilds());
  out += ",\"delta_builds\":" + std::to_string(snapshots_->delta_builds());
  out += "}";
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                ",\"latency\":{\"count\":%llu,\"p50_ns\":%.0f,"
                "\"p90_ns\":%.0f,\"p99_ns\":%.0f}}",
                static_cast<unsigned long long>(latency.count()),
                latency.Percentile(50), latency.Percentile(90),
                latency.Percentile(99));
  out += buf;
  return out;
}

void LineServer::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  stop_cv_.notify_all();
}

void LineServer::Wait() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return stopping(); });
}

void LineServer::CloseListeners() {
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
    ::unlink(options_.unix_path.c_str());
  }
}

void LineServer::Stop() {
  RequestStop();
  std::call_once(stopped_once_, [this] {
    std::vector<std::unique_ptr<Connection>> connections;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      accepting_ = false;
      connections.swap(connections_);
    }
    // Unblock recv() in every connection thread, then join each and
    // close its fd: the swap above made this teardown their owner.
    for (auto& connection : connections) {
      ::shutdown(connection->fd, SHUT_RDWR);
    }
    for (auto& connection : connections) {
      if (connection->thread.joinable()) connection->thread.join();
      ::close(connection->fd);
    }
    if (acceptor_.joinable()) acceptor_.join();
    if (sampler_.joinable()) sampler_.join();
    CloseListeners();
  });
}

}  // namespace hilog::service
