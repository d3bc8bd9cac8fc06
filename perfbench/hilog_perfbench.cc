// End-to-end benchmark binary for the HiLog engine and its snapshot
// service. Each workload generates its inputs from --seed, runs a fixed
// request list against a fresh server or engine, checks every answer, and
// prints one JSON object on stdout. run.py builds this binary, adds the
// host stamp and prints the result; README.md describes the workloads.
//
//   hilog_perfbench --workload serve_games --seed 1 --seconds 25
//       --trace 0 --socket .bench_build/pb.sock [--trace-out t.json]
//
// Untraced runs report the end-to-end metrics; --trace 1 runs the same
// traffic with spans recorded around calls into each module, then replays
// a slice of it in process to attribute time to layers.

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/maint/maintain.h"
#include "src/service/executor.h"
#include "src/service/server.h"
#include "src/service/snapshot.h"
#include "src/service/wire.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using hilog::Engine;
using hilog::EngineOptions;
using hilog::obs::Counter;
using hilog::obs::MetricsRegistry;
using hilog::obs::Phase;
using hilog::service::JsonQuote;
using hilog::service::JsonValue;

// ---------------------------------------------------------------------
// Sizes. The game and publish shapes follow the paper's Ex. 6.3; the
// request lists scale with --seconds at fixed nominal rates, so a given
// --seconds always yields the same list.

constexpr int kGames = 256;
constexpr int kPositions = 64;  // n0..n63 move to n+1 and n+2; n64, n65 end.
constexpr int kWorkers = 2;
constexpr int kQueryClients = 2;
constexpr size_t kQueueCapacity = 1024;  // Shedding is a failure, not load.
constexpr int kOpenQueryEvery = 10;      // serve_games: 10 % open queries.
constexpr int kSetups = 5;               // setup_s is the median of these.
constexpr double kPublishesPerSecond = 4.0;
constexpr int kTcEdges = 64;
constexpr int kWinChains = 64;
constexpr int kWinChainLength = 16;
constexpr int kLayers = 16;
constexpr int kLayerWidth = 16;
constexpr size_t kReplayQueries = 96;   // Traced in-process query replay.
constexpr size_t kReplayPublishes = 16;  // Traced in-process publish replay.

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// splitmix64: portable, so a seed yields the same inputs everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t state_;
};

// Nearest-rank percentile: the smallest sample with at least p % of the
// samples at or below it.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

// The highest of a few percentiles with at least ten samples beyond it.
int TailPercentile(size_t samples) {
  for (int p : {99, 98, 95, 90, 80}) {
    if (samples * (100 - p) >= 1000) return p;
  }
  return 50;
}

std::string TailName(const std::string& what, size_t samples) {
  return what + "_p" + std::to_string(TailPercentile(samples)) + "_ms";
}

uint64_t Fnv1a(const std::vector<std::string>& lines) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& line : lines) {
    for (unsigned char c : line) h = (h ^ c) * 0x100000001b3ull;
    h = (h ^ '\n') * 0x100000001b3ull;
  }
  return h;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------
// Spans, kept in memory and written as a Chrome trace at exit.

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;
  uint64_t request = 0;
  uint32_t tid = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_ns_(NowNs()) {}
  bool enabled() const { return enabled_; }

  int Begin(std::string name, int parent, uint64_t request, uint32_t tid) {
    if (!enabled_) return -1;
    const uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), now, now, parent, request, tid});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int id) {
    if (id < 0) return;
    const uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans()) {
      if (s.name == name) out.push_back(Ms(s.end_ns - s.start_ns));
    }
    return out;
  }

  bool WriteChrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"request\":%llu,\"parent\":%d}}",
                    s.tid, (s.start_ns - origin_ns_) / 1e3,
                    (s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.request), s.parent);
      out << (first ? "" : ",\n") << "{\"name\":" << JsonQuote(s.name) << buf;
      first = false;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  uint64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int parent = -1,
             uint64_t request = 0, uint32_t tid = 0)
      : tracer_(tracer),
        id_(tracer.Begin(std::move(name), parent, request, tid)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------
// Outcome accounting: every operation attempted, every failure counted
// (non-ok status, malformed line, wrong answer), never retried.

class Outcomes {
 public:
  void Attempt(bool ok, const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (errors_.size() < 5) errors_.push_back(why);
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::mutex mu_;
  uint64_t attempted_ = 0;  // Guarded by mu_.
  uint64_t failed_ = 0;     // Guarded by mu_.
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------
// Programs and their oracles.

std::string Pos(int i) { return "n" + std::to_string(i); }
std::string Game(int g) { return "mv" + std::to_string(g); }

// The Ex. 6.3 game: `winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).`
// over kGames move relations of kPositions positions, out-degree 2.
std::string GameProgram() {
  std::string text = "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).\n";
  for (int g = 0; g < kGames; ++g) {
    const std::string mv = Game(g);
    text += "game(" + mv + ").\n";
    for (int i = 0; i < kPositions; ++i) {
      text += mv + "(" + Pos(i) + "," + Pos(i + 1) + ").\n";
      text += mv + "(" + Pos(i) + "," + Pos(i + 2) + ").\n";
    }
  }
  return text;
}

std::string MoveFact(int g, int i) {
  return Game(g) + "(" + Pos(i) + "," + Pos(i + 2) + ")";
}

// Winning positions of one game, with the skip move out of `removed`
// retracted (-1 = none). Terminal positions n64, n65 lose.
std::vector<bool> WinTable(int removed) {
  std::vector<bool> win(kPositions + 2, false);
  for (int i = kPositions - 1; i >= 0; --i) {
    const bool skip_wins = i != removed && !win[i + 2];
    win[i] = !win[i + 1] || skip_wins;
  }
  return win;
}

std::string WinningAtom(int g, int i) {
  return "winning(" + Game(g) + ")(" + Pos(i) + ")";
}

// The published model as sorted printed atoms.
struct PrintedModel {
  std::vector<std::string> true_atoms;
  std::vector<std::string> undefined_atoms;
};

PrintedModel Print(const hilog::TermStore& store,
                   const hilog::Interpretation& model) {
  PrintedModel out;
  for (hilog::TermId a : model.TrueAtoms()) {
    out.true_atoms.push_back(store.ToString(a));
  }
  for (hilog::TermId a : model.UndefinedAtoms()) {
    out.undefined_atoms.push_back(store.ToString(a));
  }
  std::sort(out.true_atoms.begin(), out.true_atoms.end());
  std::sort(out.undefined_atoms.begin(), out.undefined_atoms.end());
  return out;
}

// One program of the solve_programs set: its text and its expected model
// from an independent closed-form oracle.
struct SolveCase {
  std::string name;
  std::string text;
  PrintedModel expected;
};

SolveCase GameCase() {
  SolveCase c{"game", GameProgram(), {}};
  const std::vector<bool> win = WinTable(-1);
  for (int g = 0; g < kGames; ++g) {
    c.expected.true_atoms.push_back("game(" + Game(g) + ")");
    for (int i = 0; i < kPositions; ++i) {
      c.expected.true_atoms.push_back(Game(g) + "(" + Pos(i) + "," +
                                      Pos(i + 1) + ")");
      c.expected.true_atoms.push_back(MoveFact(g, i));
      if (win[i]) c.expected.true_atoms.push_back(WinningAtom(g, i));
    }
  }
  return c;
}

// Ex. 2.1 generic closure over a kTcEdges-edge chain, guarded by graph/1
// so it is strongly range restricted.
SolveCase TcCase() {
  SolveCase c{"tc",
              "tc(G)(X,Y) :- graph(G), G(X,Y).\n"
              "tc(G)(X,Y) :- graph(G), G(X,Z), tc(G)(Z,Y).\n"
              "graph(e).\n",
              {}};
  c.expected.true_atoms.push_back("graph(e)");
  for (int i = 0; i < kTcEdges; ++i) {
    c.text += "e(" + Pos(i) + "," + Pos(i + 1) + ").\n";
    c.expected.true_atoms.push_back("e(" + Pos(i) + "," + Pos(i + 1) + ")");
    for (int j = i + 1; j <= kTcEdges; ++j) {
      c.expected.true_atoms.push_back("tc(e)(" + Pos(i) + "," + Pos(j) + ")");
    }
  }
  return c;
}

// First-order program: kWinChains ground win chains (half of them, chosen
// by the seed, end in a self-loop that makes the whole chain undefined)
// plus a kLayers x kLayerWidth stack of negation strata whose layer-0
// facts (half the width, chosen by the seed) are seeded.
SolveCase FirstOrderCase(Rng& rng) {
  SolveCase c{"first_order", "", {}};
  std::vector<int> looped(kWinChains, 0);
  std::fill(looped.begin(), looped.begin() + kWinChains / 2, 1);
  rng.Shuffle(&looped);
  for (int ch = 0; ch < kWinChains; ++ch) {
    auto at = [&](int i) {
      return "c" + std::to_string(ch) + "_" + std::to_string(i);
    };
    for (int i = 0; i < kWinChainLength; ++i) {
      const std::string move = "m(" + at(i) + "," + at(i + 1) + ")";
      c.text += "w(" + at(i) + ") :- " + move + ", ~w(" + at(i + 1) + ").\n";
      c.text += move + ".\n";
      c.expected.true_atoms.push_back(move);
    }
    if (looped[ch]) {
      const std::string move =
          "m(" + at(kWinChainLength) + "," + at(kWinChainLength) + ")";
      c.text += "w(" + at(kWinChainLength) + ") :- " + move + ", ~w(" +
                at(kWinChainLength) + ").\n";
      c.text += move + ".\n";
      c.expected.true_atoms.push_back(move);
      for (int i = 0; i <= kWinChainLength; ++i) {
        c.expected.undefined_atoms.push_back("w(" + at(i) + ")");
      }
    } else {
      for (int i = 0; i < kWinChainLength; ++i) {
        if ((kWinChainLength - i) % 2 == 1) {
          c.expected.true_atoms.push_back("w(" + at(i) + ")");
        }
      }
    }
  }
  std::vector<int> layer(kLayerWidth, 0);
  std::fill(layer.begin(), layer.begin() + kLayerWidth / 2, 1);
  rng.Shuffle(&layer);
  auto pred = [](int l, int w) {
    return "p" + std::to_string(l) + "_" + std::to_string(w);
  };
  for (int w = 0; w < kLayerWidth; ++w) {
    if (layer[w]) {
      c.text += pred(0, w) + "(c).\n";
      c.expected.true_atoms.push_back(pred(0, w) + "(c)");
    }
  }
  for (int l = 1; l < kLayers; ++l) {
    std::vector<int> next(kLayerWidth, 0);
    for (int w = 0; w < kLayerWidth; ++w) {
      const int other = (w + 1) % kLayerWidth;
      c.text += pred(l, w) + "(X) :- " + pred(l - 1, w) + "(X), ~" +
                pred(l - 1, other) + "(X).\n";
      next[w] = layer[w] && !layer[other];
      if (next[w]) c.expected.true_atoms.push_back(pred(l, w) + "(c)");
    }
    layer = next;
  }
  return c;
}

// ---------------------------------------------------------------------
// A line client on the server's Unix socket.

class LineClient {
 public:
  LineClient() = default;
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  // Sends one request line and reads one response line; false on any
  // socket error or EOF.
  bool Request(const std::string& line, std::string* response) {
    std::string out = line + "\n";
    for (size_t sent = 0; sent < out.size();) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        response->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string QueryLine(const std::string& goal) {
  return "{\"op\":\"query\",\"q\":" + JsonQuote(goal) + "}";
}

// ---------------------------------------------------------------------
// The served game: snapshot store, executor and server on a Unix socket.

struct ServeQuery {
  int game = 0;
  int pos = -1;  // -1: the open query winning(mvG)(X).
  std::string Goal() const {
    return "winning(" + Game(game) + ")(" + (pos < 0 ? "X" : Pos(pos)) + ")";
  }
};

// One publish of publish_serve: even steps retract a seeded skip move,
// odd steps add it back.
struct PublishStep {
  int game = 0;
  int pos = 0;
  bool retract = true;
  std::string Line() const {
    const std::string fact = MoveFact(game, pos) + ".";
    return std::string("{\"op\":\"publish_delta\",\"retract\":") +
           JsonQuote(retract ? fact : "") +
           ",\"add\":" + JsonQuote(retract ? "" : fact + "\n") + "}";
  }
};

class ServeFixture {
 public:
  explicit ServeFixture(std::string socket_path)
      : socket_path_(std::move(socket_path)) {}
  ~ServeFixture() { Stop(); }
  ServeFixture(const ServeFixture&) = delete;
  ServeFixture& operator=(const ServeFixture&) = delete;

  // Generates and publishes the game with its WFS solved, starts the
  // server and warms every worker session. Returns "" or the error.
  std::string Start(Tracer& tracer) {
    ScopedSpan setup(tracer, "setup");
    std::string text;
    {
      ScopedSpan s(tracer, "setup.generate", setup.id());
      text = GameProgram();
    }
    snapshots_ = std::make_shared<hilog::service::SnapshotStore>();
    {
      ScopedSpan s(tracer, "setup.publish", setup.id());
      std::string error = snapshots_->Publish(text, /*append=*/false,
                                              /*solve_wfs=*/true);
      if (!error.empty()) return "publish: " + error;
    }
    hilog::service::ExecutorOptions exec;
    exec.threads = kWorkers;
    exec.queue_capacity = kQueueCapacity;
    executor_ = std::make_shared<hilog::service::QueryExecutor>(snapshots_,
                                                                exec);
    hilog::service::ServerOptions options;
    options.port = -1;
    options.unix_path = socket_path_;
    server_ = std::make_unique<hilog::service::LineServer>(snapshots_,
                                                           executor_, options);
    {
      ScopedSpan s(tracer, "setup.server_start", setup.id());
      std::string error = server_->Start();
      if (!error.empty()) return "server start: " + error;
    }
    ScopedSpan s(tracer, "setup.warm_sessions", setup.id());
    return WarmSessions();
  }

  void Stop() {
    if (server_ != nullptr) server_->Stop();
    if (executor_ != nullptr) executor_->Shutdown();
    server_.reset();
    executor_.reset();
  }

  const std::string& socket_path() const { return socket_path_; }
  hilog::service::SnapshotStore& snapshots() { return *snapshots_; }

  // The `stats` op, parsed.
  bool Stats(JsonValue* out) {
    LineClient client;
    std::string line;
    std::string error;
    return client.Connect(socket_path_) &&
           client.Request("{\"op\":\"stats\"}", &line) &&
           hilog::service::ParseJson(line, out, &error) &&
           out->GetString("status") == "ok";
  }

 private:
  // Sends concurrent query pairs until every worker has loaded the
  // snapshot (the merged `load` phase count reaches the worker count).
  std::string WarmSessions() {
    LineClient a;
    LineClient b;
    if (!a.Connect(socket_path_) || !b.Connect(socket_path_)) {
      return "warm: connect failed";
    }
    for (int round = 0; round < 50; ++round) {
      std::string ra;
      std::string rb;
      std::thread other([&] { b.Request(QueryLine(WinningAtom(1, 60)), &rb); });
      a.Request(QueryLine(WinningAtom(0, 60)), &ra);
      other.join();
      JsonValue stats;
      if (!Stats(&stats)) return "warm: stats failed";
      const JsonValue* load = nullptr;
      if (const JsonValue* m = stats.Get("metrics")) {
        if (const JsonValue* p = m->Get("phases")) load = p->Get("load");
      }
      if (load != nullptr && load->GetUint("calls") >= kWorkers) return "";
    }
    return "warm: workers never materialized";
  }

  std::string socket_path_;
  std::shared_ptr<hilog::service::SnapshotStore> snapshots_;
  std::shared_ptr<hilog::service::QueryExecutor> executor_;
  std::unique_ptr<hilog::service::LineServer> server_;
};

// ---------------------------------------------------------------------
// Result assembly.

struct Result {
  Outcomes outcomes;
  std::map<std::string, double> metrics;  // Generic e2e or per-layer.
  std::map<std::string, std::pair<double, std::string>> report;  // By descriptive name.
  std::string Json(const std::string& workload) const {
    std::string out = "{\"workload\":" + JsonQuote(workload);
    out += ",\"compiler\":" + JsonQuote(PERFBENCH_COMPILER);
    out += ",\"build_type\":" + JsonQuote(PERFBENCH_BUILD_TYPE);
    out += ",\"correct\":";
    out += outcomes.failed() == 0 ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(outcomes.attempted());
    out += ",\"failed\":" + std::to_string(outcomes.failed());
    char buf[64];
    out += ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, value] : metrics) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out += (first ? "" : ",") + JsonQuote(name) + ":" + buf;
      first = false;
    }
    out += "},\"report\":{";
    first = true;
    for (const auto& [name, entry] : report) {
      std::snprintf(buf, sizeof(buf), "%.17g", entry.first);
      out += (first ? "" : ",") + JsonQuote(name) + ":{\"value\":" + buf +
             ",\"unit\":" + JsonQuote(entry.second) + "}";
      first = false;
    }
    out += "},\"errors\":[";
    first = true;
    for (const std::string& e : outcomes.errors()) {
      out += (first ? "" : ",") + JsonQuote(e);
      first = false;
    }
    out += "]}";
    return out;
  }
};

const JsonValue* Path(const JsonValue& root,
                      std::initializer_list<const char*> keys) {
  const JsonValue* at = &root;
  for (const char* k : keys) {
    if (at == nullptr) return nullptr;
    at = at->Get(k);
  }
  return at;
}

double Num(const JsonValue& root, std::initializer_list<const char*> keys) {
  const JsonValue* v = Path(root, keys);
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number : 0.0;
}

// Per-layer figures read from the `stats` op: executor latency
// histograms and the merged worker counters of the measured traffic.
void StatsLayers(const JsonValue& before, const JsonValue& after,
                 Result* result) {
  auto h = [&](const char* name, const char* p) {
    return Num(after, {"metrics", "histograms", name, p}) / 1e6;
  };
  auto counter = [&](const char* name) {
    return Num(after, {"metrics", "counters", name}) -
           Num(before, {"metrics", "counters", name});
  };
  auto& m = result->metrics;
  m["service.executor.queue_wait_p50_ms"] = h("query.queue_wait_ns", "p50");
  m["service.executor.queue_wait_p99_ms"] = h("query.queue_wait_ns", "p99");
  m["service.executor.eval_p50_ms"] = h("query.eval_ns", "p50");
  m["service.executor.eval_p99_ms"] = h("query.eval_ns", "p99");
  const double hits = counter("kernel.cache_hits");
  m["eval.kernel.cache_hit_ratio"] =
      Ratio(hits, hits + counter("kernel.programs_compiled"));
  const double fallback = counter("col.fallback_tuples");
  m["eval.col.fallback_share"] =
      Ratio(fallback, fallback + counter("col.probe_hits"));
  m["eval.index.probes"] =
      Ratio(counter("index.probes"), counter("engine.queries"));
  // Worker epoch changes: every Materialize runs Engine::Load (a full
  // rebuild) or Engine::ApplyDelta (the delta path); both time the load
  // phase, and only the delta path counts inc.deltas_applied.
  const double loads = Num(after, {"metrics", "phases", "load", "calls"}) -
                       Num(before, {"metrics", "phases", "load", "calls"});
  m["service.session.delta_path_ratio"] =
      Ratio(counter("inc.deltas_applied"), loads);
}

// ---------------------------------------------------------------------
// serve_games and publish_serve.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 25;
  bool trace = false;
  std::string socket_path;
  std::string trace_out;
};

uint64_t WorkloadSeed(const Options& o) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : o.workload) h = (h ^ c) * 1099511628211ull;
  return h ^ (o.seed * 0x9e3779b97f4a7c15ull);
}

// Positions cycle through seeded permutations of 0..63 so every list
// holds each position equally often: per-request cost grows toward the
// head of a chain, and a balanced list keeps the latency mix seed-stable.
std::vector<ServeQuery> MakeQueries(Rng& rng, size_t count, int open_every,
                                    const std::vector<int>& hot_games) {
  std::vector<ServeQuery> out;
  std::vector<int> perm;
  for (size_t i = 0; i < count; ++i) {
    ServeQuery q;
    if (!hot_games.empty() && rng.Below(2) == 0) {
      q.game = hot_games[rng.Below(hot_games.size())];
    } else {
      q.game = static_cast<int>(rng.Below(kGames));
    }
    if (open_every > 0 && i % open_every == static_cast<size_t>(open_every - 1)) {
      q.pos = -1;
    } else {
      if (perm.empty()) {
        for (int p = 0; p < kPositions; ++p) perm.push_back(p);
        rng.Shuffle(&perm);
      }
      q.pos = perm.back();
      perm.pop_back();
    }
    out.push_back(q);
  }
  return out;
}

struct Sample {
  double latency_ms = 0;
  bool traced = false;
};

// Expected winning table of `game` at the publish state of `epoch`.
class EpochOracle {
 public:
  EpochOracle(uint64_t base_epoch, const std::vector<PublishStep>* steps)
      : base_epoch_(base_epoch), steps_(steps), base_(WinTable(-1)) {}
  // False when the epoch is outside the run's publish range.
  bool Winning(uint64_t epoch, int game, int pos, bool* win) const {
    if (epoch < base_epoch_) return false;
    const uint64_t s = epoch - base_epoch_;
    if (steps_ == nullptr ? s != 0 : s > steps_->size()) return false;
    if (s % 2 == 1) {
      const PublishStep& step = (*steps_)[s - 1];
      if (step.game == game) {
        *win = WinTable(step.pos)[pos];
        return true;
      }
    }
    *win = base_[pos];
    return true;
  }

 private:
  uint64_t base_epoch_;
  const std::vector<PublishStep>* steps_;
  std::vector<bool> base_;
};

bool CheckAnswer(const EpochOracle& oracle, const ServeQuery& q,
                 uint64_t epoch, const std::string& ground_status,
                 std::vector<std::string> answers) {
  if (q.pos >= 0) {
    bool win = false;
    if (!oracle.Winning(epoch, q.game, q.pos, &win)) return false;
    return ground_status == (win ? "true" : "false");
  }
  std::vector<std::string> expected;
  for (int i = 0; i < kPositions + 2; ++i) {
    bool win = false;
    if (i < kPositions && !oracle.Winning(epoch, q.game, i, &win)) return false;
    if (win) expected.push_back(WinningAtom(q.game, i));
  }
  std::sort(expected.begin(), expected.end());
  std::sort(answers.begin(), answers.end());
  return answers == expected;
}

// ---------------------------------------------------------------------
// In-process replays for the traced run: the same requests through the
// public functions of each layer, one span per call.

uint64_t PhaseNs(const MetricsRegistry& m, Phase p) {
  return m.phase(p).total_ns;
}

void ReplayQueries(Tracer& tracer, hilog::service::SnapshotStore& snapshots,
                   const std::vector<ServeQuery>& queries,
                   const EpochOracle& oracle, Result* result) {
  hilog::service::EngineSession session;
  std::shared_ptr<const hilog::service::ModelSnapshot> snapshot =
      snapshots.Current();
  {
    ScopedSpan s(tracer, "service.session.materialize");
    session.Materialize(*snapshot);
  }
  Engine& engine = session.engine();
  std::vector<double> rewrite_ms;
  std::vector<double> eval_ms;
  std::vector<double> query_self_ms;
  std::vector<double> facts;
  std::vector<double> ops;
  std::vector<double> interned;
  double answers = 0;
  double facts_total = 0;
  const size_t n = std::min(kReplayQueries, queries.size());
  for (size_t i = 0; i < n; ++i) {
    ScopedSpan request(tracer, "replay.request", -1, i + 1);
    hilog::service::WireRequest wire;
    std::string error;
    bool parsed = false;
    {
      ScopedSpan s(tracer, "service.wire.parse", request.id(), i + 1);
      parsed = hilog::service::ParseWireRequest(QueryLine(queries[i].Goal()),
                                                &wire, &error);
    }
    const MetricsRegistry before = engine.metrics();
    Engine::QueryAnswer answer;
    {
      ScopedSpan s(tracer, "core.query", request.id(), i + 1);
      answer = engine.Query(wire.q);
    }
    const MetricsRegistry& after = engine.metrics();
    const uint64_t rewrite = PhaseNs(after, Phase::kMagicRewrite) -
                             PhaseNs(before, Phase::kMagicRewrite);
    const uint64_t eval =
        PhaseNs(after, Phase::kMagicEval) - PhaseNs(before, Phase::kMagicEval);
    const uint64_t query =
        PhaseNs(after, Phase::kQuery) - PhaseNs(before, Phase::kQuery);
    rewrite_ms.push_back(Ms(rewrite));
    eval_ms.push_back(Ms(eval));
    query_self_ms.push_back(Ms(query > rewrite + eval ? query - rewrite - eval : 0));
    auto delta = [&](Counter c) {
      return static_cast<double>(after.value(c) - before.value(c));
    };
    facts.push_back(delta(Counter::kMagicFactsDerived));
    ops.push_back(delta(Counter::kKernelOpsExecuted));
    interned.push_back(delta(Counter::kTermsInterned));
    answers += answer.answers.size();
    facts_total += answer.facts_derived;
    hilog::service::QueryResponse response;
    response.status = answer.ok ? hilog::service::ServiceStatus::kOk
                                : hilog::service::ServiceStatus::kError;
    response.error = answer.error;
    for (hilog::TermId a : answer.answers) {
      response.answers.push_back(engine.store().ToString(a));
    }
    response.ground_status = answer.ground_status;
    response.facts_derived = answer.facts_derived;
    response.epoch = snapshot->epoch();
    std::string line;
    {
      ScopedSpan s(tracer, "service.wire.encode", request.id(), i + 1);
      line = hilog::service::EncodeQueryResponse(response, "");
    }
    result->outcomes.Attempt(
        parsed && answer.ok && !line.empty() &&
            CheckAnswer(oracle, queries[i], snapshot->epoch(),
                        hilog::service::QueryStatusWireName(
                            response.ground_status),
                        response.answers),
        "replay " + queries[i].Goal() + ": " + answer.error);
  }
  auto& m = result->metrics;
  auto us = [&](const char* name) {
    return Median(tracer.DurationsMs(name)) * 1e3;
  };
  m["service.wire.parse_us"] = us("service.wire.parse");
  m["service.wire.encode_us"] = us("service.wire.encode");
  m["service.session.materialize_ms"] =
      Median(tracer.DurationsMs("service.session.materialize"));
  m["core.query_ms"] = Median(tracer.DurationsMs("core.query"));
  m["core.query.self_ms"] = Median(query_self_ms);
  m["transform.magic_rewrite_ms"] = Median(rewrite_ms);
  m["eval.magic_eval_ms"] = Median(eval_ms);
  m["eval.magic.facts_per_query"] = Median(facts);
  m["eval.magic.answer_yield"] = Ratio(answers, facts_total);
  m["eval.kernel.ops_per_query"] = Median(ops);
  m["term.interned_per_query"] = Median(interned);
}

// The publish pipeline step by step (Engine::Fork, Engine::ApplyDelta,
// ComposeDeltaText, the DRed solve), then the same publishes through
// SnapshotStore::PublishDelta with a session following every epoch.
void ReplayPublishes(Tracer& tracer, const std::string& base_text,
                     const std::vector<PublishStep>& steps, Result* result) {
  const size_t n = std::min(kReplayPublishes, steps.size());
  auto engine = std::make_unique<Engine>();
  engine->Load(base_text);
  engine->SolveWellFounded();
  std::string text = base_text;
  std::vector<double> skip;
  double overdeleted = 0;
  double rederived = 0;
  for (size_t k = 0; k < n; ++k) {
    const PublishStep& step = steps[k];
    const std::string fact = MoveFact(step.game, step.pos) + ".";
    const std::string add = step.retract ? "" : fact + "\n";
    ScopedSpan publish(tracer, "replay.publish", -1, k + 1);
    std::unique_ptr<Engine> next;
    {
      ScopedSpan s(tracer, "core.fork", publish.id(), k + 1);
      next = engine->Fork();
    }
    std::vector<size_t> removed;
    std::string error;
    {
      ScopedSpan s(tracer, "maint.apply_delta", publish.id(), k + 1);
      error = next->ApplyDelta(add, step.retract ? fact : "", &removed);
    }
    {
      ScopedSpan s(tracer, "maint.compose_text", publish.id(), k + 1);
      text = hilog::ComposeDeltaText(text, removed, add);
    }
    Engine::WfsAnswer wfs;
    {
      ScopedSpan s(tracer, "maint.solve", publish.id(), k + 1);
      wfs = next->SolveWellFounded();
    }
    const MetricsRegistry& m = next->metrics();
    const double resolved = m.value(Counter::kIncComponentsResolved);
    const double skipped = m.value(Counter::kIncComponentsSkipped);
    skip.push_back(Ratio(skipped, skipped + resolved));
    overdeleted += m.value(Counter::kIncOverdeleted);
    rederived += m.value(Counter::kIncRederived);
    result->outcomes.Attempt(error.empty() && wfs.ok,
                             "replay publish: " + error + wfs.notes);
    engine = std::move(next);
  }

  hilog::service::SnapshotStore store;
  store.Publish(base_text, /*append=*/false, /*solve_wfs=*/true);
  hilog::service::EngineSession session;
  session.Materialize(*store.Current());
  for (size_t k = 0; k < n; ++k) {
    const PublishStep& step = steps[k];
    const std::string fact = MoveFact(step.game, step.pos) + ".";
    std::string error;
    {
      ScopedSpan s(tracer, "service.snapshot.publish_delta", -1, k + 1);
      error = store.PublishDelta(step.retract ? "" : fact + "\n",
                                 step.retract ? fact : "", /*solve_wfs=*/true);
    }
    if (error.empty()) {
      ScopedSpan s(tracer, "service.session.materialize_epoch", -1, k + 1);
      error = session.Materialize(*store.Current());
    }
    result->outcomes.Attempt(error.empty(), "replay snapshot publish: " + error);
  }
  auto& m = result->metrics;
  auto med = [&](const char* name) { return Median(tracer.DurationsMs(name)); };
  m["core.fork_ms"] = med("core.fork");
  m["maint.apply_delta_ms"] = med("maint.apply_delta");
  m["maint.compose_text_ms"] = med("maint.compose_text");
  m["maint.solve_ms"] = med("maint.solve");
  m["maint.skip_ratio"] = Median(skip);
  m["maint.overdeleted"] = n ? overdeleted / n : 0;
  m["maint.rederived"] = n ? rederived / n : 0;
  m["service.snapshot.publish_delta_ms"] = med("service.snapshot.publish_delta");
  // Under publishes the figure is the epoch change (the replay session
  // follows every epoch through the delta path), not the cold rebuild.
  m["service.session.materialize_ms"] =
      med("service.session.materialize_epoch");
}

int Serve(const Options& opt, Result* result) {
  Tracer tracer(opt.trace);
  Rng rng(WorkloadSeed(opt));
  const bool publishing = opt.workload != "serve_games";

  // Set up kSetups times; keep the last fixture and report the median.
  std::vector<double> setup_s;
  std::unique_ptr<ServeFixture> fixture;
  for (int i = 0; i < kSetups; ++i) {
    if (fixture != nullptr) fixture->Stop();
    fixture.reset();
    const uint64_t t0 = NowNs();
    fixture = std::make_unique<ServeFixture>(opt.socket_path);
    std::string error = fixture->Start(tracer);
    if (!error.empty()) {
      std::fprintf(stderr, "setup failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // The setup model must match the closed-form oracle: the open-query
  // check below compares answers against that model.
  std::shared_ptr<const hilog::service::ModelSnapshot> base =
      fixture->snapshots().Current();
  {
    const PrintedModel model = Print(base->prototype().store(), base->wfs().model);
    SolveCase game = GameCase();
    std::sort(game.expected.true_atoms.begin(), game.expected.true_atoms.end());
    result->outcomes.Attempt(
        base->has_wfs() && model.true_atoms == game.expected.true_atoms &&
            model.undefined_atoms.empty(),
        "setup model differs from the game oracle");
  }
  const uint64_t base_epoch = base->epoch();

  std::vector<PublishStep> steps;
  std::vector<int> hot_games;
  if (publishing) {
    const size_t publishes =
        static_cast<size_t>(std::lround(opt.seconds * kPublishesPerSecond));
    for (size_t k = 0; k < publishes; k += 2) {
      PublishStep step;
      step.game = static_cast<int>(rng.Below(kGames));
      step.pos = static_cast<int>(rng.Below(kPositions));
      steps.push_back(step);
      step.retract = false;
      steps.push_back(step);
      hot_games.push_back(step.game);
    }
    steps.resize(publishes);
  }
  const EpochOracle oracle(base_epoch, publishing ? &steps : nullptr);
  // ~20 queries/s nominal. Every query leaves its interned terms in the
  // worker's store (about 5 MB each at this size), so the list stays
  // short enough to bound memory; the tail percentile follows its length.
  const size_t per_client = std::max<size_t>(
      64, static_cast<size_t>(std::lround(opt.seconds * 10.24)));
  std::vector<std::vector<ServeQuery>> lists;
  for (int c = 0; c < kQueryClients; ++c) {
    lists.push_back(MakeQueries(rng, per_client,
                                publishing ? 0 : kOpenQueryEvery, hot_games));
  }

  JsonValue stats_before;
  if (!fixture->Stats(&stats_before)) {
    std::fprintf(stderr, "stats op failed\n");
    return 1;
  }

  std::vector<std::vector<Sample>> samples(kQueryClients);
  std::vector<double> publish_ms;
  std::vector<double> late_ms;
  std::atomic<uint64_t> ok_queries{0};
  std::latch start(kQueryClients + (publishing ? 1 : 0) + 1);
  const int measure = tracer.Begin("measure", -1, 0, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kQueryClients; ++c) {
    threads.emplace_back([&, c] {
      LineClient client;
      const bool connected = client.Connect(fixture->socket_path());
      start.arrive_and_wait();
      for (size_t i = 0; i < lists[c].size(); ++i) {
        const ServeQuery& q = lists[c][i];
        // Alternate blocks of ten requests are traced (each block holds
        // the same query mix), so traced minus untraced p50 is the
        // tracing overhead on the same traffic.
        const bool traced = tracer.enabled() && (i / 10) % 2 == 0;
        const uint64_t request_id = (static_cast<uint64_t>(c) << 32) | (i + 1);
        const int span = traced ? tracer.Begin("client.query", measure,
                                               request_id, c + 1)
                                : -1;
        const uint64_t t0 = NowNs();
        std::string line;
        const bool sent = connected && client.Request(QueryLine(q.Goal()), &line);
        const uint64_t t1 = NowNs();
        tracer.End(span);
        samples[c].push_back({Ms(t1 - t0), traced});
        JsonValue v;
        std::string error;
        bool ok = sent && hilog::service::ParseJson(line, &v, &error) &&
                  v.GetString("status") == "ok";
        if (ok) {
          std::vector<std::string> answers;
          if (const JsonValue* a = v.Get("answers")) {
            for (const JsonValue& s : a->array) answers.push_back(s.string);
          }
          ok = CheckAnswer(oracle, q, v.GetUint("epoch"),
                           v.GetString("ground_status"), std::move(answers));
          if (ok) ok_queries.fetch_add(1, std::memory_order_relaxed);
        }
        result->outcomes.Attempt(ok, q.Goal() + " -> " + line.substr(0, 200));
      }
    });
  }
  if (publishing) {
    threads.emplace_back([&] {
      LineClient client;
      const bool connected = client.Connect(fixture->socket_path());
      start.arrive_and_wait();
      const uint64_t begin = NowNs();
      const uint64_t period =
          static_cast<uint64_t>(1e9 / kPublishesPerSecond);
      for (size_t k = 0; k < steps.size(); ++k) {
        // Open loop: each publish is due on a fixed schedule and is timed
        // from its due time, so a stall is charged to the publishes it
        // delays.
        const uint64_t due = begin + k * period;
        const uint64_t now = NowNs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        const uint64_t sent_at = NowNs();
        const int span = tracer.Begin("client.publish", measure, k + 1,
                                      kQueryClients + 1);
        std::string line;
        const bool sent = connected && client.Request(steps[k].Line(), &line);
        const uint64_t done = NowNs();
        tracer.End(span);
        publish_ms.push_back(Ms(done - due));
        late_ms.push_back(Ms(sent_at - due));
        JsonValue v;
        std::string error;
        const bool ok = sent && hilog::service::ParseJson(line, &v, &error) &&
                        v.GetString("status") == "ok" &&
                        v.GetUint("epoch") == base_epoch + k + 1;
        result->outcomes.Attempt(ok, "publish " + std::to_string(k) + " -> " +
                                         line.substr(0, 200));
      }
    });
  }
  start.arrive_and_wait();
  const uint64_t t_begin = NowNs();
  for (auto& t : threads) t.join();
  const double wall_s = static_cast<double>(NowNs() - t_begin) / 1e9;
  tracer.End(measure);

  JsonValue stats_after;
  const bool have_stats = fixture->Stats(&stats_after);
  result->outcomes.Attempt(have_stats, "stats op failed");
  if (have_stats) {
    // The server's own view must agree: nothing shed, errored or timed out.
    const double bad = Num(stats_after, {"shed"}) + Num(stats_after, {"errors"}) +
                       Num(stats_after, {"timeouts"}) +
                       Num(stats_after, {"rejected"});
    result->outcomes.Attempt(bad == 0, "server counted failed requests");
  }

  if (publishing) {
    // The final snapshot's model must equal a cold load of its text.
    std::shared_ptr<const hilog::service::ModelSnapshot> last =
        fixture->snapshots().Current();
    Engine cold;
    const std::string error = cold.Load(last->program_text());
    const Engine::WfsAnswer wfs = cold.SolveWellFounded();
    const PrintedModel a = Print(cold.store(), wfs.model);
    const PrintedModel b = Print(last->prototype().store(), last->wfs().model);
    result->outcomes.Attempt(
        error.empty() && wfs.ok && last->epoch() == base_epoch + steps.size() &&
            a.true_atoms == b.true_atoms &&
            a.undefined_atoms == b.undefined_atoms,
        "final snapshot differs from a cold load of its text");
  }

  std::vector<double> all;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  for (const auto& list : samples) {
    for (const Sample& s : list) {
      all.push_back(s.latency_ms);
      (s.traced ? traced_ms : untraced_ms).push_back(s.latency_ms);
    }
  }
  const double qps = ok_queries.load() / wall_s;
  const double query_p50 = Median(all);
  const double query_tail = Percentile(all, TailPercentile(all.size()));
  const double publish_tail =
      Percentile(publish_ms, TailPercentile(publish_ms.size()));
  auto& r = result->report;
  r["query_p50_ms"] = {query_p50, "ms"};
  r[TailName("query", all.size())] = {query_tail, "ms"};
  r["query_qps"] = {qps, "1/s"};
  r["query_count"] = {static_cast<double>(all.size()), "count"};
  if (publishing) {
    r["publish_p50_ms"] = {Median(publish_ms), "ms"};
    r[TailName("publish", publish_ms.size())] = {publish_tail, "ms"};
    r["publish_count"] = {static_cast<double>(publish_ms.size()), "count"};
  }
  r["setup_s"] = {Median(setup_s), "s"};
  r["peak_rss_mb"] = {PeakRssMb(), "MB"};

  if (!opt.trace) {
    auto& m = result->metrics;
    if (opt.workload == "publish_serve") {
      m["p50_ms"] = Median(publish_ms);
      m["tail_ms"] = publish_tail;
      m["throughput_per_s"] =
          publish_ms.size() / (steps.size() / kPublishesPerSecond +
                               publish_ms.back() / 1e3);
    } else {
      m["p50_ms"] = query_p50;
      m["tail_ms"] = query_tail;
      m["throughput_per_s"] = qps;
    }
    m["setup_s"] = Median(setup_s);
    m["peak_rss_mb"] = PeakRssMb();
    return 0;
  }

  // Traced: per-layer figures from the stats op, the publisher, and the
  // in-process replays.
  if (have_stats) StatsLayers(stats_before, stats_after, result);
  auto& m = result->metrics;
  m["bench.publisher_late_ms"] = publishing ? Percentile(late_ms, 90) : 0.0;
  m["trace.overhead_query_p50_ms"] = Median(traced_ms) - Median(untraced_ms);
  ReplayQueries(tracer, fixture->snapshots(), lists[0], oracle, result);
  if (publishing) ReplayPublishes(tracer, GameProgram(), steps, result);
  if (!opt.trace_out.empty() && !tracer.WriteChrome(opt.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------
// solve_programs: text -> Engine -> Load -> Analyze -> SolveWellFounded,
// in process, for a fixed program set.

struct SetCounters {
  double ops = 0;
  double interned = 0;
  double instances = 0;
  double components = 0;
  double atom_sccs = 0;
  double hits = 0;
  double compiled = 0;
  double fallback = 0;
  double probe_hits = 0;
  double index_probes = 0;
  double ground_ms = 0;
};

// Solves every case once. Returns the set's wall time in ms (engine
// construction through the solved model; teardown excluded). With a live
// tracer, each call into a layer is a span under one set span.
double SolveSet(const std::vector<SolveCase>& cases, Tracer* tracer,
                uint64_t iteration, Outcomes* outcomes, SetCounters* counters,
                bool check_digest) {
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<Engine::WfsAnswer> answers(cases.size());
  std::vector<std::string> errors(cases.size());
  Tracer off(false);
  Tracer& t = tracer != nullptr ? *tracer : off;
  const uint64_t t0 = NowNs();
  {
    ScopedSpan set(t, "solve_set", -1, iteration);
    for (size_t i = 0; i < cases.size(); ++i) {
      ScopedSpan program(t, "program." + cases[i].name, set.id(), iteration);
      {
        ScopedSpan s(t, "core.engine", program.id(), iteration);
        engines.push_back(std::make_unique<Engine>());
      }
      Engine& engine = *engines.back();
      {
        ScopedSpan s(t, "lang.load", program.id(), iteration);
        errors[i] = engine.Load(cases[i].text);
      }
      {
        ScopedSpan s(t, "analysis.analyze", program.id(), iteration);
        engine.Analyze();
      }
      ScopedSpan s(t, "wfs.solve", program.id(), iteration);
      answers[i] = engine.SolveWellFounded();
    }
  }
  const double set_ms = Ms(NowNs() - t0);
  for (size_t i = 0; i < cases.size(); ++i) {
    const Engine& engine = *engines[i];
    const Engine::WfsAnswer& a = answers[i];
    bool ok = errors[i].empty() && a.ok && a.exact;
    ok = ok && a.model.TrueAtoms().size() == cases[i].expected.true_atoms.size() &&
         a.model.UndefinedAtoms().size() ==
             cases[i].expected.undefined_atoms.size();
    if (ok && check_digest) {
      const PrintedModel printed = Print(engine.store(), a.model);
      ok = Fnv1a(printed.true_atoms) == Fnv1a(cases[i].expected.true_atoms) &&
           Fnv1a(printed.undefined_atoms) ==
               Fnv1a(cases[i].expected.undefined_atoms);
    }
    outcomes->Attempt(ok, "solve " + cases[i].name + ": " + errors[i] + a.notes);
    if (counters != nullptr) {
      const MetricsRegistry& m = engine.metrics();
      counters->ops += m.value(Counter::kKernelOpsExecuted);
      counters->interned += m.value(Counter::kTermsInterned);
      counters->instances += m.value(Counter::kGroundInstances);
      counters->components += m.value(Counter::kSchedComponents);
      counters->atom_sccs += m.value(Counter::kSchedAtomSccs);
      counters->hits += m.value(Counter::kKernelCacheHits);
      counters->compiled += m.value(Counter::kKernelProgramsCompiled);
      counters->fallback += m.value(Counter::kColFallbackTuples);
      counters->probe_hits += m.value(Counter::kColProbeHits);
      counters->index_probes += m.value(Counter::kIndexProbes);
      counters->ground_ms += Ms(PhaseNs(m, Phase::kGround));
    }
  }
  return set_ms;
}

int Solve(const Options& opt, Result* result) {
  Tracer tracer(opt.trace);
  std::vector<double> setup_s;
  std::vector<SolveCase> cases;
  for (int i = 0; i < kSetups; ++i) {
    // Setup: generate the set and its oracle, then one untimed warm-up
    // solve so allocator and caches are warm before timing.
    const uint64_t t0 = NowNs();
    Rng rng(WorkloadSeed(opt));
    cases.clear();
    cases.push_back(GameCase());
    cases.push_back(TcCase());
    cases.push_back(FirstOrderCase(rng));
    for (SolveCase& c : cases) {
      std::sort(c.expected.true_atoms.begin(), c.expected.true_atoms.end());
      std::sort(c.expected.undefined_atoms.begin(),
                c.expected.undefined_atoms.end());
    }
    Outcomes warm;
    SolveSet(cases, nullptr, 0, &warm, nullptr, /*check_digest=*/false);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  const size_t iterations = static_cast<size_t>(std::lround(opt.seconds * 3.0));
  std::vector<double> set_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::map<uint64_t, double> ground_ms;  // Traced set -> grounding phase.
  SetCounters counters;                  // Of the first set.
  const uint64_t t_begin = NowNs();
  for (size_t it = 0; it < iterations; ++it) {
    // Traced runs alternate traced and untraced sets: the difference of
    // their medians is the tracing overhead.
    const bool traced = opt.trace && it % 2 == 0;
    // The printed-model digest is checked on the first and every tenth
    // set; counts are checked on every set.
    SetCounters c;
    const double ms = SolveSet(cases, traced ? &tracer : nullptr, it + 1,
                               &result->outcomes, &c, it % 10 == 0);
    if (it == 0) counters = c;
    if (traced) ground_ms[it + 1] = c.ground_ms;
    set_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
  }
  const double wall_s = static_cast<double>(NowNs() - t_begin) / 1e9;

  // Figure 1 on its own (Analyze runs it inside), once per program.
  for (const SolveCase& c : cases) {
    Engine engine;
    engine.Load(c.text);
    ScopedSpan s(tracer, "analysis.modular");
    hilog::CheckModularHiLog(engine.store(), engine.program(),
                             engine.options().modular);
  }

  auto& r = result->report;
  const double solve_tail = Percentile(set_ms, TailPercentile(set_ms.size()));
  r["solve_ms"] = {Median(set_ms), "ms"};
  r[TailName("solve", set_ms.size())] = {solve_tail, "ms"};
  r["solve_count"] = {static_cast<double>(set_ms.size()), "count"};
  r["setup_s"] = {Median(setup_s), "s"};
  r["peak_rss_mb"] = {PeakRssMb(), "MB"};
  auto& m = result->metrics;
  if (!opt.trace) {
    m["p50_ms"] = Median(set_ms);
    m["tail_ms"] = solve_tail;
    m["throughput_per_s"] = set_ms.size() / wall_s;
    m["setup_s"] = Median(setup_s);
    m["peak_rss_mb"] = PeakRssMb();
    return 0;
  }

  // Layer self times per traced set (each layer's calls summed over the
  // set's programs), then the median over sets. The layer spans are
  // leaves except the solve, whose grounding phase timer is its child.
  std::map<uint64_t, std::map<std::string, double>> by_set;
  for (const Span& s : tracer.spans()) {
    if (s.request != 0) by_set[s.request][s.name] += Ms(s.end_ns - s.start_ns);
  }
  std::map<std::string, std::vector<double>> self;
  for (auto& [id, names] : by_set) {
    const double ground = ground_ms[id];
    self["core.engine"].push_back(names["core.engine"]);
    self["lang.load"].push_back(names["lang.load"]);
    self["analysis.analyze"].push_back(names["analysis.analyze"]);
    self["ground.ground"].push_back(ground);
    self["eval.scheduler.self"].push_back(names["wfs.solve"] - ground);
    self["sum"].push_back(names["core.engine"] + names["lang.load"] +
                          names["analysis.analyze"] + names["wfs.solve"]);
  }
  m["lang.load_ms"] = Median(self["lang.load"]);
  m["analysis.analyze_ms"] = Median(self["analysis.analyze"]);
  m["analysis.modular_ms"] = Median(tracer.DurationsMs("analysis.modular"));
  m["ground.ground_ms"] = Median(self["ground.ground"]);
  m["eval.scheduler.self_ms"] = Median(self["eval.scheduler.self"]);
  m["core.engine_ms"] = Median(self["core.engine"]);
  m["ground.instances"] = counters.instances;
  m["sched.components"] = counters.components;
  m["sched.atom_sccs"] = counters.atom_sccs;
  m["eval.kernel.ops_per_solve"] = counters.ops;
  m["term.interned_per_solve"] = counters.interned;
  m["eval.kernel.cache_hit_ratio"] =
      Ratio(counters.hits, counters.hits + counters.compiled);
  m["eval.col.fallback_share"] =
      Ratio(counters.fallback, counters.fallback + counters.probe_hits);
  m["eval.index.probes"] = counters.index_probes;
  m["trace.solve_ms"] = Median(traced_ms);
  m["trace.layer_self_sum_ms"] = Median(self["sum"]);
  m["trace.overhead_solve_ms"] = Median(traced_ms) - Median(untraced_ms);
  if (!opt.trace_out.empty() && !tracer.WriteChrome(opt.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--socket") {
      opt.socket_path = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  perfbench::Result result;
  int rc = 2;
  if (opt.workload == "solve_programs") {
    rc = perfbench::Solve(opt, &result);
  } else if (opt.workload == "serve_games" || opt.workload == "publish_serve") {
    if (opt.socket_path.empty()) {
      std::fprintf(stderr, "--socket is required for %s\n",
                   opt.workload.c_str());
      return 2;
    }
    rc = perfbench::Serve(opt, &result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  std::printf("%s\n", result.Json(opt.workload).c_str());
  return 0;
}
