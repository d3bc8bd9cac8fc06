// hilog_server — the concurrent query service over a line protocol.
//
//   ./build/examples/hilog_server [options]
//
// Options:
//   --port <n>            TCP port on 127.0.0.1 (default 7601; 0 picks an
//                         ephemeral port and prints it)
//   --unix <path>         also listen on a Unix-domain socket
//   --threads <n>         executor worker threads (default 4)
//   --queue <n>           bounded submission queue capacity (default 64)
//   --default-deadline-ms <n>  deadline applied to queries that carry none
//   --preload <file.hl>   publish this program before accepting clients
//   --no-wfs              skip the WFS solve when publishing snapshots
//   --trace <n>           per-worker trace ring capacity (default off)
//   --slow-query-ms <n>   log a structured JSON line to stderr for any
//                         request slower than n ms end to end (default off)
//   --sample-interval-ms <n>  queue-depth/inflight gauge sampler period
//                         (default 100; 0 disables)
//
// Protocol: one JSON object per line in, one per line out — see
// docs/service.md. Try it with:
//   ./build/examples/hilog_cli --client 127.0.0.1:7601

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "src/service/executor.h"
#include "src/service/server.h"
#include "src/service/snapshot.h"

namespace {

hilog::service::LineServer* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestStop();
}

}  // namespace

int main(int argc, char** argv) {
  hilog::service::ServerOptions server_options;
  server_options.port = 7601;
  hilog::service::ExecutorOptions executor_options;
  std::string preload_path;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto take_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--port") == 0) {
      server_options.port = std::atoi(take_value("--port"));
    } else if (std::strcmp(arg, "--unix") == 0) {
      server_options.unix_path = take_value("--unix");
    } else if (std::strcmp(arg, "--threads") == 0) {
      executor_options.threads =
          static_cast<size_t>(std::atoi(take_value("--threads")));
    } else if (std::strcmp(arg, "--queue") == 0) {
      executor_options.queue_capacity =
          static_cast<size_t>(std::atoi(take_value("--queue")));
    } else if (std::strcmp(arg, "--default-deadline-ms") == 0) {
      executor_options.default_deadline_ms =
          std::strtoull(take_value("--default-deadline-ms"), nullptr, 10);
    } else if (std::strcmp(arg, "--preload") == 0) {
      preload_path = take_value("--preload");
    } else if (std::strcmp(arg, "--no-wfs") == 0) {
      server_options.solve_wfs = false;
    } else if (std::strcmp(arg, "--trace") == 0) {
      executor_options.engine.trace_capacity =
          static_cast<size_t>(std::atoi(take_value("--trace")));
    } else if (std::strcmp(arg, "--slow-query-ms") == 0) {
      executor_options.slow_query_ns =
          std::strtoull(take_value("--slow-query-ms"), nullptr, 10) *
          1'000'000ull;
    } else if (std::strcmp(arg, "--sample-interval-ms") == 0) {
      server_options.sample_interval_ms =
          std::strtoull(take_value("--sample-interval-ms"), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg);
      return 2;
    }
  }

  auto snapshots = std::make_shared<hilog::service::SnapshotStore>(
      executor_options.engine);
  if (!preload_path.empty()) {
    std::ifstream file(preload_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", preload_path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    std::string error = snapshots->Publish(buffer.str(), /*append=*/false,
                                           server_options.solve_wfs);
    if (!error.empty()) {
      std::fprintf(stderr, "preload failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("preloaded %zu rule(s) from %s (epoch %llu)\n",
                snapshots->Current()->rules(), preload_path.c_str(),
                static_cast<unsigned long long>(snapshots->epoch()));
  }

  auto executor = std::make_shared<hilog::service::QueryExecutor>(
      snapshots, executor_options);
  hilog::service::LineServer server(snapshots, executor, server_options);

  std::string error = server.Start();
  if (!error.empty()) {
    std::fprintf(stderr, "start failed: %s\n", error.c_str());
    return 1;
  }

  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);

  if (server.port() >= 0) {
    std::printf("listening on 127.0.0.1:%d", server.port());
  }
  if (!server_options.unix_path.empty()) {
    std::printf("%s%s", server.port() >= 0 ? " and " : "listening on ",
                server_options.unix_path.c_str());
  }
  std::printf(" (%zu worker(s), queue %zu)\n", executor->threads(),
              executor->options().queue_capacity);
  std::fflush(stdout);

  server.Wait();
  std::puts("draining...");
  server.Stop();
  executor->Shutdown(/*drain=*/true);
  g_server = nullptr;

  const hilog::service::ServiceStats stats = executor->stats();
  std::printf("served %llu quer%s (%llu ok, %llu timeout, %llu shed)\n",
              static_cast<unsigned long long>(stats.completed),
              stats.completed == 1 ? "y" : "ies",
              static_cast<unsigned long long>(stats.ok),
              static_cast<unsigned long long>(stats.timeouts),
              static_cast<unsigned long long>(stats.shed));
  return 0;
}
