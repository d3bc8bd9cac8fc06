// Stress test for the concurrent query service, designed to run under
// ThreadSanitizer in CI: many worker threads answering many queries
// against one published snapshot (answers must equal the sequential
// engine's), deadline storms racing cancellation against completion, and
// publishers swapping epochs mid-flight (appends, and delta publishes that
// fork the prototype while workers fork it) while clients hammer the
// server over real sockets.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/service/executor.h"
#include "src/service/server.h"
#include "src/service/snapshot.h"
#include "src/service/wire.h"

namespace hilog {
namespace {

using service::ExecutorOptions;
using service::LineServer;
using service::QueryExecutor;
using service::QueryResponse;
using service::ServerOptions;
using service::ServiceStatus;
using service::SnapshotStore;

std::string WinChainSlice(int lo, int hi) {
  std::string text;
  for (int i = lo; i < hi; ++i) {
    std::string x = std::to_string(i);
    std::string y = std::to_string(i + 1);
    text += "w(n" + x + ") :- m(n" + x + ",n" + y + "), ~w(n" + y + ").\n";
    text += "m(n" + x + ",n" + y + ").\n";
  }
  return text;
}

std::string HiLogGame(int games, int positions) {
  std::string text = "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).\n";
  for (int g = 0; g < games; ++g) {
    std::string mv = "mv" + std::to_string(g);
    text += "game(" + mv + ").\n";
    for (int i = 0; i < positions; ++i) {
      text += mv + "(n" + std::to_string(i) + ",n" + std::to_string(i + 1) +
              ").\n";
    }
  }
  return text;
}

std::vector<std::string> SequentialAnswers(const std::string& program,
                                           const std::string& query) {
  Engine engine;
  EXPECT_EQ(engine.Load(program), "");
  Engine::QueryAnswer answer = engine.Query(query);
  EXPECT_TRUE(answer.ok) << query << ": " << answer.error;
  std::vector<std::string> rendered;
  for (TermId atom : answer.answers) {
    rendered.push_back(engine.store().ToString(atom));
  }
  return rendered;
}

// N worker threads x M queries each (the Example 6.1 win chain plus the
// magic-rewritten HiLog game), one snapshot, answers checked against the
// sequential engine.
TEST(ServiceStressTest, ManyThreadsManyQueriesOneSnapshot) {
  const int kChain = 32;
  const int kGames = 2;
  const int kPositions = 10;
  const std::string program =
      WinChainSlice(0, kChain) + HiLogGame(kGames, kPositions);

  std::vector<std::string> queries;
  for (int i = 0; i < kChain; ++i) {
    queries.push_back("w(n" + std::to_string(i) + ")");
  }
  for (int g = 0; g < kGames; ++g) {
    for (int i = 0; i < kPositions; ++i) {
      queries.push_back("winning(mv" + std::to_string(g) + ")(n" +
                        std::to_string(i) + ")");
    }
  }
  std::vector<std::vector<std::string>> expected;
  for (const std::string& q : queries) {
    expected.push_back(SequentialAnswers(program, q));
  }

  auto snapshots = std::make_shared<SnapshotStore>();
  ASSERT_EQ(snapshots->Publish(program, false, false), "");
  ExecutorOptions options;
  options.threads = 8;
  options.queue_capacity = 4096;
  options.engine.trace_capacity = 512;  // Exercise the trace-merge path.
  QueryExecutor executor(snapshots, options);

  const int kRounds = 8;  // kRounds * |queries| total requests.
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(kRounds * queries.size());
  for (int r = 0; r < kRounds; ++r) {
    for (const std::string& q : queries) {
      futures.push_back(executor.Submit({q, 0, {}}));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    QueryResponse got = futures[i].get();
    const size_t qi = i % queries.size();
    ASSERT_EQ(got.status, ServiceStatus::kOk)
        << queries[qi] << ": " << got.error;
    ASSERT_EQ(got.answers, expected[qi]) << queries[qi];
  }
  executor.Shutdown();
  EXPECT_EQ(executor.stats().ok, futures.size());
  // The merged registry saw every query exactly once.
  EXPECT_EQ(executor.AggregatedMetrics().value(obs::Counter::kQueries),
            futures.size());
}

// Deadline storm: short deadlines race completion on every query; each
// must resolve as ok (with the exact sequential answers) or as a clean
// timeout — never an error, never a hang, and the workers stay healthy.
TEST(ServiceStressTest, DeadlineStormNeverCorrupts) {
  const int kChain = 3000;
  const std::string program = WinChainSlice(0, kChain);
  auto snapshots = std::make_shared<SnapshotStore>();
  ASSERT_EQ(snapshots->Publish(program, false, false), "");
  ExecutorOptions options;
  options.threads = 4;
  options.queue_capacity = 4096;
  QueryExecutor executor(snapshots, options);

  // The answer near the tail is cheap and known: w(n2999) is true.
  const std::string tail_query = "w(n" + std::to_string(kChain - 1) + ")";

  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 200; ++i) {
    // Alternate expensive head-of-chain queries under a 1-2 ms deadline
    // with undeadlined cheap tail queries.
    if (i % 2 == 0) {
      futures.push_back(executor.Submit(
          {"w(n0)", static_cast<uint64_t>(1 + (i % 3)), {}}));
    } else {
      futures.push_back(executor.Submit({tail_query, 0, {}}));
    }
  }
  size_t ok = 0;
  size_t timeout = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    QueryResponse got = futures[i].get();
    if (got.status == ServiceStatus::kTimeout) {
      ++timeout;
      continue;
    }
    ASSERT_EQ(got.status, ServiceStatus::kOk) << got.error;
    ++ok;
    if (i % 2 == 1) {
      ASSERT_EQ(got.answers.size(), 1u);
      EXPECT_EQ(got.answers[0], tail_query);
    }
  }
  EXPECT_EQ(ok + timeout, futures.size());
  // All the undeadlined queries succeeded regardless of the storm.
  EXPECT_GE(ok, futures.size() / 2);
  executor.Shutdown();
}

// One socket client: sends `queries` round-robin, each awaiting its
// response, until it has sent at least 40 and `done` is set. `check` gets
// each ok response's epoch, query and answers and returns why they are
// wrong, or "". Returns the first failure, or "".
std::string QueryOverSocket(
    int port, const std::vector<std::string>& queries,
    const std::atomic<bool>& done,
    const std::function<std::string(uint64_t, const std::string&,
                                    const std::vector<std::string>&)>& check) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    return "connect failed";
  }
  std::string failure;
  std::string buffer;
  int sent_queries = 0;
  while (failure.empty() && (sent_queries < 40 || !done.load())) {
    const std::string& q = queries[sent_queries % queries.size()];
    std::string line = "{\"op\":\"query\",\"q\":\"" + q + "\"}\n";
    if (::send(fd, line.data(), line.size(), 0) < 0) {
      failure = "send failed";
      break;
    }
    while (buffer.find('\n') == std::string::npos) {
      char chunk[4096];
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        ::close(fd);
        return "recv failed";
      }
      buffer.append(chunk, static_cast<size_t>(n));
    }
    std::string response = buffer.substr(0, buffer.find('\n'));
    buffer.erase(0, buffer.find('\n') + 1);
    // Decode just enough: epoch and the answers array.
    service::JsonValue value;
    std::string error;
    if (!service::ParseJson(response, &value, &error) ||
        value.GetString("status") != "ok") {
      failure = "bad response: " + response;
      break;
    }
    std::vector<std::string> answers;
    if (const service::JsonValue* arr = value.Get("answers")) {
      for (const service::JsonValue& a : arr->array) {
        answers.push_back(a.string);
      }
    }
    failure = check(value.GetUint("epoch"), q, answers);
    ++sent_queries;
  }
  ::close(fd);
  return failure;
}

// Publisher swaps epochs while socket clients hammer the server; every
// response must carry answers consistent with the epoch it reports.
TEST(ServiceStressTest, ServerEpochSwapUnderClientLoad) {
  const int kBase = 10;
  const int kSteps = 3;
  const int kPerStep = 4;
  auto snapshots = std::make_shared<SnapshotStore>();
  ASSERT_EQ(snapshots->Publish(WinChainSlice(0, kBase), false, false), "");
  // programs[e-1] is the text at epoch e.
  std::vector<std::string> programs;
  for (int s = 0; s <= kSteps; ++s) {
    programs.push_back(WinChainSlice(0, kBase + s * kPerStep));
  }
  // expected[e-1][q]: sequential answers per epoch for the base queries.
  std::vector<std::map<std::string, std::vector<std::string>>> expected(
      programs.size());
  std::vector<std::string> queries;
  for (int i = 0; i < kBase; ++i) {
    queries.push_back("w(n" + std::to_string(i) + ")");
  }
  for (size_t e = 0; e < programs.size(); ++e) {
    for (const std::string& q : queries) {
      expected[e][q] = SequentialAnswers(programs[e], q);
    }
  }

  ExecutorOptions options;
  options.threads = 4;
  options.queue_capacity = 1024;
  auto executor = std::make_shared<QueryExecutor>(snapshots, options);
  ServerOptions server_options;
  server_options.port = 0;
  server_options.solve_wfs = false;
  LineServer server(snapshots, executor, server_options);
  ASSERT_EQ(server.Start(), "");

  std::atomic<bool> publishing_done{false};
  std::thread publisher([&] {
    for (int s = 1; s <= kSteps; ++s) {
      std::string slice =
          WinChainSlice(kBase + (s - 1) * kPerStep, kBase + s * kPerStep);
      ASSERT_EQ(snapshots->Publish(slice, /*append=*/true, false), "");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    publishing_done.store(true);
  });

  const int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      failures[c] = QueryOverSocket(
          server.port(), queries, publishing_done,
          [&](uint64_t epoch, const std::string& q,
              const std::vector<std::string>& answers) -> std::string {
            if (epoch < 1 || epoch > programs.size()) {
              return "epoch out of range: " + std::to_string(epoch);
            }
            if (answers != expected[epoch - 1][q]) {
              return "answers inconsistent with epoch " +
                     std::to_string(epoch) + " for " + q;
            }
            return "";
          });
    });
  }
  for (auto& t : clients) t.join();
  publisher.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
  server.Stop();
  executor->Shutdown();
  EXPECT_GE(executor->stats().ok, static_cast<uint64_t>(kClients * 40));
}

// A publisher runs 40 delta publishes, alternately retracting and
// re-adding the chain's last move, while socket clients query. Each
// publish forks the current prototype while workers fork it too; every
// answer must match the parity of the epoch it reports.
TEST(ServiceStressTest, ServerDeltaPublishesUnderClientLoad) {
  const int kChain = 10;
  const int kDeltas = 40;
  const std::string program = WinChainSlice(0, kChain);
  const std::string last_move = "m(n9,n10).";
  std::string retracted = program;
  retracted.erase(retracted.find(last_move), last_move.size() + 1);
  std::vector<std::string> queries;
  for (int i = 0; i < kChain; ++i) {
    queries.push_back("w(n" + std::to_string(i) + ")");
  }
  // expected[0] holds at odd epochs (the move present), expected[1] at
  // even ones (the move retracted).
  std::map<std::string, std::vector<std::string>> expected[2];
  for (const std::string& q : queries) {
    expected[0][q] = SequentialAnswers(program, q);
    expected[1][q] = SequentialAnswers(retracted, q);
  }

  auto snapshots = std::make_shared<SnapshotStore>();
  ASSERT_EQ(snapshots->Publish(program, false, true), "");
  ExecutorOptions options;
  options.threads = 4;
  options.queue_capacity = 1024;
  auto executor = std::make_shared<QueryExecutor>(snapshots, options);
  ServerOptions server_options;
  server_options.port = 0;
  LineServer server(snapshots, executor, server_options);
  ASSERT_EQ(server.Start(), "");

  std::atomic<bool> publishing_done{false};
  std::thread publisher([&] {
    for (int d = 0; d < kDeltas; ++d) {
      const bool retract = d % 2 == 0;
      EXPECT_EQ(snapshots->PublishDelta(retract ? "" : last_move + "\n",
                                        retract ? last_move : "",
                                        /*solve_wfs=*/true),
                "");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    publishing_done.store(true);
  });

  const int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      failures[c] = QueryOverSocket(
          server.port(), queries, publishing_done,
          [&](uint64_t epoch, const std::string& q,
              const std::vector<std::string>& answers) -> std::string {
            if (epoch < 1 || epoch > kDeltas + 1) {
              return "epoch out of range: " + std::to_string(epoch);
            }
            if (answers != expected[(epoch - 1) % 2][q]) {
              return "answers inconsistent with epoch " +
                     std::to_string(epoch) + " for " + q;
            }
            return "";
          });
    });
  }
  for (auto& t : clients) t.join();
  publisher.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
  server.Stop();
  executor->Shutdown();
  EXPECT_EQ(snapshots->epoch(), static_cast<uint64_t>(kDeltas + 1));
  EXPECT_GE(executor->stats().ok, static_cast<uint64_t>(kClients * 40));
}

}  // namespace
}  // namespace hilog
