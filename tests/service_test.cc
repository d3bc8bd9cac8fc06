// Tests for the concurrent query service (src/service): cooperative
// cancellation tokens, snapshot publishing/epoch swap, the thread-pool
// executor (correctness vs the sequential engine, deadlines, overload
// shedding, drain), the wire protocol, and an end-to-end socket run with
// concurrent clients whose response lines must be byte-identical to the
// sequential encoding.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "random_programs.h"
#include "src/core/engine.h"
#include "src/eval/cancel.h"
#include "src/obs/metrics.h"
#include "src/service/executor.h"
#include "src/service/server.h"
#include "src/service/snapshot.h"
#include "src/service/wire.h"

namespace hilog {
namespace {

using service::EngineSession;
using service::ExecutorOptions;
using service::LineServer;
using service::ModelSnapshot;
using service::QueryExecutor;
using service::QueryRequest;
using service::QueryResponse;
using service::ServerOptions;
using service::ServiceStats;
using service::ServiceStatus;
using service::SnapshotStore;
using service::WireRequest;

// The ground win/move chain for positions [lo, hi) — Example 6.1's game.
// Appending the [n, m) slice to the [0, n) slice equals the full [0, m)
// program, which is how the epoch-swap tests extend a live program.
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

// What the service must reproduce: the sequential engine's rendered
// answer set for `query` on `program`.
QueryResponse SequentialResponse(const std::string& program,
                                 const std::string& query, uint64_t epoch) {
  Engine engine;
  EXPECT_EQ(engine.Load(program), "");
  Engine::QueryAnswer answer = engine.Query(query);
  QueryResponse response;
  response.epoch = epoch;
  if (!answer.ok) {
    response.status = ServiceStatus::kError;
    response.error = answer.error;
    return response;
  }
  response.status = ServiceStatus::kOk;
  for (TermId atom : answer.answers) {
    response.answers.push_back(engine.store().ToString(atom));
  }
  response.ground_status = answer.ground_status;
  for (TermId atom : answer.unsettled_negative_calls) {
    response.unsettled_negative_calls.push_back(
        engine.store().ToString(atom));
  }
  response.facts_derived = answer.facts_derived;
  return response;
}

TEST(CancelTokenTest, CancelLatchesFirstReason) {
  CancelToken token;
  EXPECT_FALSE(token.tripped());
  EXPECT_EQ(token.Poll(), CancelReason::kNone);
  token.Cancel();
  EXPECT_TRUE(token.tripped());
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
  // A later deadline trip cannot overwrite the latched reason.
  token.SetDeadlineNs(1);
  EXPECT_EQ(token.Poll(), CancelReason::kCancelled);
}

TEST(CancelTokenTest, DeadlinePollTrips) {
  CancelToken token;
  token.SetDeadlineNs(obs::NowNs() - 1);  // Already in the past.
  EXPECT_EQ(token.Poll(), CancelReason::kDeadline);
  EXPECT_TRUE(token.tripped());
}

TEST(CancelTokenTest, FarDeadlineDoesNotTrip) {
  CancelToken token;
  token.SetDeadlineNs(obs::NowNs() + 60ull * 1'000'000'000);
  EXPECT_EQ(token.Poll(), CancelReason::kNone);
}

TEST(CancelTokenTest, CancelRequestedNeedsInstalledToken) {
  EXPECT_FALSE(CancelRequested());  // No token: the cheap path.
  CancelToken token;
  {
    ScopedCancelToken scope(&token);
    EXPECT_FALSE(CancelRequested());
    token.Cancel();
    EXPECT_TRUE(CancelRequested());
  }
  EXPECT_FALSE(CancelRequested());  // Restored on scope exit.
}

TEST(EngineCancelTest, PreCancelledTokenStopsQuery) {
  Engine engine;
  ASSERT_EQ(engine.Load(WinChainSlice(0, 64)), "");
  CancelToken token;
  token.Cancel();
  ScopedCancelToken scope(&token);
  Engine::QueryAnswer answer = engine.Query("w(n0)");
  EXPECT_FALSE(answer.ok);
  EXPECT_TRUE(answer.cancelled);
  EXPECT_EQ(answer.error, "query cancelled");
}

TEST(EngineCancelTest, DeadlineStopsLongQuery) {
  Engine engine;
  // A chain long enough that walking it from the head takes well over
  // the 1 ms deadline even on a fast machine.
  ASSERT_EQ(engine.Load(WinChainSlice(0, 20000)), "");
  CancelToken token;
  token.SetDeadlineNs(obs::NowNs() + 1'000'000);
  ScopedCancelToken scope(&token);
  Engine::QueryAnswer answer = engine.Query("w(n0)");
  EXPECT_FALSE(answer.ok);
  EXPECT_TRUE(answer.cancelled);
  EXPECT_EQ(answer.error, "deadline exceeded");
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
}

TEST(EngineCancelTest, TabledProofRespectsToken) {
  Engine engine;
  ASSERT_EQ(engine.Load("t(X,Y) :- e(X,Y).\n"
                        "t(X,Y) :- e(X,Z), t(Z,Y).\n"
                        "e(a,b). e(b,c). e(c,a).\n"),
            "");
  CancelToken token;
  token.Cancel();
  ScopedCancelToken scope(&token);
  TabledResult result = engine.ProveTabled("t(a,X)");
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.complete);
}

TEST(EngineCancelTest, NoTokenMeansNoChange) {
  Engine engine;
  ASSERT_EQ(engine.Load(WinChainSlice(0, 8)), "");
  Engine::QueryAnswer answer = engine.Query("w(n1)");
  EXPECT_TRUE(answer.ok);
  EXPECT_FALSE(answer.cancelled);
  EXPECT_EQ(answer.answers.size(), 1u);
}

TEST(SnapshotStoreTest, StartsEmptyAtEpochZero) {
  SnapshotStore store;
  auto snapshot = store.Current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->epoch(), 0u);
  EXPECT_EQ(snapshot->rules(), 0u);
  EXPECT_FALSE(snapshot->has_wfs());
}

TEST(SnapshotStoreTest, PublishReplacesAndAppendExtends) {
  SnapshotStore store;
  ASSERT_EQ(store.Publish(WinChainSlice(0, 4), /*append=*/false,
                          /*solve_wfs=*/true),
            "");
  auto first = store.Current();
  EXPECT_EQ(first->epoch(), 1u);
  EXPECT_EQ(first->rules(), 8u);  // 4 rules + 4 move facts.
  ASSERT_TRUE(first->has_wfs());
  EXPECT_TRUE(first->wfs().ok);

  ASSERT_EQ(store.Publish(WinChainSlice(4, 6), /*append=*/true,
                          /*solve_wfs=*/true),
            "");
  auto second = store.Current();
  EXPECT_EQ(second->epoch(), 2u);
  EXPECT_EQ(second->rules(), 12u);
  // The old snapshot is immutable and still fully usable: epoch swap
  // never invalidates in-flight readers.
  EXPECT_EQ(first->epoch(), 1u);
  EXPECT_EQ(first->rules(), 8u);
}

// Satellite: an append publish seeds the new snapshot's prototype from
// the previous one — the fork inherits the settled-component cache, so
// the publish-time solve replays the untouched components instead of
// recomputing them, and the model still matches a cold build exactly.
TEST(SnapshotStoreTest, AppendPublishSeedsPrototypeFromPrevious) {
  SnapshotStore store;
  ASSERT_EQ(store.Publish(WinChainSlice(0, 6), /*append=*/false,
                          /*solve_wfs=*/true),
            "");
  auto first = store.Current();
  EXPECT_FALSE(first->seeded());  // Nothing published before it.
  EXPECT_EQ(
      first->prototype().metrics().value(obs::Counter::kSchedComponentsReused),
      0u);

  // Append rules for an unrelated predicate: the chain's components are
  // untouched, so their signatures — and cache entries — survive.
  ASSERT_EQ(store.Publish("edge(a,b). edge(b,c).\n"
                          "reach(X,Y) :- edge(X,Y).\n"
                          "reach(X,Z) :- reach(X,Y), edge(Y,Z).\n",
                          /*append=*/true,
                          /*solve_wfs=*/true),
            "");
  auto second = store.Current();
  EXPECT_TRUE(second->seeded());
  ASSERT_TRUE(second->has_wfs());
  EXPECT_TRUE(second->wfs().ok);
  // The forked prototype replayed the first snapshot's settled
  // components from the inherited cache.
  EXPECT_GT(
      second->prototype().metrics().value(
          obs::Counter::kSchedComponentsReused),
      0u);

  // Seeding must not change the model: a cold engine over the full text
  // agrees atom for atom.
  Engine cold;
  ASSERT_EQ(cold.Load(second->program_text()), "");
  Engine::WfsAnswer reference = cold.SolveWellFounded();
  ASSERT_TRUE(reference.ok);
  EXPECT_EQ(second->wfs().model.TrueAtoms().size(),
            reference.model.TrueAtoms().size());

  // A replacing publish starts from scratch.
  ASSERT_EQ(store.Publish(WinChainSlice(0, 3), /*append=*/false,
                          /*solve_wfs=*/true),
            "");
  EXPECT_FALSE(store.Current()->seeded());
}

// Tentpole: a delta publish forks the current prototype, applies the
// retraction/addition in place (DRed maintenance at publish time), and
// serves a composed program text whose cold Load is byte-identical to
// the maintained model.
TEST(SnapshotStoreTest, PublishDeltaMaintainsAndComposesText) {
  SnapshotStore store;
  ASSERT_EQ(store.Publish(WinChainSlice(0, 6), /*append=*/false,
                          /*solve_wfs=*/true),
            "");
  EXPECT_EQ(store.full_rebuilds(), 1u);
  EXPECT_EQ(store.delta_builds(), 0u);

  // Retract the last move (flips the chain's winning parity) and add an
  // unrelated island in the same delta.
  ASSERT_EQ(store.PublishDelta("p(a).\nq(X) :- p(X).\n", "m(n5,n6).",
                               /*solve_wfs=*/true),
            "");
  auto snapshot = store.Current();
  EXPECT_EQ(snapshot->epoch(), 2u);
  EXPECT_TRUE(snapshot->seeded());
  EXPECT_EQ(snapshot->rules(), 13u);  // 12 - 1 retracted + 2 added.
  EXPECT_EQ(store.delta_builds(), 1u);
  EXPECT_EQ(store.full_rebuilds(), 1u);
  // The composed text no longer carries the retracted fact statement.
  EXPECT_EQ(snapshot->program_text().find("m(n5,n6).\n"), std::string::npos);

  // Byte-identity of the served model against a cold build.
  ASSERT_TRUE(snapshot->has_wfs());
  Engine cold;
  ASSERT_EQ(cold.Load(snapshot->program_text()), "");
  Engine::WfsAnswer reference = cold.SolveWellFounded();
  ASSERT_TRUE(reference.ok);
  auto rendered = [](const Engine& engine, const std::vector<TermId>& atoms) {
    std::vector<std::string> out;
    for (TermId atom : atoms) out.push_back(engine.store().ToString(atom));
    return out;
  };
  EXPECT_EQ(rendered(snapshot->prototype(),
                     snapshot->wfs().model.TrueAtoms()),
            rendered(cold, reference.model.TrueAtoms()));
  EXPECT_EQ(rendered(snapshot->prototype(),
                     snapshot->wfs().model.UndefinedAtoms()),
            rendered(cold, reference.model.UndefinedAtoms()));

  // A bad delta (absent fact) publishes nothing.
  auto before = store.Current();
  EXPECT_NE(store.PublishDelta("", "m(n77,n78).", /*solve_wfs=*/false), "");
  EXPECT_EQ(store.Current().get(), before.get());
  EXPECT_EQ(store.delta_builds(), 1u);
}

TEST(SnapshotStoreTest, PublishErrorLeavesCurrentUnchanged) {
  SnapshotStore store;
  ASSERT_EQ(store.Publish(WinChainSlice(0, 2), false, false), "");
  auto before = store.Current();
  EXPECT_NE(store.Publish("this is not ( valid", /*append=*/true,
                          /*solve_wfs=*/false),
            "");
  EXPECT_EQ(store.Current().get(), before.get());
  EXPECT_EQ(store.epoch(), 1u);
}

TEST(EngineSessionTest, MaterializeIsNoOpWithinEpoch) {
  SnapshotStore store;
  ASSERT_EQ(store.Publish(WinChainSlice(0, 4), false, false), "");
  EngineSession session;
  EXPECT_FALSE(session.materialized());
  ASSERT_EQ(session.Materialize(*store.Current()), "");
  ASSERT_TRUE(session.materialized());
  Engine* engine_before = &session.engine();
  EXPECT_EQ(session.epoch(), 1u);

  // Same epoch: the warmed engine (term store, EDB caches) is kept.
  ASSERT_EQ(session.Materialize(*store.Current()), "");
  EXPECT_EQ(&session.engine(), engine_before);

  ASSERT_EQ(store.Publish(WinChainSlice(4, 6), true, false), "");
  ASSERT_EQ(session.Materialize(*store.Current()), "");
  EXPECT_EQ(session.epoch(), 2u);
  EXPECT_EQ(session.engine().program().size(), 12u);
}

// A delta publish solves its fork of the previous prototype; a session
// then forks that solved prototype. The session's first solve builds no
// plan and replays every component, and its answers equal a cold load's.
TEST(EngineSessionTest, MaterializeForksSolvedDeltaPrototype) {
  SnapshotStore store;
  ASSERT_EQ(store.Publish(WinChainSlice(0, 6), false, /*solve_wfs=*/true),
            "");
  EngineSession session;
  session.Materialize(*store.Current());

  ASSERT_EQ(store.PublishDelta("p(a).", "m(n5,n6).", /*solve_wfs=*/true), "");
  auto snapshot = store.Current();
  session.Materialize(*snapshot);
  EXPECT_EQ(session.epoch(), 2u);
  EXPECT_EQ(session.engine().program().size(), 12u);  // 12 - 1 + 1.
  Engine::WfsAnswer forked = session.engine().SolveWellFounded();
  ASSERT_TRUE(forked.ok) << forked.notes;
  EXPECT_EQ(
      session.engine().metrics().value(obs::Counter::kSchedPlansBuilt), 0u);
  EXPECT_EQ(forked.sched.components, 0u);

  Engine cold;
  ASSERT_EQ(cold.Load(snapshot->program_text()), "");
  Engine::WfsAnswer reference = cold.SolveWellFounded();
  ASSERT_TRUE(reference.ok) << reference.notes;
  EXPECT_GT(reference.sched.components, 0u);
  EXPECT_EQ(forked.sched.components_reused, reference.sched.components);
  auto rendered = [](const Engine& engine, const std::vector<TermId>& atoms) {
    std::vector<std::string> out;
    for (TermId atom : atoms) out.push_back(engine.store().ToString(atom));
    return out;
  };
  EXPECT_EQ(rendered(session.engine(), forked.model.TrueAtoms()),
            rendered(cold, reference.model.TrueAtoms()));
  Engine::QueryAnswer served = session.engine().Query("w(X)");
  Engine::QueryAnswer loaded = cold.Query("w(X)");
  ASSERT_TRUE(served.ok && loaded.ok);
  EXPECT_EQ(rendered(session.engine(), served.answers),
            rendered(cold, loaded.answers));
}

// Every field of a query answer that the wire carries, in order.
std::string RenderedQuery(Engine& engine, const std::string& query) {
  Engine::QueryAnswer answer = engine.Query(query);
  if (!answer.ok) return "error: " + answer.error;
  std::string out = service::QueryStatusWireName(answer.ground_status);
  out += " |";
  for (TermId atom : answer.answers) {
    out += ' ';
    out += engine.store().ToString(atom);
  }
  out += " | unsettled";
  for (TermId atom : answer.unsettled_negative_calls) {
    out += ' ';
    out += engine.store().ToString(atom);
  }
  out += " | derived ";
  out += std::to_string(answer.facts_derived);
  return out;
}

// One program's epochs for the fork-versus-cold-load check: six deltas
// alternately retract and re-add `fact`, an append publish adds
// `appended`, and a replacing publish installs `replacement`.
struct EpochScript {
  std::string name;
  std::string program;
  std::string fact;
  std::string appended;
  std::string replacement;
  std::vector<std::string> queries;
};

// At every epoch the session's fork answers each query exactly as a cold
// Load of the snapshot's text does, and holds exactly the prototype's
// terms: nothing that the session's earlier epochs interned.
void ExpectForkMatchesColdLoad(const EpochScript& script, bool solve_wfs) {
  SCOPED_TRACE(script.name + (solve_wfs ? ", solved" : ", unsolved"));
  SnapshotStore store;
  EngineSession session;
  auto check_epoch = [&] {
    std::shared_ptr<const ModelSnapshot> snapshot = store.Current();
    session.Materialize(*snapshot);
    ASSERT_EQ(session.epoch(), snapshot->epoch());
    EXPECT_EQ(session.engine().store().size(),
              snapshot->prototype().store().size())
        << "epoch " << snapshot->epoch();
    Engine cold;
    ASSERT_EQ(cold.Load(snapshot->program_text()), "");
    for (const std::string& query : script.queries) {
      EXPECT_EQ(RenderedQuery(session.engine(), query),
                RenderedQuery(cold, query))
          << "epoch " << snapshot->epoch() << ", query " << query;
    }
  };
  ASSERT_EQ(store.Publish(script.program, false, solve_wfs), "");
  check_epoch();
  for (int step = 0; step < 6; ++step) {
    const bool retract = step % 2 == 0;
    ASSERT_EQ(store.PublishDelta(retract ? "" : script.fact + "\n",
                                 retract ? script.fact : "", solve_wfs),
              "");
    check_epoch();
  }
  ASSERT_EQ(store.Publish(script.appended, /*append=*/true, solve_wfs), "");
  check_epoch();
  ASSERT_EQ(store.Publish(script.replacement, /*append=*/false, solve_wfs),
            "");
  check_epoch();
}

// The first statement of `text` that starts with `prefix`, through its
// closing period.
std::string FirstStatement(const std::string& text, const std::string& prefix) {
  const size_t at = text.compare(0, prefix.size(), prefix) == 0
                        ? 0
                        : text.find("\n" + prefix) + 1;
  return text.substr(at, text.find('.', at) + 1 - at);
}

TEST(EngineSessionTest, ForkMatchesColdLoadAcrossEpochs) {
  std::vector<EpochScript> scripts;
  scripts.push_back({"win chain", WinChainSlice(0, 8), "m(n7,n8).",
                     WinChainSlice(8, 10), WinChainSlice(0, 5),
                     {"w(X)", "w(n0)", "w(n3)", "m(n7,X)", "m(X,Y)"}});
  for (unsigned seed = 1; seed <= 3; ++seed) {
    const std::string program = testing::RandomGameProgram(seed, seed == 2);
    scripts.push_back(
        {"game seed " + std::to_string(seed), program,
         FirstStatement(program, "mv0(n0,"),
         "game(mv9).\nmv9(n0,n1).\nmv9(n1,n2).\n",
         testing::RandomGameProgram(seed + 50, seed != 2),
         {"winning(mv0)(X)", "winning(mv0)(n0)", "winning(mv1)(n1)",
          "winning(M)(n0)", "winning(M)(X)", "game(M)", "mv0(n0,X)"}});
  }
  for (unsigned seed = 1; seed <= 3; ++seed) {
    const std::string program = testing::RandomVariableHeadProgram(seed);
    scripts.push_back({"variable heads seed " + std::to_string(seed),
                       program, FirstStatement(program, "sel("),
                       "sel(q).\nq(b).\n",
                       testing::RandomVariableHeadProgram(seed + 50),
                       {"t0(Y)", "t1(a)", "t2(Y)", "p(Y)", "sel(X)", "X(c)",
                        "h(X)(Y)"}});
  }
  for (const EpochScript& script : scripts) {
    ExpectForkMatchesColdLoad(script, /*solve_wfs=*/false);
    ExpectForkMatchesColdLoad(script, /*solve_wfs=*/true);
  }
}

// The core tentpole claim: concurrent answers are byte-identical to the
// sequential engine, across both a normal and a genuinely HiLog program.
TEST(QueryExecutorTest, ConcurrentAnswersMatchSequential) {
  const std::string program = WinChainSlice(0, 24) + HiLogGame(2, 8);
  auto snapshots = std::make_shared<SnapshotStore>();
  ASSERT_EQ(snapshots->Publish(program, false, false), "");

  std::vector<std::string> queries;
  for (int i = 0; i < 24; ++i) {
    queries.push_back("w(n" + std::to_string(i) + ")");
  }
  for (int g = 0; g < 2; ++g) {
    for (int i = 0; i < 8; ++i) {
      queries.push_back("winning(mv" + std::to_string(g) + ")(n" +
                        std::to_string(i) + ")");
    }
  }

  ExecutorOptions options;
  options.threads = 4;
  options.queue_capacity = queries.size() * 3;
  QueryExecutor executor(snapshots, options);

  std::vector<std::future<QueryResponse>> futures;
  for (int round = 0; round < 3; ++round) {
    for (const std::string& q : queries) {
      futures.push_back(executor.Submit({q, 0, {}}));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    QueryResponse got = futures[i].get();
    const std::string& q = queries[i % queries.size()];
    ASSERT_EQ(got.status, ServiceStatus::kOk) << q << ": " << got.error;
    QueryResponse want = SequentialResponse(program, q, /*epoch=*/1);
    EXPECT_EQ(got.answers, want.answers) << q;
    EXPECT_EQ(got.ground_status, want.ground_status) << q;
    EXPECT_EQ(got.facts_derived, want.facts_derived) << q;
    EXPECT_EQ(got.epoch, 1u);
  }
  executor.Shutdown();
  ServiceStats stats = executor.stats();
  EXPECT_EQ(stats.ok, futures.size());
  EXPECT_EQ(stats.completed, futures.size());
}

TEST(QueryExecutorTest, DeadlineTimesOutWithoutCorruptingSnapshot) {
  auto snapshots = std::make_shared<SnapshotStore>();
  ASSERT_EQ(snapshots->Publish(WinChainSlice(0, 8000), false, false), "");
  ExecutorOptions options;
  options.threads = 2;
  QueryExecutor executor(snapshots, options);

  QueryResponse timed_out = executor.Execute({"w(n0)", /*deadline_ms=*/1, {}});
  EXPECT_EQ(timed_out.status, ServiceStatus::kTimeout);
  EXPECT_EQ(timed_out.error, "deadline exceeded");

  // The snapshot (and the worker that hit the deadline) still serve
  // correct answers afterwards: run enough queries to hit every worker.
  // w(n7999) is true (its successor has no move), so one answer.
  for (int i = 0; i < 4; ++i) {
    QueryResponse ok = executor.Execute({"w(n7999)", 0, {}});
    ASSERT_EQ(ok.status, ServiceStatus::kOk) << ok.error;
    ASSERT_EQ(ok.answers.size(), 1u);
    EXPECT_EQ(ok.answers[0], "w(n7999)");
  }
  executor.Shutdown();
  EXPECT_GE(executor.stats().timeouts, 1u);
}

TEST(QueryExecutorTest, CallerTokenMapsToCancelled) {
  auto snapshots = std::make_shared<SnapshotStore>();
  ASSERT_EQ(snapshots->Publish(WinChainSlice(0, 2000), false, false), "");
  ExecutorOptions options;
  options.threads = 1;
  QueryExecutor executor(snapshots, options);
  auto token = std::make_shared<CancelToken>();
  token->Cancel();  // Cancelled before it even runs.
  QueryResponse response = executor.Execute({"w(n0)", 0, token});
  EXPECT_EQ(response.status, ServiceStatus::kCancelled);
  executor.Shutdown();
  EXPECT_EQ(executor.stats().cancelled, 1u);
}

TEST(QueryExecutorTest, FullQueueShedsWithOverloaded) {
  auto snapshots = std::make_shared<SnapshotStore>();
  // A head-of-chain query on a 300-position chain costs ~100 ms — eons
  // next to the microsecond submission burst, so shedding is guaranteed.
  ASSERT_EQ(snapshots->Publish(WinChainSlice(0, 300), false, false), "");
  ExecutorOptions options;
  options.threads = 1;
  options.queue_capacity = 2;
  QueryExecutor executor(snapshots, options);

  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(executor.Submit({"w(n0)", 0, {}}));
  }
  size_t ok = 0;
  size_t shed = 0;
  for (auto& future : futures) {
    QueryResponse response = future.get();
    if (response.status == ServiceStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(response.status, ServiceStatus::kOverloaded);
      EXPECT_EQ(response.error, "submission queue full");
      ++shed;
    }
  }
  // With one worker, a capacity-2 queue, and a burst of 32 nontrivial
  // queries, shedding is guaranteed; every request resolved either way.
  EXPECT_GT(shed, 0u);
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(ok + shed, 32u);
  executor.Shutdown();
  ServiceStats stats = executor.stats();
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.submitted, 32u);
  EXPECT_LE(stats.max_queue_depth, 2u);
}

TEST(QueryExecutorTest, DrainShutdownCompletesQueuedWork) {
  auto snapshots = std::make_shared<SnapshotStore>();
  ASSERT_EQ(snapshots->Publish(WinChainSlice(0, 64), false, false), "");
  ExecutorOptions options;
  options.threads = 1;
  options.queue_capacity = 64;
  QueryExecutor executor(snapshots, options);
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(executor.Submit({"w(n1)", 0, {}}));
  }
  executor.Shutdown(/*drain=*/true);
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status, ServiceStatus::kOk);
  }
  // Post-shutdown submissions are rejected, not queued.
  QueryResponse late = executor.Execute({"w(n1)", 0, {}});
  EXPECT_EQ(late.status, ServiceStatus::kShutdown);
}

TEST(QueryExecutorTest, AbortShutdownResolvesQueuedWithShutdown) {
  auto snapshots = std::make_shared<SnapshotStore>();
  ASSERT_EQ(snapshots->Publish(WinChainSlice(0, 300), false, false), "");
  ExecutorOptions options;
  options.threads = 1;
  options.queue_capacity = 64;
  QueryExecutor executor(snapshots, options);
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(executor.Submit({"w(n0)", 0, {}}));
  }
  executor.Shutdown(/*drain=*/false);
  size_t abandoned = 0;
  for (auto& future : futures) {
    QueryResponse response = future.get();
    if (response.status == ServiceStatus::kShutdown) ++abandoned;
  }
  // The worker may have finished a prefix, but everything still queued
  // resolved as kShutdown instead of hanging.
  EXPECT_EQ(abandoned + executor.stats().completed, 16u);
}

TEST(QueryExecutorTest, EpochSwapMidFlightServesPerEpochAnswers) {
  // Publisher extends the chain while queries are in flight. Extending
  // the chain flips win/lose parity for existing positions, so each
  // response must match the sequential answer *for its epoch* — a
  // response pairing an answer with the wrong epoch fails the test.
  const int kBase = 8;
  const int kSteps = 4;
  const int kPerStep = 4;
  auto snapshots = std::make_shared<SnapshotStore>();
  ASSERT_EQ(snapshots->Publish(WinChainSlice(0, kBase), false, false), "");
  std::vector<std::string> programs(kSteps + 1);
  programs[0] = WinChainSlice(0, kBase);
  for (int s = 1; s <= kSteps; ++s) {
    programs[s] = WinChainSlice(0, kBase + s * kPerStep);
  }

  ExecutorOptions options;
  options.threads = 4;
  options.queue_capacity = 1024;
  QueryExecutor executor(snapshots, options);

  std::atomic<bool> done{false};
  std::thread publisher([&] {
    for (int s = 1; s <= kSteps; ++s) {
      std::string slice =
          WinChainSlice(kBase + (s - 1) * kPerStep, kBase + s * kPerStep);
      ASSERT_EQ(snapshots->Publish(slice, /*append=*/true, false), "");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    done.store(true);
  });

  std::vector<std::pair<std::string, std::future<QueryResponse>>> inflight;
  int i = 0;
  while (!done.load() || i < 64) {
    std::string q = "w(n" + std::to_string(i % kBase) + ")";
    inflight.emplace_back(q, executor.Submit({q, 0, {}}));
    ++i;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  publisher.join();

  for (auto& [q, future] : inflight) {
    QueryResponse got = future.get();
    ASSERT_EQ(got.status, ServiceStatus::kOk) << q << ": " << got.error;
    ASSERT_LE(got.epoch, static_cast<uint64_t>(kSteps + 1));
    ASSERT_GE(got.epoch, 1u);
    QueryResponse want =
        SequentialResponse(programs[got.epoch - 1], q, got.epoch);
    EXPECT_EQ(got.answers, want.answers)
        << q << " at epoch " << got.epoch;
  }
  executor.Shutdown();
}

// A worker forks once per epoch, and each fork is one `load` phase call
// in the merged registry: the count a client reads to know that every
// worker holds the current epoch.
TEST(QueryExecutorTest, EachEpochForkIsOneLoadPhase) {
  auto snapshots = std::make_shared<SnapshotStore>();
  ExecutorOptions options;
  options.threads = 1;
  QueryExecutor executor(snapshots, options);
  ASSERT_EQ(snapshots->Publish(WinChainSlice(0, 6), false, true), "");
  EXPECT_EQ(executor.Execute({"w(n0)", 0, {}}).status, ServiceStatus::kOk);
  EXPECT_EQ(executor.Execute({"w(n1)", 0, {}}).status, ServiceStatus::kOk);
  ASSERT_EQ(snapshots->PublishDelta("", "m(n5,n6).", true), "");
  EXPECT_EQ(executor.Execute({"w(n0)", 0, {}}).status, ServiceStatus::kOk);
  ASSERT_EQ(snapshots->Publish(WinChainSlice(6, 8), true, true), "");
  EXPECT_EQ(executor.Execute({"w(n0)", 0, {}}).status, ServiceStatus::kOk);
  executor.Shutdown();
  EXPECT_EQ(executor.AggregatedMetrics().phase(obs::Phase::kLoad).calls, 3u);
}

TEST(QueryExecutorTest, AggregatesPerQueryMetricsAcrossWorkers) {
  auto snapshots = std::make_shared<SnapshotStore>();
  ASSERT_EQ(snapshots->Publish(WinChainSlice(0, 16), false, false), "");
  ExecutorOptions options;
  options.threads = 3;
  options.engine.trace_capacity = 1024;
  QueryExecutor executor(snapshots, options);
  const int kQueries = 30;
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < kQueries; ++i) {
    futures.push_back(
        executor.Submit({"w(n" + std::to_string(i % 16) + ")", 0, {}}));
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.get().status, ServiceStatus::kOk);
  }
  obs::MetricsRegistry merged = executor.AggregatedMetrics();
  // Every query counted exactly once across however many workers ran it.
  EXPECT_EQ(merged.value(obs::Counter::kQueries),
            static_cast<uint64_t>(kQueries));
  EXPECT_GT(merged.value(obs::Counter::kMagicFactsDerived), 0u);
  std::string trace = executor.AggregatedTraceJson();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"query\""), std::string::npos);
  executor.Shutdown();
}

TEST(WireTest, ParsesRequestsAndRejectsMalformed) {
  WireRequest request;
  std::string error;
  ASSERT_TRUE(service::ParseWireRequest(
      R"js({"op":"query","q":"w(n0)","deadline_ms":250,"id":"7"})js", &request,
      &error))
      << error;
  EXPECT_EQ(request.op, "query");
  EXPECT_EQ(request.q, "w(n0)");
  EXPECT_EQ(request.deadline_ms, 250u);
  EXPECT_EQ(request.id, "7");

  EXPECT_FALSE(service::ParseWireRequest("not json", &request, &error));
  EXPECT_FALSE(service::ParseWireRequest("[1,2]", &request, &error));
  EXPECT_NE(error.find("object"), std::string::npos);
  EXPECT_FALSE(service::ParseWireRequest(R"js({"q":"w(n0)"})js", &request,
                                         &error));
  EXPECT_FALSE(service::ParseWireRequest(R"js({"op":"nope"})js", &request,
                                         &error));
  EXPECT_FALSE(service::ParseWireRequest(R"js({"op":"query"})js", &request,
                                         &error));
  EXPECT_FALSE(service::ParseWireRequest(R"js({"op":"load"})js", &request,
                                         &error));
  // Escapes (incl. \u) round-trip through the parser.
  ASSERT_TRUE(service::ParseWireRequest(
      R"js({"op":"query","q":"w(n0)\n"})js", &request, &error))
      << error;
  EXPECT_EQ(request.q, "w(n0)\n");
}

TEST(WireTest, ParsesPublishDeltaAndValidatesIt) {
  WireRequest request;
  std::string error;
  ASSERT_TRUE(service::ParseWireRequest(
      R"js({"op":"publish_delta","add":"p(a).","retract":"q(b).","id":"3"})js",
      &request, &error))
      << error;
  EXPECT_EQ(request.op, "publish_delta");
  EXPECT_EQ(request.add, "p(a).");
  EXPECT_EQ(request.retract, "q(b).");
  EXPECT_EQ(request.id, "3");
  // Either side alone is a valid delta.
  ASSERT_TRUE(service::ParseWireRequest(
      R"js({"op":"publish_delta","retract":"q(b)."})js", &request, &error))
      << error;
  EXPECT_TRUE(request.add.empty());
  // An empty delta is rejected at parse time.
  EXPECT_FALSE(service::ParseWireRequest(R"js({"op":"publish_delta"})js",
                                         &request, &error));
  EXPECT_NE(error.find("publish_delta"), std::string::npos);
}

TEST(WireTest, EncodesResponsesDeterministically) {
  QueryResponse response;
  response.status = ServiceStatus::kOk;
  response.answers = {"w(n1)", "w(n3)"};
  response.ground_status = QueryStatus::kTrue;
  response.facts_derived = 42;
  response.epoch = 3;
  EXPECT_EQ(service::EncodeQueryResponse(response, "9"),
            "{\"status\":\"ok\",\"id\":\"9\",\"ground_status\":\"true\","
            "\"answers\":[\"w(n1)\",\"w(n3)\"],\"facts_derived\":42,"
            "\"epoch\":3}");

  QueryResponse timeout;
  timeout.status = ServiceStatus::kTimeout;
  timeout.error = "deadline exceeded";
  timeout.epoch = 1;
  EXPECT_EQ(service::EncodeQueryResponse(timeout, ""),
            "{\"status\":\"timeout\",\"error\":\"deadline exceeded\","
            "\"epoch\":1}");

  EXPECT_EQ(service::EncodeErrorResponse("bad \"op\"", "x"),
            "{\"status\":\"error\",\"id\":\"x\",\"error\":"
            "\"bad \\\"op\\\"\"}");
}

// ---- End-to-end socket tests -------------------------------------------

// A minimal blocking line client for the tests.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    // A server that never answers fails the test instead of hanging it.
    timeval timeout{60, 0};
    if (fd_ >= 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    }
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  // Sends one line, returns the one response line (without '\n').
  std::string RoundTrip(const std::string& line) {
    if (!SendRaw(line + "\n")) return "<send failed>";
    return ReadLine();
  }

  // Sends bytes as they are; false on a send error.
  bool SendRaw(std::string_view data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads one response line (without '\n').
  std::string ReadLine() {
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "<recv failed>";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    size_t nl = buffer_.find('\n');
    std::string response = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return response;
  }

  // True once the server has closed its side and nothing is left unread.
  bool AtEof() {
    char byte;
    return buffer_.empty() && ::recv(fd_, &byte, 1, 0) == 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

struct ServerFixture {
  std::shared_ptr<SnapshotStore> snapshots;
  std::shared_ptr<QueryExecutor> executor;
  std::unique_ptr<LineServer> server;

  explicit ServerFixture(const std::string& program, size_t threads = 4,
                         bool solve_wfs = true) {
    snapshots = std::make_shared<SnapshotStore>();
    if (!program.empty()) {
      EXPECT_EQ(snapshots->Publish(program, false, solve_wfs), "");
    }
    ExecutorOptions options;
    options.threads = threads;
    options.queue_capacity = 256;
    executor = std::make_shared<QueryExecutor>(snapshots, options);
    ServerOptions server_options;
    server_options.port = 0;  // Ephemeral.
    server = std::make_unique<LineServer>(snapshots, executor,
                                          server_options);
    EXPECT_EQ(server->Start(), "");
  }
  ~ServerFixture() {
    server->Stop();
    executor->Shutdown();
  }
};

// The acceptance bar: >= 8 concurrent clients, every response line
// byte-identical to encoding the sequential engine's answer.
TEST(LineServerTest, EightConcurrentClientsGetSequentialBytes) {
  const std::string program = WinChainSlice(0, 16) + HiLogGame(2, 6);
  ServerFixture fixture(program);
  const int kClients = 8;
  const int kQueriesPerClient = 6;

  std::vector<std::string> queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back("w(n" + std::to_string(i) + ")");
  }
  for (int i = 0; i < 6; ++i) {
    queries.push_back("winning(mv1)(n" + std::to_string(i) + ")");
  }
  // Expected wire bytes, computed once from the sequential engine.
  std::vector<std::string> expected;
  for (const std::string& q : queries) {
    expected.push_back(service::EncodeQueryResponse(
        SequentialResponse(program, q, /*epoch=*/1), /*id=*/""));
  }

  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(fixture.server->port());
      if (!client.connected()) {
        failures[c] = "connect failed";
        return;
      }
      for (int k = 0; k < kQueriesPerClient; ++k) {
        const size_t qi = (c * kQueriesPerClient + k) % queries.size();
        std::string line = "{\"op\":\"query\",\"q\":\"" + queries[qi] +
                           "\"}";
        std::string got = client.RoundTrip(line);
        if (got != expected[qi]) {
          failures[c] = "query " + queries[qi] + "\n  got:  " + got +
                        "\n  want: " + expected[qi];
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
  EXPECT_GE(fixture.executor->stats().ok,
            static_cast<uint64_t>(kClients * kQueriesPerClient));
}

TEST(LineServerTest, ProtocolOpsRoundTrip) {
  ServerFixture fixture("");
  TestClient client(fixture.server->port());
  ASSERT_TRUE(client.connected());

  EXPECT_EQ(client.RoundTrip(R"js({"op":"ping","id":"a"})js"),
            R"js({"status":"ok","id":"a","epoch":0})js");

  // load publishes epoch 1; rules = 2 per chain position.
  std::string load_line = R"js({"op":"load","program":")js";
  // WinChainSlice(0, 2) contains newlines — escape them for the wire.
  std::string program = WinChainSlice(0, 2);
  std::string escaped;
  service::JsonAppendEscaped(&escaped, program);
  load_line += escaped + R"js(","id":"b"})js";
  EXPECT_EQ(client.RoundTrip(load_line),
            R"js({"status":"ok","id":"b","epoch":1,"rules":4})js");

  // A query against the newly published snapshot.
  std::string got = client.RoundTrip(R"js({"op":"query","q":"w(n0)"})js");
  EXPECT_EQ(got, service::EncodeQueryResponse(
                     SequentialResponse(program, "w(n0)", 1), ""));

  // load_more extends to epoch 2.
  std::string more = WinChainSlice(2, 3);
  escaped.clear();
  service::JsonAppendEscaped(&escaped, more);
  EXPECT_EQ(client.RoundTrip(R"js({"op":"load_more","program":")js" + escaped +
                             R"js("})js"),
            R"js({"status":"ok","epoch":2,"rules":6})js");

  // wfs reports the publish-time model of the current snapshot.
  std::string wfs = client.RoundTrip(R"js({"op":"wfs"})js");
  EXPECT_NE(wfs.find("\"has_wfs\":true"), std::string::npos) << wfs;
  EXPECT_NE(wfs.find("\"epoch\":2"), std::string::npos) << wfs;
  // Chain of 3: w(n0) undefined? No — acyclic chain is total: w(n2) true,
  // w(n1) false, w(n0) true, plus 3 move facts => 5 true, 0 undefined.
  EXPECT_NE(wfs.find("\"true_atoms\":5"), std::string::npos) << wfs;
  EXPECT_NE(wfs.find("\"undefined_atoms\":0"), std::string::npos) << wfs;

  // stats is well-formed and counts the one ok query.
  std::string stats = client.RoundTrip(R"js({"op":"stats"})js");
  EXPECT_NE(stats.find("\"submitted\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"ok\":1"), std::string::npos) << stats;

  // Malformed lines get a typed error, and the connection stays usable.
  std::string bad = client.RoundTrip("{nope");
  EXPECT_NE(bad.find("\"status\":\"error\""), std::string::npos) << bad;
  EXPECT_EQ(client.RoundTrip(R"js({"op":"ping"})js"),
            R"js({"status":"ok","epoch":2})js");
}

// Delta publishes over the wire: the op swaps in a maintained epoch and
// every subsequent answer is byte-identical to the sequential engine on
// the composed program text.
TEST(LineServerTest, PublishDeltaOverWire) {
  ServerFixture fixture(WinChainSlice(0, 4));
  TestClient client(fixture.server->port());
  ASSERT_TRUE(client.connected());

  EXPECT_EQ(client.RoundTrip(
                R"js({"op":"publish_delta","add":"p(a).","retract":"m(n3,n4).","id":"d"})js"),
            R"js({"status":"ok","id":"d","epoch":2,"rules":8})js");

  std::string composed = fixture.snapshots->Current()->program_text();
  EXPECT_EQ(composed.find("m(n3,n4).\n"), std::string::npos);
  for (const char* q : {"w(n0)", "w(X)", "p(X)"}) {
    EXPECT_EQ(client.RoundTrip(std::string(R"js({"op":"query","q":")js") + q +
                               R"js("})js"),
              service::EncodeQueryResponse(
                  SequentialResponse(composed, q, /*epoch=*/2), ""))
        << q;
  }

  // A delta naming an absent fact is a typed error; nothing publishes
  // and the connection stays usable.
  std::string bad = client.RoundTrip(
      R"js({"op":"publish_delta","retract":"m(n9,n9)."})js");
  EXPECT_NE(bad.find("\"status\":\"error\""), std::string::npos) << bad;
  EXPECT_EQ(client.RoundTrip(R"js({"op":"ping"})js"),
            R"js({"status":"ok","epoch":2})js");
}

// Open descriptors of this process, by listing /proc/self/fd (the
// listing's own descriptor is counted every time, so it cancels out).
size_t OpenFdCount() {
  size_t count = 0;
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    while (::readdir(dir) != nullptr) ++count;
    ::closedir(dir);
  }
  return count;
}

// Finished connections are reaped while the server runs: after many
// sequential clients the process holds no more descriptors than before.
TEST(LineServerTest, ReapsFinishedConnections) {
  ServerFixture fixture("", /*threads=*/2);
  const size_t baseline = OpenFdCount();
  ASSERT_GT(baseline, 0u);
  for (int i = 0; i < 64; ++i) {
    TestClient client(fixture.server->port());
    ASSERT_TRUE(client.connected()) << i;
    ASSERT_EQ(client.RoundTrip(R"js({"op":"ping"})js"),
              R"js({"status":"ok","epoch":0})js");
  }
  // The acceptor reaps at least every 200 ms.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  size_t open = OpenFdCount();
  while (open != baseline && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    open = OpenFdCount();
  }
  EXPECT_EQ(open, baseline);
}

// A request line over the cap gets an error response and its connection
// closes; the server keeps answering new connections.
TEST(LineServerTest, OverlongRequestLineIsRejected) {
  ServerFixture fixture("", /*threads=*/2);
  {
    TestClient client(fixture.server->port());
    ASSERT_TRUE(client.connected());
    // Exactly one byte over the cap and no newline: the server has read
    // everything sent when it rejects the line.
    ASSERT_TRUE(client.SendRaw(
        std::string(LineServer::kMaxRequestLineBytes + 1, 'x')));
    const std::string got = client.ReadLine();
    EXPECT_NE(got.find("\"status\":\"error\""), std::string::npos) << got;
    EXPECT_NE(got.find("request line exceeds"), std::string::npos) << got;
    EXPECT_TRUE(client.AtEof());
  }
  TestClient fresh(fixture.server->port());
  ASSERT_TRUE(fresh.connected());
  EXPECT_EQ(fresh.RoundTrip(R"js({"op":"ping"})js"),
            R"js({"status":"ok","epoch":0})js");
}

TEST(LineServerTest, ShutdownOpStopsServer) {
  ServerFixture fixture("");
  TestClient client(fixture.server->port());
  ASSERT_TRUE(client.connected());
  std::string got = client.RoundTrip(R"js({"op":"shutdown"})js");
  EXPECT_NE(got.find("\"stopping\":true"), std::string::npos);
  fixture.server->Wait();  // Returns because the op requested stop.
  EXPECT_TRUE(fixture.server->stopping());
}

// ---- Admin surface (metrics / healthz / statusz / slow-query) ----------

TEST(AdminOpsTest, MetricsExpositionParsesAndHasLatencyHistogram) {
  ServerFixture fixture(WinChainSlice(0, 4));
  WireRequest query;
  query.op = "query";
  query.q = "w(n0)";
  fixture.server->Dispatch(query);  // One sample for the latency histogram.

  WireRequest metrics;
  metrics.op = "metrics";
  metrics.id = "m1";
  std::string line = fixture.server->Dispatch(metrics);

  service::JsonValue value;
  std::string error;
  ASSERT_TRUE(service::ParseJson(line, &value, &error)) << error << "\n"
                                                        << line;
  EXPECT_EQ(value.GetString("status"), "ok");
  EXPECT_EQ(value.GetString("id"), "m1");
  EXPECT_EQ(value.GetString("content_type"), "text/plain; version=0.0.4");
  const std::string body = value.GetString("body");
  ASSERT_FALSE(body.empty());

  // Service section and registry section are both present.
  EXPECT_NE(body.find("# TYPE hilog_service_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("hilog_service_epoch 1"), std::string::npos);
  EXPECT_NE(body.find("# TYPE hilog_engine_queries_total counter"),
            std::string::npos);
  ASSERT_NE(body.find("# TYPE hilog_query_latency_ns histogram"),
            std::string::npos);

  // The latency histogram's cumulative buckets are monotone and end in a
  // +Inf bucket equal to _count, with at least the one sample above —
  // which makes p50/p99 derivable from the buckets alone.
  uint64_t previous = 0;
  uint64_t inf_value = 0;
  size_t pos = 0;
  const std::string prefix = "hilog_query_latency_ns_bucket{le=\"";
  while ((pos = body.find(prefix, pos)) != std::string::npos) {
    const size_t close = body.find("\"} ", pos);
    ASSERT_NE(close, std::string::npos);
    const std::string le =
        body.substr(pos + prefix.size(), close - pos - prefix.size());
    const uint64_t cumulative = std::stoull(body.substr(close + 3));
    EXPECT_GE(cumulative, previous) << "non-monotone bucket le=" << le;
    previous = cumulative;
    if (le == "+Inf") inf_value = cumulative;
    pos = close;
  }
  EXPECT_GE(inf_value, 1u);
  const size_t count_pos = body.find("hilog_query_latency_ns_count ");
  ASSERT_NE(count_pos, std::string::npos);
  EXPECT_EQ(std::stoull(body.substr(count_pos + 29)), inf_value);
}

TEST(AdminOpsTest, HealthzReadyThenNotReadyDuringDrain) {
  ServerFixture fixture(WinChainSlice(0, 2));
  WireRequest healthz;
  healthz.op = "healthz";
  std::string ready = fixture.server->Dispatch(healthz);
  EXPECT_NE(ready.find("\"status\":\"ok\""), std::string::npos) << ready;
  EXPECT_NE(ready.find("\"ready\":true"), std::string::npos) << ready;

  // A draining executor flips readiness even before the server stops.
  fixture.executor->Shutdown(/*drain=*/true);
  std::string draining = fixture.server->Dispatch(healthz);
  EXPECT_NE(draining.find("\"status\":\"unavailable\""), std::string::npos)
      << draining;
  EXPECT_NE(draining.find("\"ready\":false"), std::string::npos) << draining;
}

TEST(AdminOpsTest, StatuszReportsSnapshotAndLoadState) {
  ServerFixture fixture(WinChainSlice(0, 3));
  WireRequest query;
  query.op = "query";
  query.q = "w(n0)";
  fixture.server->Dispatch(query);

  WireRequest statusz;
  statusz.op = "statusz";
  std::string line = fixture.server->Dispatch(statusz);
  service::JsonValue value;
  std::string error;
  ASSERT_TRUE(service::ParseJson(line, &value, &error)) << error << "\n"
                                                        << line;
  EXPECT_EQ(value.GetString("status"), "ok");
  EXPECT_EQ(value.GetUint("epoch"), 1u);
  EXPECT_EQ(value.GetUint("rules"), 6u);  // 2 rules per chain position.
  EXPECT_EQ(value.GetUint("threads"), 4u);
  EXPECT_EQ(value.GetUint("queue_capacity"), 256u);
  EXPECT_EQ(value.GetUint("submitted"), 1u);
  EXPECT_EQ(value.GetUint("ok"), 1u);
  EXPECT_EQ(value.GetBool("has_wfs"), true);
  EXPECT_EQ(value.GetBool("draining"), false);
  const service::JsonValue* latency = value.Get("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->GetUint("count"), 1u);
  // Satellite: the nested snapshot publish-path breakdown. The fixture's
  // one publish was a cold full build.
  const service::JsonValue* snap = value.Get("snapshot");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->GetUint("seeded"), 0u);
  EXPECT_EQ(snap->GetUint("full_rebuilds"), 1u);
  EXPECT_EQ(snap->GetUint("delta_builds"), 0u);

  // A delta publish shows up in the breakdown.
  WireRequest delta;
  delta.op = "publish_delta";
  delta.retract = "m(n2,n3).";
  std::string delta_line = fixture.server->Dispatch(delta);
  EXPECT_NE(delta_line.find("\"status\":\"ok\""), std::string::npos)
      << delta_line;
  line = fixture.server->Dispatch(statusz);
  ASSERT_TRUE(service::ParseJson(line, &value, &error)) << error;
  snap = value.Get("snapshot");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->GetUint("delta_builds"), 1u);
  EXPECT_EQ(value.GetUint("epoch"), 2u);
}

TEST(AdminOpsTest, SlowQueryLogFiresAtThresholdOnly) {
  auto snapshots = std::make_shared<SnapshotStore>();
  ASSERT_EQ(snapshots->Publish(WinChainSlice(0, 4), false, false), "");

  std::mutex mu;
  std::vector<std::string> lines;
  ExecutorOptions options;
  options.threads = 1;
  options.slow_query_ns = 1;  // Every real query exceeds 1ns.
  options.slow_query_sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  };
  {
    QueryExecutor executor(snapshots, options);
    ASSERT_EQ(executor.Execute({"w(n0)", 0, {}}).status, ServiceStatus::kOk);
    executor.Shutdown();
    EXPECT_EQ(executor.stats().slow, 1u);
  }
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  service::JsonValue value;
  std::string error;
  ASSERT_TRUE(service::ParseJson(line, &value, &error)) << error << "\n"
                                                        << line;
  EXPECT_EQ(value.GetString("event"), "slow_query");
  EXPECT_EQ(value.GetString("status"), "ok");
  EXPECT_EQ(value.GetString("q"), "w(n0)");
  EXPECT_EQ(value.GetUint("query_id"), 1u);
  EXPECT_EQ(value.GetUint("threshold_ns"), 1u);
  EXPECT_GT(value.GetUint("total_ns"), 0u);
  EXPECT_EQ(value.GetBool("rebuilt"), true);  // First query of the epoch.

  // A generous budget never fires.
  options.slow_query_ns = 60ull * 1'000'000'000;
  lines.clear();
  {
    QueryExecutor executor(snapshots, options);
    ASSERT_EQ(executor.Execute({"w(n0)", 0, {}}).status, ServiceStatus::kOk);
    executor.Shutdown();
    EXPECT_EQ(executor.stats().slow, 0u);
  }
  EXPECT_TRUE(lines.empty());
}

TEST(AdminOpsTest, StatsOpSharesRegistrySchemaWithCli) {
  ServerFixture fixture(WinChainSlice(0, 2));
  WireRequest query;
  query.op = "query";
  query.q = "w(n0)";
  fixture.server->Dispatch(query);

  WireRequest stats;
  stats.op = "stats";
  std::string line = fixture.server->Dispatch(stats);
  service::JsonValue value;
  std::string error;
  ASSERT_TRUE(service::ParseJson(line, &value, &error)) << error << "\n"
                                                        << line;
  EXPECT_EQ(value.GetUint("slow"), 0u);
  // The embedded registry mirrors Engine::metrics().ToJson(): the shape
  // hilog_cli --stats-json prints.
  const service::JsonValue* metrics = value.Get("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->IsObject());
  EXPECT_NE(metrics->Get("counters"), nullptr);
  EXPECT_NE(metrics->Get("gauges"), nullptr);
  EXPECT_NE(metrics->Get("phases"), nullptr);
  EXPECT_NE(metrics->Get("histograms"), nullptr);
  const service::JsonValue* counters = metrics->Get("counters");
  EXPECT_EQ(counters->GetUint("engine.queries"), 1u);
}

TEST(AdminOpsTest, TraceExportHasRequestAndLoadSpans) {
  auto snapshots = std::make_shared<SnapshotStore>();
  ASSERT_EQ(snapshots->Publish(WinChainSlice(0, 4), false, false), "");
  ExecutorOptions options;
  options.threads = 1;
  options.engine.trace_capacity = 4096;
  QueryExecutor executor(snapshots, options);
  ASSERT_EQ(executor.Execute({"w(n0)", 0, {}}).status, ServiceStatus::kOk);
  std::string trace = executor.AggregatedTraceJson();
  executor.Shutdown();
  // The per-request span tree: whole request + queue wait + serialize
  // tail, plus the worker's fork of the new epoch as a `load` phase — all
  // in the Chrome export.
  EXPECT_NE(trace.find("\"name\":\"request\",\"ph\":\"X\""),
            std::string::npos)
      << trace;
  EXPECT_NE(trace.find("\"name\":\"queue_wait\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"serialize\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"dur\":"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"load\",\"ph\":\"B\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"load\",\"ph\":\"E\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"query.id\""), std::string::npos);
}

TEST(LineServerTest, DeadlineOverWireTimesOut) {
  ServerFixture fixture(WinChainSlice(0, 6000), /*threads=*/2,
                        /*solve_wfs=*/false);
  TestClient client(fixture.server->port());
  ASSERT_TRUE(client.connected());
  std::string got =
      client.RoundTrip(R"js({"op":"query","q":"w(n0)","deadline_ms":1})js");
  EXPECT_NE(got.find("\"status\":\"timeout\""), std::string::npos) << got;
  // The same connection then gets a correct answer with no deadline.
  std::string ok = client.RoundTrip(R"js({"op":"query","q":"w(n5999)"})js");
  EXPECT_NE(ok.find("\"status\":\"ok\""), std::string::npos) << ok;
  EXPECT_NE(ok.find("w(n5999)"), std::string::npos) << ok;
}

}  // namespace
}  // namespace hilog
