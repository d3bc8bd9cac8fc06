// hilog_cli — an interactive driver for the library: load HiLog rules,
// inspect the paper's classifications, compute models, and pose queries.
//
//   ./build/examples/hilog_cli [options] [file.hl]
//
// Options:
//   --stats              print the metrics table (after batch run or :quit)
//   --stats-json <file>  write the metrics registry as JSON ("-" = stdout)
//   --trace-json <file>  write the trace buffer as Chrome trace_event JSON
//   --query <atom>       batch: run a magic-sets query after loading
//   --client <addr>      talk to a running hilog_server instead of
//                        evaluating locally; <addr> is host:port or a Unix
//                        socket path (anything containing '/'). Stdin lines
//                        starting with '{' are sent as raw protocol JSON,
//                        anything else is wrapped as a query op. With
//                        --query, sends that one query and exits.
//   --deadline-ms <n>    client mode: deadline attached to wrapped queries
//   --explain-plan       batch: after loading, dump each rule's compiled
//                        kernel program and exit
//
// Passing any of the observability options together with a program file
// runs in batch mode: load, SolveWellFounded, the --query if given, emit
// stats, exit — no REPL.
//
// Commands (a line starting with ':'); anything else is parsed as rules
// and added to the program:
//   :analyze           print the Definition 4.1/5.5/5.6/6.1/6.6/6.7 report
//   :wfs               compute and print the well-founded model
//   :stable            enumerate stable models
//   :modular           run Figure 1 and print the settling rounds
//   :agg               evaluate with aggregates (parts-explosion style)
//   :query <atom>      magic-sets query
//   :stats             print the metrics collected so far
//   :list              print the current program
//   :clear             drop the program
//   :help  :quit

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/analysis/lint.h"
#include "src/core/engine.h"
#include "src/lang/printer.h"
#include "src/service/wire.h"

namespace {

void PrintHelp() {
  std::puts(
      ":analyze | :wfs | :stable | :modular | :stratified | :agg | "
      ":query <atom> | :prove <atom> | :table <atom> | :domind | :lint | "
      ":stats | :list | :clear | :quit");
}

// Writes `text` to `path` ("-" = stdout). Returns false on I/O failure.
bool WriteTextFile(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    std::fputc('\n', stdout);
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << text << "\n";
  return out.good();
}

void PrintAnalysis(hilog::Engine& engine) {
  hilog::AnalysisReport r = engine.Analyze();
  std::printf("normal program:                 %s\n", r.normal ? "yes" : "no");
  std::printf("normal range restricted (4.1):  %s\n",
              r.normal_range_restricted ? "yes" : "no");
  std::printf("range restricted (5.5):         %s\n",
              r.range_restricted ? "yes" : "no");
  std::printf("strongly range restricted (5.6):%s\n",
              r.strongly_range_restricted ? " yes" : " no");
  std::printf("Datahilog (6.7):                %s",
              r.datahilog ? "yes" : "no");
  if (r.datahilog) std::printf("  (|T| <= %zu)", r.datahilog_atom_bound);
  std::printf("\nstratified (6.1):               %s\n",
              r.stratified ? "yes" : "no");
  std::printf("flounders (left-to-right):      %s\n",
              r.flounders ? "yes" : "no");
  std::printf("modularly stratified (Fig. 1):  %s\n",
              r.modularly_stratified ? "yes" : "no");
  if (!r.modularly_stratified) {
    std::printf("  reason: %s\n", r.modular_reason.c_str());
  }
}

void PrintWfs(hilog::Engine& engine) {
  hilog::Engine::WfsAnswer answer = engine.SolveWellFounded();
  if (!answer.ok) {
    std::printf("error: %s\n", answer.notes.c_str());
    return;
  }
  std::printf("grounder: %s%s  (%zu ground rules)\n",
              answer.grounder == hilog::GrounderKind::kRelevance
                  ? "relevance"
                  : "bounded Herbrand",
              answer.exact ? "" : " [fragment]", answer.ground_rules);
  for (hilog::TermId atom : answer.model.TrueAtoms()) {
    std::printf("  %s\n", engine.store().ToString(atom).c_str());
  }
  auto undefined = answer.model.UndefinedAtoms();
  for (hilog::TermId atom : undefined) {
    std::printf("  %s = undefined\n", engine.store().ToString(atom).c_str());
  }
  std::printf("(%zu true, %zu undefined; unlisted atoms false)\n",
              answer.model.CountTrue(), undefined.size());
}

void PrintStable(hilog::Engine& engine) {
  hilog::StableModelsResult result = engine.SolveStable();
  if (!result.complete) {
    std::printf("(enumeration incomplete: %s)\n",
                result.reason.empty() ? "budget" : result.reason.c_str());
  }
  std::printf("%zu stable model(s)\n", result.models.size());
  for (size_t i = 0; i < result.models.size(); ++i) {
    std::printf("model %zu:", i + 1);
    for (hilog::TermId atom : result.models[i].true_atoms) {
      std::printf(" %s", engine.store().ToString(atom).c_str());
    }
    std::printf("\n");
  }
}

void PrintModular(hilog::Engine& engine) {
  hilog::ModularResult result = engine.SolveModular();
  if (!result.modularly_stratified) {
    std::printf("not modularly stratified: %s\n", result.reason.c_str());
    return;
  }
  std::printf("modularly stratified in %zu round(s)\n", result.rounds);
  for (size_t i = 0; i < result.settled_per_round.size(); ++i) {
    std::printf("  round %zu settles:", i + 1);
    for (hilog::TermId name : result.settled_per_round[i]) {
      std::printf(" %s", engine.store().ToString(name).c_str());
    }
    std::printf("\n");
  }
  std::printf("model (true atoms):\n");
  for (hilog::TermId atom : result.model.true_atoms().facts()) {
    std::printf("  %s\n", engine.store().ToString(atom).c_str());
  }
}

void PrintAggregates(hilog::Engine& engine) {
  hilog::AggregateEvalResult result = engine.SolveAggregates();
  if (!result.error.empty()) {
    std::printf("error: %s\n", result.error.c_str());
    return;
  }
  std::printf("%s after %zu round(s)\n",
              result.converged ? "converged" : "NOT converged",
              result.outer_rounds);
  for (hilog::TermId atom : result.facts.facts()) {
    std::printf("  %s\n", engine.store().ToString(atom).c_str());
  }
}

void RunQuery(hilog::Engine& engine, const std::string& text) {
  hilog::Engine::QueryAnswer answer = engine.Query(text);
  if (!answer.ok) {
    std::printf("error: %s\n", answer.error.c_str());
    return;
  }
  for (hilog::TermId atom : answer.answers) {
    std::printf("  %s\n", engine.store().ToString(atom).c_str());
  }
  switch (answer.ground_status) {
    case hilog::QueryStatus::kTrue:
      std::puts("=> true");
      break;
    case hilog::QueryStatus::kSettledFalse:
      std::puts("=> false (settled)");
      break;
    case hilog::QueryStatus::kUnsettled:
      if (answer.answers.empty()) std::puts("=> no answers");
      if (!answer.unsettled_negative_calls.empty()) {
        std::puts("warning: unsettled negative calls (program may not be "
                  "modularly stratified left-to-right):");
        for (hilog::TermId atom : answer.unsettled_negative_calls) {
          std::printf("  ~%s\n", engine.store().ToString(atom).c_str());
        }
      }
      break;
  }
}

// Connects to `addr` (host:port, or a Unix socket path when it contains
// '/'). Returns the fd or -1 with a message on stderr.
int ConnectServer(const std::string& addr) {
  if (addr.find('/') != std::string::npos) {
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (addr.size() >= sizeof(sa.sun_path)) {
      std::fprintf(stderr, "unix socket path too long: %s\n", addr.c_str());
      return -1;
    }
    std::strncpy(sa.sun_path, addr.c_str(), sizeof(sa.sun_path) - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
      std::fprintf(stderr, "cannot connect to %s: %s\n", addr.c_str(),
                   std::strerror(errno));
      if (fd >= 0) ::close(fd);
      return -1;
    }
    return fd;
  }
  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--client wants host:port or a socket path, got %s\n",
                 addr.c_str());
    return -1;
  }
  const std::string host = addr.substr(0, colon);
  const int port = std::atoi(addr.c_str() + colon + 1);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<uint16_t>(port));
  const std::string ip = (host == "localhost" || host.empty()) ? "127.0.0.1"
                                                               : host;
  if (::inet_pton(AF_INET, ip.c_str(), &sa.sin_addr) != 1) {
    std::fprintf(stderr, "bad address %s\n", ip.c_str());
    return -1;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    std::fprintf(stderr, "cannot connect to %s: %s\n", addr.c_str(),
                 std::strerror(errno));
    if (fd >= 0) ::close(fd);
    return -1;
  }
  return fd;
}

// Sends one protocol line and prints the one response line. Returns false
// on a transport error.
bool ClientRoundTrip(int fd, std::string line, std::string* carry) {
  line.push_back('\n');
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "send: %s\n", std::strerror(errno));
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  char chunk[4096];
  while (carry->find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "recv: %s\n", std::strerror(errno));
      return false;
    }
    if (n == 0) {
      std::fprintf(stderr, "server closed the connection\n");
      return false;
    }
    carry->append(chunk, static_cast<size_t>(n));
  }
  const size_t nl = carry->find('\n');
  std::printf("%s\n", carry->substr(0, nl).c_str());
  carry->erase(0, nl + 1);
  return true;
}

std::string WrapQueryLine(const std::string& query, uint64_t deadline_ms) {
  std::string line = "{\"op\":\"query\",\"q\":";
  line += hilog::service::JsonQuote(query);
  if (deadline_ms != 0) {
    line += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  }
  line += "}";
  return line;
}

// The --client REPL: raw '{...}' lines pass through, anything else becomes
// a query op. Returns the process exit code.
int RunClient(const std::string& addr, const std::string& batch_query,
              uint64_t deadline_ms) {
  const int fd = ConnectServer(addr);
  if (fd < 0) return 1;
  std::string carry;
  int exit_code = 0;
  if (!batch_query.empty()) {
    if (!ClientRoundTrip(fd, WrapQueryLine(batch_query, deadline_ms),
                         &carry)) {
      exit_code = 1;
    }
  } else {
    const bool tty = ::isatty(STDIN_FILENO) != 0;
    if (tty) std::puts("hilog client shell — :quit to exit");
    std::string line;
    while (true) {
      if (tty) {
        std::printf("hilog@%s> ", addr.c_str());
        std::fflush(stdout);
      }
      if (!std::getline(std::cin, line)) break;
      if (line.empty()) continue;
      if (line == ":quit" || line == ":q") break;
      const std::string wire =
          line[0] == '{' ? line : WrapQueryLine(line, deadline_ms);
      if (!ClientRoundTrip(fd, wire, &carry)) {
        exit_code = 1;
        break;
      }
    }
  }
  ::close(fd);
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  bool want_stats = false;
  std::string stats_json_path;
  std::string trace_json_path;
  std::string batch_query;
  std::string program_path;
  std::string client_addr;
  uint64_t client_deadline_ms = 0;
  bool explain_plan = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto take_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--stats") == 0) {
      want_stats = true;
    } else if (std::strcmp(arg, "--stats-json") == 0) {
      stats_json_path = take_value("--stats-json");
    } else if (std::strcmp(arg, "--trace-json") == 0) {
      trace_json_path = take_value("--trace-json");
    } else if (std::strcmp(arg, "--query") == 0) {
      batch_query = take_value("--query");
    } else if (std::strcmp(arg, "--client") == 0) {
      client_addr = take_value("--client");
    } else if (std::strcmp(arg, "--deadline-ms") == 0) {
      client_deadline_ms =
          std::strtoull(take_value("--deadline-ms"), nullptr, 10);
    } else if (std::strcmp(arg, "--explain-plan") == 0) {
      explain_plan = true;
    } else if (arg[0] == '-' && arg[1] != '\0') {
      std::fprintf(stderr, "unknown option %s\n", arg);
      return 2;
    } else {
      program_path = arg;
    }
  }
  if (!client_addr.empty()) {
    return RunClient(client_addr, batch_query, client_deadline_ms);
  }

  const bool observing =
      want_stats || !stats_json_path.empty() || !trace_json_path.empty();
  const bool batch = observing && !program_path.empty();

  hilog::EngineOptions options;
  if (!trace_json_path.empty()) options.trace_capacity = 1 << 16;
  hilog::Engine engine(options);

  auto emit_stats = [&]() -> bool {
    bool ok = true;
    if (want_stats) {
      std::fputs(engine.metrics().ToTable().c_str(), stdout);
    }
    if (!stats_json_path.empty()) {
      ok &= WriteTextFile(stats_json_path, engine.metrics().ToJson());
    }
    if (!trace_json_path.empty() && engine.trace() != nullptr) {
      ok &= WriteTextFile(trace_json_path, engine.trace()->ToChromeJson());
    }
    return ok;
  };

  if (!program_path.empty()) {
    std::ifstream file(program_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", program_path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    std::string error = engine.Load(buffer.str());
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("loaded %zu rule(s) from %s\n", engine.program().size(),
                program_path.c_str());
  }

  if (explain_plan) {
    if (program_path.empty()) {
      std::fprintf(stderr, "--explain-plan needs a program file\n");
      return 2;
    }
    std::fputs(hilog::ExplainKernelPrograms(engine.store(), engine.program())
                   .c_str(),
               stdout);
    return 0;
  }

  if (batch) {
    PrintWfs(engine);
    if (!batch_query.empty()) RunQuery(engine, batch_query);
    return emit_stats() ? 0 : 1;
  }

  std::puts("hilog interactive shell — :help for commands");
  std::string line;
  while (std::printf("hilog> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line[0] == ':') {
      std::istringstream words(line);
      std::string command;
      words >> command;
      if (command == ":quit" || command == ":q") break;
      if (command == ":help") {
        PrintHelp();
      } else if (command == ":analyze") {
        PrintAnalysis(engine);
      } else if (command == ":wfs") {
        PrintWfs(engine);
      } else if (command == ":stable") {
        PrintStable(engine);
      } else if (command == ":modular") {
        PrintModular(engine);
      } else if (command == ":agg") {
        PrintAggregates(engine);
      } else if (command == ":query") {
        std::string rest;
        std::getline(words, rest);
        RunQuery(engine, rest);
      } else if (command == ":prove") {
        std::string rest;
        std::getline(words, rest);
        hilog::ResolutionResult r = engine.Prove(rest);
        if (!r.error.empty()) {
          std::printf("error: %s\n", r.error.c_str());
        } else {
          for (hilog::TermId s : r.solutions) {
            std::printf("  %s\n", engine.store().ToString(s).c_str());
          }
          std::printf("%zu solution(s)%s in %zu steps\n", r.solutions.size(),
                      r.exhausted ? "" : " (search cut off)", r.steps);
        }
      } else if (command == ":table") {
        std::string rest;
        std::getline(words, rest);
        hilog::TabledResult r = engine.ProveTabled(rest);
        if (!r.error.empty()) {
          std::printf("error: %s\n", r.error.c_str());
        } else {
          for (hilog::TermId s : r.answers) {
            std::printf("  %s\n", engine.store().ToString(s).c_str());
          }
          std::printf("%zu answer(s)%s, %zu tables, %zu steps\n",
                      r.answers.size(), r.complete ? "" : " (incomplete)",
                      r.tables, r.steps);
        }
      } else if (command == ":stratified") {
        hilog::StratifiedEvalResult r = engine.SolveStratified();
        if (!r.ok) {
          std::printf("error: %s\n", r.error.c_str());
        } else {
          std::printf("%zu strata, %zu true atoms\n", r.strata,
                      r.facts.size());
          for (hilog::TermId atom : r.facts.facts()) {
            std::printf("  %s\n", engine.store().ToString(atom).c_str());
          }
        }
      } else if (command == ":domind") {
        hilog::DomainIndependenceResult r = engine.CheckDomainIndependence();
        if (!r.conclusive) {
          std::puts("inconclusive: the bounded instantiation was truncated "
                    "(too many rule variables for the universe bound)");
        } else if (r.independent) {
          std::puts("no domain-dependence found (evidence, not proof — "
                    "the property is undecidable)");
        } else {
          std::printf("NOT domain independent; witness: %s\n",
                      engine.store().ToString(r.witness).c_str());
        }
      } else if (command == ":lint") {
        auto findings = hilog::LintProgram(engine.store(), engine.program());
        if (findings.empty()) {
          std::puts("no findings");
        } else {
          std::fputs(hilog::RenderFindings(engine.store(), engine.program(),
                                           findings)
                         .c_str(),
                     stdout);
        }
      } else if (command == ":stats") {
        std::fputs(engine.metrics().ToTable().c_str(), stdout);
      } else if (command == ":list") {
        std::fputs(
            hilog::ProgramToString(engine.store(), engine.program()).c_str(),
            stdout);
      } else if (command == ":clear") {
        engine.Load("");
        std::puts("cleared");
      } else {
        std::printf("unknown command %s\n", command.c_str());
        PrintHelp();
      }
      continue;
    }
    std::string error = engine.LoadMore(line);
    if (!error.empty()) std::printf("%s\n", error.c_str());
  }
  return emit_stats() ? 0 : 1;
}
