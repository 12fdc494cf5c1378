// podsctl — command-line client for a running podsd, plus an offline
// solver front-end that needs no daemon at all.
//
//   podsctl <port> ping
//   podsctl <port> stat
//   podsctl <port> certify <workflow> gamma=<G> hidden=<a,b,...>
//                  [deadline_ms=<N>] [budget=<bytes>]
//   podsctl <port> register <name> <workflow-file>
//   podsctl <port> unregister <name>
//   podsctl dump <builtin> <out-file>
//   podsctl solve <instance-file> [solver=exact] [deadline_ms=<N>]
//                  [threads=<N>] [max_nodes=<N>]
//
// `register` uploads a SerializeWorkflowBinary file and binds it under
// <name>; the daemon certifies against it exactly as it would a compiled-in
// workflow. `dump` needs no daemon: it serializes one of the built-in
// workflow families (fig1, prop2-chain, one-one-chain, diamond,
// example7-chain) to a file — the fixed seeds make the bytes reproducible,
// so `dump` + `register` + `certify` answers match the built-in name.
//
// `solve` reads a serialized SecureViewInstance — the binary podsd payload
// codec, or the line-oriented text format when the file starts with
// "provview-instance" — runs the chosen solver (exact, brute, rounding,
// threshold, greedy, coverage) under a cooperative deadline, and prints the
// solution, its cost, and the proven optimality gap. A tripped deadline
// exits with the typed status AND the best feasible incumbent found.
//
// Exit status: 0 on an OK response, 1 on a transport/file error, 3 when
// the daemon (or solver) answered with a typed error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/exec_control.h"
#include "secureview/serialization.h"
#include "secureview/solvers.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/registry.h"

namespace {

using provview::CertifyRequest;
using provview::CertifyResponse;
using provview::PodsClient;
using provview::StatSnapshot;
using provview::Status;

int Usage() {
  std::fprintf(stderr,
               "usage: podsctl <port> ping\n"
               "       podsctl <port> stat\n"
               "       podsctl <port> certify <workflow> gamma=<G>"
               " hidden=<a,b,...> [deadline_ms=<N>] [budget=<bytes>]\n"
               "       podsctl <port> register <name> <workflow-file>\n"
               "       podsctl <port> unregister <name>\n"
               "       podsctl dump <builtin> <out-file>\n"
               "       podsctl solve <instance-file> [solver=exact|brute|"
               "rounding|threshold|greedy|coverage]\n"
               "                     [deadline_ms=<N>] [threads=<N>]"
               " [max_nodes=<N>]\n");
  return 2;
}

int RunSolve(int argc, char** argv) {
  const char* path = argv[0];
  std::string solver = "exact";
  int64_t deadline_ms = 0;
  int threads = 1;
  int max_nodes = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "solver=", 7) == 0) {
      solver = arg + 7;
    } else if (std::strncmp(arg, "deadline_ms=", 12) == 0) {
      deadline_ms = std::strtoll(arg + 12, nullptr, 10);
    } else if (std::strncmp(arg, "threads=", 8) == 0) {
      threads = static_cast<int>(std::strtol(arg + 8, nullptr, 10));
    } else if (std::strncmp(arg, "max_nodes=", 10) == 0) {
      max_nodes = static_cast<int>(std::strtol(arg + 10, nullptr, 10));
    } else {
      return Usage();
    }
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "solve: cannot read %s\n", path);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();

  provview::Result<provview::SecureViewInstance> parsed =
      bytes.rfind("provview-instance", 0) == 0
          ? provview::ParseInstance(bytes)
          : provview::DeserializeInstanceBinary(bytes);
  if (!parsed.ok()) {
    std::fprintf(stderr, "solve: %s: %s\n", path,
                 parsed.status().message().c_str());
    return 1;
  }
  const provview::SecureViewInstance& inst = parsed.value();

  provview::ExecControl control;
  if (deadline_ms > 0) control.set_deadline_ms(deadline_ms);

  provview::SvResult result;
  if (solver == "exact") {
    provview::ExactOptions opt;
    if (deadline_ms > 0) opt.bnb.control = &control;
    if (threads > 1) opt.bnb.num_threads = threads;
    if (max_nodes > 0) opt.bnb.max_nodes = max_nodes;
    result = provview::SolveExact(inst, opt);
  } else if (solver == "brute") {
    result = provview::SolveBruteForce(
        inst, deadline_ms > 0 ? &control : nullptr);
  } else if (solver == "rounding") {
    provview::RoundingOptions opt;
    if (deadline_ms > 0) opt.control = &control;
    result = provview::SolveByLpRounding(inst, opt);
  } else if (solver == "threshold") {
    provview::SimplexOptions opt;
    if (deadline_ms > 0) opt.control = &control;
    result = provview::SolveByThresholdRounding(inst, opt);
  } else if (solver == "greedy") {
    result = provview::SolveGreedyPerModule(
        inst, deadline_ms > 0 ? &control : nullptr);
  } else if (solver == "coverage") {
    result = provview::SolveGreedyCoverage(
        inst, deadline_ms > 0 ? &control : nullptr);
  } else {
    return Usage();
  }

  std::printf("status: [%d] %s\n", static_cast<int>(result.status.code()),
              result.status.ok() ? "ok" : result.status.message().c_str());
  const bool have_solution =
      result.status.ok() || std::isfinite(result.gap);
  if (have_solution) {
    std::printf("solution: %s\n",
                provview::SerializeSolution(result.solution).c_str());
    std::printf("cost: %.6f\n", result.cost);
    std::printf("lower_bound: %.6f\n", result.lower_bound);
    std::printf("gap: %.6f\n", result.gap);
  }
  std::printf("work: %lld\n", static_cast<long long>(result.work));
  return result.status.ok() ? 0 : 3;
}

bool ParseList(const char* s, std::vector<uint32_t>* out) {
  while (*s != '\0') {
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || v < 0) return false;
    out->push_back(static_cast<uint32_t>(v));
    if (*end == ',') {
      s = end + 1;
    } else if (*end == '\0') {
      s = end;
    } else {
      return false;
    }
  }
  return true;
}

int RunCertify(PodsClient& client, int argc, char** argv) {
  CertifyRequest req;
  req.workflow = argv[0];
  provview::CertifyItem item;
  bool have_gamma = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "gamma=", 6) == 0) {
      item.gamma = std::strtoll(arg + 6, nullptr, 10);
      have_gamma = true;
    } else if (std::strncmp(arg, "hidden=", 7) == 0) {
      if (!ParseList(arg + 7, &item.hidden_attrs)) return Usage();
    } else if (std::strncmp(arg, "deadline_ms=", 12) == 0) {
      req.deadline_ms = std::strtoll(arg + 12, nullptr, 10);
    } else if (std::strncmp(arg, "budget=", 7) == 0) {
      req.memory_budget = std::strtoll(arg + 7, nullptr, 10);
    } else {
      return Usage();
    }
  }
  if (!have_gamma) return Usage();
  req.items.push_back(std::move(item));

  CertifyResponse resp;
  const Status s = client.Certify(req, /*batch=*/false, &resp);
  if (!s.ok()) {
    std::fprintf(stderr, "certify: [%d] %s\n", static_cast<int>(s.code()),
                 s.message().c_str());
    return 3;
  }
  for (const provview::CertifyEntry& e : resp.entries) {
    std::printf("certified: %s\n", e.certified ? "yes" : "no");
    std::printf("module_gammas:");
    for (int64_t g : e.module_gammas) std::printf(" %lld", (long long)g);
    std::printf("\nrequired_privatizations:");
    for (uint32_t m : e.required_privatizations) std::printf(" %u", m);
    std::printf("\n");
  }
  std::printf("checker_calls: %llu\ncache_hits: %llu\n",
              (unsigned long long)resp.checker_calls,
              (unsigned long long)resp.cache_hits);
  return 0;
}

int RunDump(int argc, char** argv) {
  if (argc != 2) return Usage();
  const std::string name = argv[0];
  const char* path = argv[1];

  // The same fixed-seed families a daemon compiles in: serializing from
  // here and REGISTERing elsewhere reproduces the built-in byte for byte.
  provview::WorkflowRegistry registry;
  registry.RegisterBuiltins();
  const auto entry = registry.Find(name);
  if (entry == nullptr) {
    std::fprintf(stderr, "dump: unknown builtin '%s' (have:", name.c_str());
    for (const std::string& n : registry.Names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 1;
  }
  std::string bytes;
  const Status s = provview::SerializeWorkflowBinary(*entry->workflow, &bytes);
  if (!s.ok()) {
    std::fprintf(stderr, "dump: %s\n", s.message().c_str());
    return 3;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "dump: cannot write %s\n", path);
    return 1;
  }
  std::printf("dumped %s: %zu bytes, %d attrs, %d modules\n", name.c_str(),
              bytes.size(), entry->workflow->num_attrs(),
              entry->workflow->num_modules());
  return 0;
}

int RunRegister(PodsClient& client, int argc, char** argv) {
  if (argc != 2) return Usage();
  const char* name = argv[0];
  const char* path = argv[1];
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "register: cannot read %s\n", path);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  provview::RegisterResponse resp;
  const Status s = client.Register(name, buf.str(), &resp);
  if (!s.ok()) {
    std::fprintf(stderr, "register: [%d] %s\n", static_cast<int>(s.code()),
                 s.message().c_str());
    return 3;
  }
  std::printf("registered %s: %u attrs, %u modules (%u private)\n", name,
              resp.num_attrs, resp.num_modules, resp.num_private_modules);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  if (std::strcmp(argv[1], "solve") == 0) {
    return RunSolve(argc - 2, argv + 2);  // offline: no port, no daemon
  }
  if (std::strcmp(argv[1], "dump") == 0) {
    return RunDump(argc - 2, argv + 2);  // offline: no port, no daemon
  }
  const long port = std::strtol(argv[1], nullptr, 10);
  if (port <= 0 || port > 65535) return Usage();

  PodsClient client;
  const Status connected = client.Connect(static_cast<uint16_t>(port));
  if (!connected.ok()) {
    std::fprintf(stderr, "podsctl: %s\n", connected.message().c_str());
    return 1;
  }

  const std::string cmd = argv[2];
  if (cmd == "ping") {
    const Status s = client.Ping();
    if (!s.ok()) {
      std::fprintf(stderr, "ping: %s\n", s.message().c_str());
      return 3;
    }
    std::printf("pong\n");
    return 0;
  }
  if (cmd == "stat") {
    StatSnapshot stats;
    const Status s = client.Stat(&stats);
    if (!s.ok()) {
      std::fprintf(stderr, "stat: %s\n", s.message().c_str());
      return 3;
    }
    for (const auto& [key, value] : stats) {
      std::printf("%-22s %llu\n", key.c_str(), (unsigned long long)value);
    }
    return 0;
  }
  if (cmd == "certify" && argc >= 4) {
    return RunCertify(client, argc - 3, argv + 3);
  }
  if (cmd == "register") {
    return RunRegister(client, argc - 3, argv + 3);
  }
  if (cmd == "unregister" && argc == 4) {
    const Status s = client.Unregister(argv[3]);
    if (!s.ok()) {
      std::fprintf(stderr, "unregister: [%d] %s\n", static_cast<int>(s.code()),
                   s.message().c_str());
      return 3;
    }
    std::printf("unregistered %s\n", argv[3]);
    return 0;
  }
  return Usage();
}
