// podsd — the certification daemon, as a standalone binary.
//
//   podsd [--port=N] [--engine-threads=N] [--cache-bytes=N]
//         [--reactor-threads=N] [--memory-budget=N] [--max-pending=N]
//
// Binds 127.0.0.1 (port 0 = kernel-assigned, printed on stdout), serves the
// built-in workflow registry, and runs until SIGINT/SIGTERM. Pair with
// podsctl to talk to it:
//
//   $ podsd --port=7411 &
//   $ podsctl 7411 ping
//   $ podsctl 7411 certify fig1 gamma=2 hidden=3,4
//   $ podsctl 7411 stat
//
// --cache-bytes=N caps the shared verdict cache (measured bytes across all
// registered workflows; eviction only forgets verdicts). 0 = unbounded.
// --engine-threads=N sizes the shared engine executor (default: hardware
// concurrency minus one; a single-core host runs requests inline).
// --reactor-threads=N sizes the epoll front-end (default 2; thread count
// stays bounded no matter how many clients connect). --max-pending=N and
// --memory-budget=N size the request-level admission gate (depth units and
// shared engine bytes; 0 bytes = unbounded).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/daemon.h"
#include "server/registry.h"

int main(int argc, char** argv) {
  uint16_t port = 0;
  provview::PodsDaemon::Options options;
  long long cache_bytes = 0;  // 0 = unbounded
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--port=", 7) == 0) {
      const long v = std::strtol(arg + 7, nullptr, 10);
      if (v < 0 || v > 65535) {
        std::fprintf(stderr, "podsd: bad port '%s'\n", arg + 7);
        return 2;
      }
      port = static_cast<uint16_t>(v);
    } else if (std::strncmp(arg, "--engine-threads=", 17) == 0) {
      const long v = std::strtol(arg + 17, nullptr, 10);
      if (v < 0 || v > 1024) {
        std::fprintf(stderr, "podsd: bad engine thread count '%s'\n",
                     arg + 17);
        return 2;
      }
      options.engine_threads = static_cast<int>(v);
    } else if (std::strncmp(arg, "--cache-bytes=", 14) == 0) {
      cache_bytes = std::strtoll(arg + 14, nullptr, 10);
      if (cache_bytes < 0) {
        std::fprintf(stderr, "podsd: bad cache byte budget '%s'\n",
                     arg + 14);
        return 2;
      }
    } else if (std::strncmp(arg, "--reactor-threads=", 18) == 0) {
      const long v = std::strtol(arg + 18, nullptr, 10);
      if (v < 1 || v > 1024) {
        std::fprintf(stderr, "podsd: bad reactor thread count '%s'\n",
                     arg + 18);
        return 2;
      }
      options.reactor_threads = static_cast<int>(v);
    } else if (std::strncmp(arg, "--memory-budget=", 16) == 0) {
      options.memory_budget = std::strtoll(arg + 16, nullptr, 10);
      if (options.memory_budget < 0) {
        std::fprintf(stderr, "podsd: bad memory budget '%s'\n", arg + 16);
        return 2;
      }
    } else if (std::strncmp(arg, "--max-pending=", 14) == 0) {
      options.max_pending = std::strtoll(arg + 14, nullptr, 10);
      if (options.max_pending < 0) {
        std::fprintf(stderr, "podsd: bad admission depth '%s'\n", arg + 14);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: podsd [--port=N] [--engine-threads=N] "
                   "[--cache-bytes=N] [--reactor-threads=N] "
                   "[--memory-budget=N] [--max-pending=N]\n");
      return 2;
    }
  }

  // Block the termination signals BEFORE starting threads so every thread
  // inherits the mask and sigwait below is the only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  provview::VerdictCacheConfig cache_config;
  if (cache_bytes > 0) cache_config.byte_budget = cache_bytes;
  provview::WorkflowRegistry registry(cache_config);
  registry.RegisterBuiltins();

  provview::PodsDaemon daemon(&registry, options);
  const provview::Status started = daemon.Start(port);
  if (!started.ok()) {
    std::fprintf(stderr, "podsd: %s\n", started.message().c_str());
    return 1;
  }

  std::printf("podsd listening on 127.0.0.1:%u\n", daemon.port());
  std::printf("workflows:");
  for (const std::string& name : registry.Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::printf("podsd: caught signal %d, shutting down\n", sig);
  daemon.Stop();
  return 0;
}
