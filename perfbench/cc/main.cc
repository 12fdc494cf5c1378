// perfbench: one run of one benchmark workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --podsd PATH
//
// Untraced (--trace 0): set up the program eleven times (setup_s is their
// median), run the workload's closed loop until it has measured S seconds
// of quiet host time or 3 S in all (see SliceClock), check every output
// against the oracle, and print the end-to-end metrics.
// Traced (--trace 1): set up once, run the loop for S seconds with the
// oracle on, then replay a fixed prefix of the workload's inputs through
// the layer probes and print the per-layer metrics. The probes run after
// the loop, so the timed loop carries no tracing.
//
// The last line of stdout is the JSON result; the host fingerprint and any
// oracle violation go on earlier lines (stdout and stderr respectively).
// Exit code 0 when the run completed and every output was correct.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/task_graph.h"
#include "harness.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-ups a run times, and the most it tries: a set-up during which the
// hypervisor stole more than SliceClock::kQuietSteal of the CPU time is
// repeated, as long as tries remain.
constexpr int kSetupRepeats = 11;
constexpr int kMaxSetups = 41;
// An untraced window may stretch to this multiple of --seconds while it
// waits for quiet slices.
constexpr double kMaxStretch = 3.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string podsd;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (key == "--podsd") {
      args->podsd = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         !args->podsd.empty();
}

void Absorb(const WindowResult& w, Report* report) {
  report->attempted += w.attempted;
  report->failed += w.failed;
  for (const std::string& e : w.errors) report->Fail(e);
}

// The median-worthy set-up times: the first kSetupRepeats set-ups with
// no stolen CPU time, or, when too few were quiet within kMaxSetups, the
// kSetupRepeats least stolen. False (with *error) if a set-up fails.
bool TimeSetups(Workload* workload, std::vector<double>* setup_s,
                std::string* error) {
  std::vector<std::pair<double, double>> runs;  // (steal share, seconds)
  int quiet = 0;
  for (int i = 0; i < kMaxSetups && quiet < kSetupRepeats; ++i) {
    workload->Teardown();
    const double stolen0 = StolenCpuSeconds();
    const auto t0 = Clock::now();
    if (!workload->Setup(error)) return false;
    const double seconds = SecondsSince(t0);
    const double steal =
        (StolenCpuSeconds() - stolen0) / (seconds * HardwareThreads());
    if (steal <= SliceClock::kQuietSteal) ++quiet;
    runs.push_back({steal, seconds});
  }
  std::stable_sort(
      runs.begin(), runs.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  runs.resize(std::min(runs.size(), static_cast<size_t>(kSetupRepeats)));
  for (const auto& r : runs) setup_s->push_back(r.second);
  return true;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("%s workload=%s seed=%llu seconds=%g trace=%d\n",
              HostFingerprint(kPodsdFlags).c_str(), args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::string error;
  if (!workload->Prepare(args.seed, &error)) {
    std::fprintf(stderr, "prepare: %s\n", error.c_str());
    return 1;
  }
  Report report;
  if (!args.trace) {
    std::vector<double> setup_s;
    if (!TimeSetups(workload.get(), &setup_s, &error)) {
      std::fprintf(stderr, "setup: %s\n", error.c_str());
      return 1;
    }
    SliceClock clock(args.seconds, kMaxStretch * args.seconds);
    const WindowResult w = workload->Window(&clock);
    Absorb(w, &report);
    // The workloads run the engines in this process.
    const double rss = PeakRssMb();
    workload->Teardown();
    const std::vector<double> rates =
        AddEndToEnd(&report, clock, w.logs, setup_s, rss);
    // Each slice's throughput and the share of CPU time other tenants
    // took in it; '*' marks the slices the metrics were taken over.
    std::vector<bool> counted(rates.size(), false);
    for (size_t i : clock.Chosen()) counted[i] = true;
    std::printf("perfbench host load: %d of %zu slices quiet (steal <= %.1f%%) "
                "in %.1f s; items/s@steal%% per slice:",
                clock.quiet_slices(), clock.slices().size(),
                100.0 * SliceClock::kQuietSteal,
                clock.slices().empty() ? 0.0 : clock.slices().back().end_s);
    for (size_t i = 0; i < rates.size(); ++i) {
      std::printf(" %.1f@%.1f%s", rates[i], 100.0 * clock.slices()[i].steal,
                  counted[i] ? "*" : "");
    }
    std::printf("\n");
  } else {
    if (!workload->Setup(&error)) {
      std::fprintf(stderr, "setup: %s\n", error.c_str());
      return 1;
    }
    SliceClock clock(args.seconds, args.seconds);
    Absorb(workload->Window(&clock), &report);
    ProbeSet probes = workload->Probes();
    PodsdProcess probe_daemon;  // for the wire round-trip probes
    if (!probe_daemon.Start(args.podsd, &error)) {
      std::fprintf(stderr, "probe daemon: %s\n", error.c_str());
      return 1;
    }
    probes.port = probe_daemon.port();
    const int workers = HardwareThreads() - 1;
    std::unique_ptr<provview::TaskGraphExecutor> exec;
    if (workers > 0) exec = std::make_unique<provview::TaskGraphExecutor>(workers);
    RunLayerProbes(probes, exec.get(), &report);
    probe_daemon.Stop();
    workload->Teardown();
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "oracle violation: %s\n", e.c_str());
  }
  std::printf("%s\n", ReportJson(report).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --podsd PATH\n");
    return 2;
  }
  return perfbench::Run(args);
}
