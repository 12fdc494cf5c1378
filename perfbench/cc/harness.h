// Shared plumbing for the benchmark binary: clocks, percentiles, the
// metric report printed as the last line of stdout, the host fingerprint,
// and a child podsd process owned for the length of a run.
#ifndef PERFBENCH_CC_HARNESS_H_
#define PERFBENCH_CC_HARNESS_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Nearest-rank percentile (p in [0, 100]); sorts a copy.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

// Engine width used by the library workloads and the layer probes: the
// engines' own default, hardware concurrency.
int HardwareThreads();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One run's result. Printed as the JSON object the benchmark contract asks
// for: {"correct", "attempted", "failed", "metrics"}.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // oracle violations, printed to stderr

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

std::string ReportJson(const Report& report);

// The measured window of a run, cut into slices of kSliceSeconds of
// measured time. Each slice records the share of the VM's CPU time the
// hypervisor stole while it ran (the steal column of /proc/stat). The
// window ends once it holds `wanted` quiet slices (steal at most
// kQuietSteal) or has measured `max_seconds`, whichever comes first. The
// end-to-end metrics are taken over the quiet slices, or over the `wanted`
// least-stolen slices when too few were quiet: a neighbour's busy spell
// then stretches a run instead of moving its figures.
//
// Measured time is wall time since Start(), less any time spent between
// Pause() and Resume() (a single-threaded workload's own untimed work).
// Poll() and Pause()/Resume() are called from one thread; Elapsed() and
// done() from any.
class SliceClock {
 public:
  static constexpr double kSliceSeconds = 1.0;
  static constexpr double kQuietSteal = 0.005;

  struct Slice {
    double begin_s = 0.0;  // measured time the slice began
    double end_s = 0.0;    // and ended
    double steal = 0.0;    // stolen CPU time / (slice wall time x nproc)
  };

  // `seconds` of quiet slices wanted, within at most `max_seconds`.
  SliceClock(double seconds, double max_seconds);

  void Start();
  double Elapsed() const;  // measured seconds since Start()
  // Closes the slice measured time has passed, if any; true (and done())
  // once the window is over.
  bool Poll();
  bool done() const { return done_.load(std::memory_order_acquire); }
  void Pause();
  void Resume();

  const std::vector<Slice>& slices() const { return slices_; }
  // Indices of the slices the metrics are taken over.
  std::vector<size_t> Chosen() const;
  int quiet_slices() const;

 private:
  int wanted_;
  double max_seconds_;
  Clock::time_point start_;
  std::atomic<int64_t> paused_ns_{0};
  Clock::time_point pause_at_;
  std::atomic<bool> done_{false};
  double slice_begin_s_ = 0.0;
  double slice_stolen_s_ = 0.0;  // stolen in the open slice so far
  double slice_wall_s_ = 0.0;    // wall seconds of the open slice before
                                 // its last Pause()
  double stolen_mark_ = 0.0;     // StolenCpuSeconds() at the last reading
  std::vector<Slice> slices_;
};

// Closed-loop latency record shared by every workload: one sample per
// request (or batch), failures kept separately so they count as missing
// every latency bound.
struct LatencyLog {
  std::vector<double> ms;     // latency of each sample
  std::vector<double> at_s;   // SliceClock::Elapsed() when it completed
  std::vector<double> items;  // items each sample got right
  int64_t failed_samples = 0;

  void Add(double latency_ms, double at, double correct_items) {
    ms.push_back(latency_ms);
    at_s.push_back(at);
    items.push_back(correct_items);
  }
};

// Adds the six end-to-end metrics of a window measured by `clock`, over its
// chosen slices. Failed samples sort above every real latency (they are
// charged the whole window length). Returns every slice's throughput;
// items_per_s is the median of the chosen slices'.
std::vector<double> AddEndToEnd(Report* report, const SliceClock& clock,
                                const std::vector<LatencyLog>& logs,
                                const std::vector<double>& setup_s,
                                double peak_rss_mb);

// One line describing the host, the compiler and the daemon flags, so
// figures are only compared like for like.
std::string HostFingerprint(const std::string& podsd_flags);

// Seconds of CPU time the hypervisor has stolen from this VM, summed over
// its CPUs (the "steal" column of /proc/stat); 0 where it is not reported.
double StolenCpuSeconds();

// Peak resident set (VmHWM) of this process, in MB.
double PeakRssMb();

// A podsd child started with default flags on a kernel-assigned loopback
// port. The destructor stops it (SIGTERM) and reaps it.
class PodsdProcess {
 public:
  PodsdProcess() = default;
  ~PodsdProcess();
  PodsdProcess(const PodsdProcess&) = delete;
  PodsdProcess& operator=(const PodsdProcess&) = delete;

  // Spawns `binary` and waits for its "listening" line. False on failure,
  // with the reason in *error.
  bool Start(const std::string& binary, std::string* error);
  void Stop();

  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

// The flags the benchmark passes to podsd (none: daemon defaults).
inline constexpr const char* kPodsdFlags = "(defaults)";

}  // namespace perfbench

#endif  // PERFBENCH_CC_HARNESS_H_
