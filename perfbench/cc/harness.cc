#include "harness.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  return samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

int HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string FirstLineWith(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return line;
  }
  return "";
}

}  // namespace

std::string ReportJson(const Report& report) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    out << (i == 0 ? "" : ", ") << '"' << JsonEscape(m.name)
        << "\": {\"value\": " << JsonNumber(m.value) << ", \"unit\": \""
        << JsonEscape(m.unit) << "\"}";
  }
  out << "}}";
  return out.str();
}

SliceClock::SliceClock(double seconds, double max_seconds)
    : wanted_(std::max(
          1, static_cast<int>(std::lround(seconds / kSliceSeconds)))),
      max_seconds_(std::max(seconds, max_seconds)) {}

void SliceClock::Start() {
  slices_.clear();
  slice_begin_s_ = 0.0;
  slice_stolen_s_ = 0.0;
  paused_ns_.store(0);
  done_.store(false);
  stolen_mark_ = StolenCpuSeconds();
  start_ = Clock::now();
}

double SliceClock::Elapsed() const {
  return SecondsSince(start_) - 1e-9 * static_cast<double>(paused_ns_.load());
}

void SliceClock::Pause() {
  pause_at_ = Clock::now();
  const double stolen = StolenCpuSeconds();
  slice_stolen_s_ += stolen - stolen_mark_;
  stolen_mark_ = stolen;
}

void SliceClock::Resume() {
  stolen_mark_ = StolenCpuSeconds();
  paused_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - pause_at_)
                           .count());
}

bool SliceClock::Poll() {
  if (done()) return true;
  const double now = Elapsed();
  if (now - slice_begin_s_ < kSliceSeconds) return false;
  const double stolen = StolenCpuSeconds();
  slice_stolen_s_ += stolen - stolen_mark_;
  stolen_mark_ = stolen;
  const double cpu_s = (now - slice_begin_s_) * HardwareThreads();
  slices_.push_back({slice_begin_s_, now, slice_stolen_s_ / cpu_s});
  slice_begin_s_ = now;
  slice_stolen_s_ = 0.0;
  if (quiet_slices() >= wanted_ || now >= max_seconds_) {
    done_.store(true, std::memory_order_release);
  }
  return done();
}

int SliceClock::quiet_slices() const {
  return static_cast<int>(std::count_if(
      slices_.begin(), slices_.end(),
      [](const Slice& s) { return s.steal <= kQuietSteal; }));
}

std::vector<size_t> SliceClock::Chosen() const {
  std::vector<size_t> order(slices_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return slices_[a].steal < slices_[b].steal;
  });
  size_t keep = std::min(order.size(), static_cast<size_t>(wanted_));
  while (keep < order.size() && slices_[order[keep]].steal <= kQuietSteal) {
    ++keep;
  }
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<double> AddEndToEnd(Report* report, const SliceClock& clock,
                                const std::vector<LatencyLog>& logs,
                                const std::vector<double>& setup_s,
                                double peak_rss_mb) {
  const std::vector<SliceClock::Slice>& slices = clock.slices();
  const std::vector<size_t> chosen = clock.Chosen();
  std::vector<bool> counted(slices.size(), false);
  for (size_t i : chosen) counted[i] = true;
  std::vector<double> slice_items(slices.size(), 0.0);
  std::vector<double> all;
  int64_t failed = 0;
  for (const LatencyLog& log : logs) {
    failed += log.failed_samples;
    for (size_t i = 0; i < log.ms.size(); ++i) {
      // The slice a sample completed in; samples that completed after the
      // last slice closed lie outside the window.
      const auto it = std::upper_bound(
          slices.begin(), slices.end(), log.at_s[i],
          [](double t, const SliceClock::Slice& s) { return t < s.end_s; });
      if (it == slices.end()) continue;
      const size_t slice = static_cast<size_t>(it - slices.begin());
      slice_items[slice] += log.items[i];
      if (counted[slice]) all.push_back(log.ms[i]);
    }
  }
  std::vector<double> rates, chosen_rates;
  for (size_t i = 0; i < slices.size(); ++i) {
    rates.push_back(slice_items[i] / (slices[i].end_s - slices[i].begin_s));
    if (counted[i]) chosen_rates.push_back(rates.back());
  }
  // A refused or failed request misses every latency bound: charge it the
  // whole window.
  const double window_s = slices.empty() ? 0.0 : slices.back().end_s;
  all.insert(all.end(), static_cast<size_t>(failed), window_s * 1000.0);
  // p90 is reported only with at least ten samples beyond it.
  if (all.size() < 100) {
    report->Fail("only " + std::to_string(all.size()) +
                 " latency samples; p90 needs at least 100");
  }
  // Throughput is the median over the chosen slices, so a burst that
  // stalls one or two of them does not move it.
  report->Add("items_per_s", Median(chosen_rates), "1/s");
  report->Add("latency_p50_ms", Percentile(all, 50.0), "ms");
  report->Add("latency_p90_ms", Percentile(all, 90.0), "ms");
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
  double items = 0.0;
  for (const LatencyLog& log : logs) {
    for (double n : log.items) items += n;
  }
  report->Add("success_ratio",
              report->attempted == 0
                  ? 0.0
                  : items / static_cast<double>(report->attempted),
              "ratio");
  return rates;
}

std::string HostFingerprint(const std::string& podsd_flags) {
  std::string cpu = FirstLineWith("/proc/cpuinfo", "model name");
  const size_t colon = cpu.find(':');
  cpu = colon == std::string::npos ? "unknown" : cpu.substr(colon + 2);
  std::ostringstream out;
  out << "perfbench host: nproc=" << HardwareThreads() << " cpu=\"" << cpu
      << "\" compiler=\"" << __VERSION__ << "\" build_type="
      << PERFBENCH_BUILD_TYPE << " cxx_flags=\"" << PERFBENCH_CXX_FLAGS
      << "\" podsd_flags=\"" << podsd_flags << "\"";
  return out.str();
}

double StolenCpuSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};  // user nice system idle iowait irq softirq steal
  in >> cpu;
  for (double& f : fields) in >> f;
  return in ? fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

double PeakRssMb() {
  const std::string line = FirstLineWith("/proc/self/status", "VmHWM:");
  if (line.empty()) return 0.0;
  return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
}

PodsdProcess::~PodsdProcess() { Stop(); }

bool PodsdProcess::Start(const std::string& binary, std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::string arg0 = binary;
  char* argv[] = {arg0.data(), nullptr};
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    *error = "spawn " + binary + ": " + std::strerror(rc);
    return false;
  }
  pid_ = pid;
  out_fd_ = fds[0];

  // podsd prints "podsd listening on 127.0.0.1:<port>" once it accepts.
  std::string text;
  const std::string key = "listening on 127.0.0.1:";
  char buf[256];
  for (;;) {
    const size_t at = text.find(key);
    if (at != std::string::npos &&
        text.find('\n', at) != std::string::npos) {
      port_ = static_cast<uint16_t>(
          std::strtoul(text.c_str() + at + key.size(), nullptr, 10));
      return true;
    }
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<size_t>(n));
  }
  *error = "podsd exited before listening: " + text;
  Stop();
  return false;
}

void PodsdProcess::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  port_ = 0;
}

}  // namespace perfbench
