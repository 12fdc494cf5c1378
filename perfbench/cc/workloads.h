// The workloads. Each one generates its inputs from the seed and its
// oracle's expected answers (untimed), sets the program up (timed as
// setup_s), drives a closed loop for a fixed window, and checks every
// output it received against the oracle.
#ifndef PERFBENCH_CC_WORKLOADS_H_
#define PERFBENCH_CC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"

namespace perfbench {

struct WindowResult {
  std::vector<LatencyLog> logs;
  int64_t attempted = 0;  // items attempted
  int64_t failed = 0;     // items whose request failed or was refused
  std::vector<std::string> errors;  // oracle violations
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Seeded inputs and the oracle's expected outputs. Not timed.
  virtual bool Prepare(uint64_t seed, std::string* error) = 0;
  // The program's set-up before the first timed item. Timed; may be called
  // again, and each call replaces the previous set-up.
  virtual bool Setup(std::string* error) = 0;
  // Closed loop from clock->Start() until the clock is done.
  virtual WindowResult Window(SliceClock* clock) = 0;
  // The fixed prefix of this workload's inputs the layer probes replay.
  virtual ProbeSet Probes() = 0;
  virtual void Teardown() = 0;
};

// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_CC_WORKLOADS_H_
