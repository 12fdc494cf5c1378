// The traced run's layer probes. Each probe times calls into one layer's
// public functions from the benchmark's own code, on a fixed prefix of the
// workload's seeded inputs (a ProbeSet), so no program file is touched.
#ifndef PERFBENCH_CC_LAYERS_H_
#define PERFBENCH_CC_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bitset64.h"
#include "harness.h"
#include "privacy/workflow_privacy.h"
#include "server/protocol.h"
#include "workflow/workflow.h"

namespace provview {
class TaskGraphExecutor;
}

namespace perfbench {

struct ProbeWorkflow {
  std::string name;
  provview::CatalogPtr catalog;
  std::shared_ptr<const provview::Workflow> workflow;
  std::string pvwf;                       // SerializeWorkflowBinary bytes
  std::vector<provview::Bitset64> masks;  // hidden sets, Γ = kGamma
};

struct ProbeSet {
  // Inputs of the certification, server, codec and optimizer probes.
  std::vector<ProbeWorkflow> workflows;
  // Inputs of the enumeration probes: workflows whose ground truth is
  // tractable (the workload's own when it has such, otherwise fig1).
  std::vector<ProbeWorkflow> worlds;
  // Port of a running podsd for the round-trip probes.
  uint16_t port = 0;
};

inline constexpr int64_t kGamma = 2;

// Exact work counts of one probe pass; every pass must agree.
struct LayerCounts {
  int64_t checker_calls = 0;
  int64_t cache_hits = 0;
  int64_t bnb_nodes = 0;
  int64_t pruned_candidates = 0;
  bool operator==(const LayerCounts&) const = default;
};

// Runs every layer probe (the privacy, optimizer and enumeration passes
// five times, two of them timed, as the exact-count tripwire) and appends
// the per-layer metrics and tracing_overhead_ratio to `report`.
// Oracle violations and count mismatches mark the report incorrect.
void RunLayerProbes(const ProbeSet& probes, provview::TaskGraphExecutor* exec,
                    Report* report);

// Fills `out->pvwf` from its workflow; false if the codec refuses it.
bool SerializeProbe(ProbeWorkflow* out);

// Engine requests for `masks`, each at Γ = kGamma.
std::vector<provview::WorkflowCertificationRequest> Requests(
    const std::vector<provview::Bitset64>& masks);

// A wire CERTIFY request for workflow `name` over masks[begin, end).
provview::CertifyRequest WireBatch(const std::string& name,
                                   const std::vector<provview::Bitset64>& masks,
                                   size_t begin, size_t end);

}  // namespace perfbench

#endif  // PERFBENCH_CC_LAYERS_H_
