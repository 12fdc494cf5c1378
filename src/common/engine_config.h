// Shared execution knobs of the privacy engines, defined once so one
// configuration threads through a pipeline of engine calls. The per-engine
// option structs (WorkflowTablesOptions, SubsetSearchOptions,
// WorkflowEnumerationOptions, WorkflowBatchOptions) embed it as a base.
// Parallel work always runs as a TaskGraph: inline when num_threads
// resolves to 1, otherwise on `executor` or a private executor per call
// (see EngineExecutor in common/task_graph.h).
#ifndef PROVVIEW_COMMON_ENGINE_CONFIG_H_
#define PROVVIEW_COMMON_ENGINE_CONFIG_H_

#include <cstdint>

namespace provview {

class ExecControl;
class TaskGraphExecutor;

/// Execution knobs common to every privacy engine. Engines read the subset
/// that applies to them and document any engine-specific interpretation in
/// their derived options struct.
struct EngineConfig {
  /// Worker threads. 0 = hardware concurrency, 1 = fully sequential.
  int num_threads = 1;

  /// Optional shared executor (e.g. the daemon's). nullptr = a private
  /// executor per call sized so the calling thread plus its workers total
  /// num_threads runners.
  TaskGraphExecutor* executor = nullptr;

  /// Optional deadline/cancellation/memory-budget token (service mode).
  /// Engines poll it at chunk/level boundaries and surface a trip as a
  /// typed Status instead of a PV_CHECK abort.
  const ExecControl* control = nullptr;
};

}  // namespace provview

#endif  // PROVVIEW_COMMON_ENGINE_CONFIG_H_
