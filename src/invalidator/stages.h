#ifndef CACHEPORTAL_INVALIDATOR_STAGES_H_
#define CACHEPORTAL_INVALIDATOR_STAGES_H_

#include "common/status.h"
#include "invalidator/cycle.h"

namespace cacheportal::invalidator {

/// The four typed stages RunCycle is composed of. Each takes the
/// CycleContext explicitly, reads only what earlier stages wrote, and is
/// constructible standalone around a StageEnv — which is how the stage
/// isolation tests drive them. Running Ingest → Impact → Poll → Deliver
/// in order is exactly the historical monolithic cycle.

/// Plans the degradation rung, scans the QI/URL map for new query
/// instances (registering them in the metadata plane), retires
/// instances the map's orphan feed reports page-less, pulls the update
/// log, and builds the delta set + merged tuple views. Sets
/// ctx.proceed = false when the log had nothing new.
class IngestStage {
 public:
  explicit IngestStage(StageEnv env) : env_(std::move(env)) {}
  Status Run(CycleContext& ctx);

 private:
  StageEnv env_;
};

/// Impact analysis (Section 4.1.2's grouping): probes the bind indexes
/// for candidates, fans the per-instance verdicts across the pool, and
/// merges them into stats and polling tasks — or, on the emergency rung,
/// table-scope flushes without analysis.
class ImpactStage {
 public:
  explicit ImpactStage(StageEnv env) : env_(std::move(env)) {}
  Status Run(CycleContext& ctx);

 private:
  StageEnv env_;
};

/// Schedules the polling tasks under the rung's budget, condemns the
/// overflow conservatively, consolidates mergeable polls into
/// disjunctions, executes everything across the pool, and merges the
/// poll verdicts into ctx.affected.
class PollStage {
 public:
  explicit PollStage(StageEnv env) : env_(std::move(env)) {}
  Status Run(CycleContext& ctx);

 private:
  StageEnv env_;
};

/// Builds the deduplicated eject messages from ctx.affected, fans
/// delivery across the sinks, removes ejected pages from the QI/URL map,
/// and retires instances left page-less.
class DeliverStage {
 public:
  explicit DeliverStage(StageEnv env) : env_(std::move(env)) {}
  Status Run(CycleContext& ctx);

 private:
  StageEnv env_;
};

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_STAGES_H_
