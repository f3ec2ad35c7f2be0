#ifndef CACHEPORTAL_INVALIDATOR_CYCLE_H_
#define CACHEPORTAL_INVALIDATOR_CYCLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "db/database.h"
#include "db/delta.h"
#include "invalidator/impact.h"
#include "invalidator/info_manager.h"
#include "invalidator/metadata_plane.h"
#include "invalidator/options.h"
#include "invalidator/overload.h"
#include "invalidator/polling_cache.h"
#include "invalidator/scheduler.h"
#include "invalidator/sinks.h"
#include "sniffer/qiurl_map.h"
#include "sql/ast.h"
#include "sql/column_batch.h"

namespace cacheportal::invalidator {

/// The degradation rung, resolved into the concrete knobs each stage
/// reads — overload behavior is a policy OBJECT the stages consume, not
/// inline mode branches scattered through the cycle.
struct StagePolicy {
  DegradationMode mode = DegradationMode::kNormal;
  /// This cycle's polling budget (0 = unlimited). Already shrunk when
  /// the rung is kEconomy.
  size_t poll_budget = 0;
  /// Skip polling entirely; every undecided instance is condemned
  /// (kConservative, or kEconomy with a zero economy budget).
  bool skip_polls = false;
  /// Skip analysis too: table-scoped flush of every instance reading a
  /// backlogged table (kEmergency).
  bool flush_only = false;
  /// Exact-tier types keep their precise row-image analysis under this
  /// rung. True on every rung but kEmergency: the exact tier issues no
  /// polls, so the economy/conservative poll-budget rungs have nothing
  /// to take from it; only a flush-everything emergency overrides its
  /// verdicts (DESIGN.md §16).
  bool exact_exempt = true;
};

/// Resolves a rung into the stage knobs, using the configured budgets.
StagePolicy MakeStagePolicy(DegradationMode mode,
                            const InvalidatorOptions& options);

/// One instance's slot in the parallel analysis fan-out: read-only inputs
/// set up serially, verdict written by exactly one worker, stats merged
/// serially afterwards — in instance order, so cycle results are
/// identical at every worker count.
struct InstanceAnalysis {
  // Inputs.
  uint64_t type_id = 0;
  uint64_t instance_id = 0;
  const QueryInstance* instance = nullptr;
  /// The type's strategy tier is kExact (and the policy honors it):
  /// decided by ExactInstanceAffected from row images — no impact
  /// fan-out, no polling, never condemned conservatively.
  bool exact = false;

  /// The batch changed exactly two distinct FROM tables of the type:
  /// their views in CycleContext::merged, for the in-process pair term.
  std::optional<std::pair<size_t, size_t>> delta_join;

  // Verdict.
  Status status;                   // Analysis error, reported at merge.
  bool multi_table_guard = false;  // Ejected unpolled (see ImpactStage).
  bool checked = false;
  bool affected = false;           // Decided by condition analysis.
  bool index_affected = false;     // Decided by a join-index answer.
  uint64_t index_answers = 0;      // Polls answered without the DBMS.
  std::vector<std::unique_ptr<sql::SelectStatement>> remaining_polls;
  size_t affected_pages = 0;       // Cached pages riding on the verdict.
  Micros check_time = 0;
  // Matcher bookkeeping (merged serially into MatcherStats).
  uint64_t matcher_excluded = 0;        // Tuples pruned before analysis.
  uint64_t matcher_short_circuits = 0;  // Tables decided with no AST work.
  uint64_t delta_join_pairs = 0;        // Pairs the pair term folded.
  bool delta_join_hit = false;          // ... one of which decided it.
};

/// The state one synchronization cycle threads through its stages.
/// IngestStage fills the top, ImpactStage turns deltas into verdicts and
/// polling tasks, PollStage decides the undecided, DeliverStage turns
/// `affected` into eject messages. Each stage reads what earlier stages
/// wrote and nothing else, so any stage is testable in isolation by
/// hand-building its input context.
struct CycleContext {
  /// Cycle start time (times report.duration).
  Micros start = 0;
  /// The degradation rung, resolved into stage knobs.
  StagePolicy policy;
  /// The summary RunCycle returns; every stage contributes counters.
  CycleReport report;
  /// False after IngestStage when the update log had nothing — the
  /// remaining stages are skipped (registration still happened).
  bool proceed = false;

  // ---- IngestStage output. ----
  db::DeltaSet deltas;
  /// One merged tuple view per updated table, borrowed by every
  /// analysis.
  std::vector<TableTuples> merged;
  /// Columnar materialization of `merged` (parallel by index). Borrows
  /// the same rows as `merged`.
  std::vector<sql::ColumnBatch> batch_columns;

  // ---- ImpactStage output. ----
  /// The per-instance work list (the instances the probes could not
  /// rule out) with verdicts merged in.
  std::vector<InstanceAnalysis> work;
  /// Ids (QueryInstance::instance_id) of every instance decided affected
  /// so far. Unordered: delivery sorts them by SQL text.
  std::unordered_set<uint64_t> affected;
  /// Undecided instances' polling work, handed to PollStage.
  std::vector<PollingTask> tasks;
};

/// Everything the stages borrow from the invalidator that owns them.
/// All pointers are non-owning; `pool`, `polling_cache`, and `overload`
/// may be null. A test can hand-build one of these around fixture
/// objects to run a single stage in isolation.
struct StageEnv {
  db::Database* database = nullptr;
  /// Shares its IdInterner with `plane` (MetadataPlane's `ids`).
  sniffer::QiUrlMap* map = nullptr;
  const Clock* clock = nullptr;
  const InvalidatorOptions* options = nullptr;
  MetadataPlane* plane = nullptr;
  InformationManager* info = nullptr;
  const InvalidationScheduler* scheduler = nullptr;
  PollingDataCache* polling_cache = nullptr;
  ThreadPool* pool = nullptr;
  OverloadController* overload = nullptr;
  const std::vector<InvalidationSink*>* sinks = nullptr;
  InvalidatorStats* stats = nullptr;
  /// Cycle-side matcher counters (probes, exclusions, consolidation);
  /// the compile-side counters live in the metadata plane.
  MatcherStats* cycle_matcher_stats = nullptr;
  uint64_t* last_update_seq = nullptr;
  /// QiUrlMap epoch snapshot from the last ingest scan; lets the next
  /// scan skip ReadSince when the row set is untouched. May be null
  /// (always scan); nullopt forces the next scan (e.g. after Restore).
  std::optional<uint64_t>* last_map_epoch = nullptr;
  /// True when the next retire step must check every live instance, not
  /// just the QI/URL map's orphan feed: after Restore, recovered
  /// instances may reference pages a rebuilt map never had. Cleared by
  /// the sweep. May be null (every cycle sweeps).
  bool* retire_sweep_due = nullptr;
  /// Executes one polling query against the configured target. Must be
  /// safe to call from pool workers.
  std::function<Result<db::QueryResult>(const std::string&)> execute_poll;
  /// Reads this planning point's overload signals (unused when
  /// `overload` is null).
  std::function<OverloadSignals()> observe_signals;
};

/// Runs fn(i) for i in [0, n): inline when `pool` is null or n <= 1,
/// sharded across the pool otherwise.
inline void RunStageParallel(ThreadPool* pool, size_t n,
                             const std::function<void(size_t)>& fn) {
  if (pool == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->ParallelFor(n, fn);
}

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_CYCLE_H_
