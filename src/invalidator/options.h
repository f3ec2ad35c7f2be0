#ifndef CACHEPORTAL_INVALIDATOR_OPTIONS_H_
#define CACHEPORTAL_INVALIDATOR_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "common/clock.h"
#include "invalidator/overload.h"
#include "invalidator/policy.h"

namespace cacheportal::invalidator {

/// Tunables of the invalidation process.
struct InvalidatorOptions {
  /// Group a delta's tuples into one batched analysis / polling query per
  /// (instance, table) — the paper's group processing. When false every
  /// tuple is analyzed and polled separately (the ablation baseline).
  bool batch_deltas = true;
  /// Per-cycle polling budget; instances beyond it are invalidated
  /// conservatively. 0 = unlimited.
  size_t max_polls_per_cycle = 0;
  /// When > 0, the invalidator maintains an internal data cache of this
  /// capacity for its polling queries (Section 2.2) instead of hitting
  /// the DBMS for every poll. Ignored while SetPollingConnection() has
  /// installed an external connection.
  size_t polling_cache_capacity = 0;
  /// Worker threads for the parallel invalidation pipeline: per-instance
  /// impact analysis, polling-query execution, and per-sink message
  /// delivery fan out across this many threads. 1 (the default) runs the
  /// cycle serially on the calling thread. Invalidation decisions are
  /// identical at any worker count (per-instance work is independent
  /// given the batch's deltas, and results merge in deterministic
  /// instance order); only wall-clock time changes.
  size_t worker_threads = 1;
  /// Thresholds for discovered (self-tuning) cacheability policies.
  PolicyThresholds thresholds;
  /// Overload control: the adaptive degradation ladder that keeps cache
  /// staleness bounded under update storms (disabled by default).
  OverloadOptions overload;
  /// Allow the exact single-table strategy tier: eligible templates
  /// (single FROM table, no aggregation/self-join, WHERE decidable from
  /// one row under 3VL, all references schema-resolved) are invalidated
  /// exactly from the delta's old/new row images — no impact-analysis
  /// fan-out, no polling, no false ejects — instead of the conservative
  /// path (DESIGN.md §16). Off = every type lands on the tier it had
  /// before the strategy seam existed (the differential-test oracle).
  bool exact_strategy = true;
  /// Merge the residual polls of instances sharing a query type and a
  /// polling target into one disjunctive polling query per chunk,
  /// demultiplexing the result rows per instance in-process — O(types)
  /// DBMS round trips instead of O(polling instances). Which pages get
  /// invalidated is unchanged, and polls_issued still counts the
  /// logical member polls the serial path would have issued (identical
  /// at every chunk size); only MatcherStats' poll_round_trips (and, on
  /// poll failure, the blast radius of conservatism) differs.
  bool consolidate_polls = true;
  /// Maximum member polls folded into one consolidated query (0 =
  /// unlimited). Bounds the disjunction's size.
  size_t consolidated_poll_chunk = 64;
};

/// Counters of the compiled matching layer (kept out of StatsReport,
/// which holds only the decision counters the differential tests diff).
struct MatcherStats {
  uint64_t types_compiled = 0;   // Templates analyzed.
  uint64_t types_handled = 0;    // ... that produced >= 1 anchor.
  uint64_t probes = 0;           // (tuple, type, table) index probes.
  uint64_t tuples_excluded = 0;  // (instance, tuple) pairs proven
                                 // unaffected with zero AST work.
  uint64_t instances_short_circuited = 0;  // (instance, table) analyses
                                           // skipped entirely.
  uint64_t consolidated_polls = 0;    // Merged polling statements issued.
  uint64_t consolidated_members = 0;  // Residual polls folded into them.
  uint64_t poll_round_trips = 0;      // Polling statements sent to the
                                      // target (consolidation merges
                                      // many member polls into one).
  uint64_t batch_probes = 0;        // (type, table) columnar probes.
  uint64_t batch_kernel_evals = 0;  // Index entries evaluated by a
                                    // whole-column kernel pass.
  uint64_t batch_merge_probes = 0;  // Sorted/hashed probe-key merge
                                    // steps against the index's maps.
  uint64_t fast_path_instances = 0;  // Instances skipped before the
                                     // analysis fan-out (no candidate
                                     // rows anywhere in the cycle).
  uint64_t delta_join_pairs = 0;  // (r, s) delta pairs folded in process
                                 // when a batch changed two FROM tables.
  uint64_t delta_join_hits = 0;   // ... that decided an instance affected.
  /// Per-reason tally of templates the compiler declined to anchor
  /// (TypeMatcher::fallback_reason()), aggregated at compile time so
  /// tier demotions are observable without a debugger.
  std::map<std::string, uint64_t> fallback_reasons;
};

/// Lifetime counters for the whole invalidator.
struct InvalidatorStats {
  uint64_t cycles = 0;
  uint64_t updates_processed = 0;       // Update-log records consumed.
  uint64_t instances_registered = 0;    // From QI/URL map scans.
  uint64_t instance_checks = 0;         // (instance, delta) analyses.
  uint64_t affected_immediately = 0;    // Decided without polling.
  uint64_t unaffected = 0;
  uint64_t polls_issued = 0;            // Polling queries sent to the DBMS.
  uint64_t polls_answered_by_index = 0; // Avoided via join indexes.
  uint64_t poll_hits = 0;               // Polls that confirmed impact.
  uint64_t conservative_invalidations = 0;  // Budget exceeded.
  uint64_t emergency_flushes = 0;       // Instances flushed table-scoped.
  uint64_t pages_invalidated = 0;
  uint64_t messages_sent = 0;
  uint64_t send_failures = 0;           // Sinks that rejected a message.
};

/// Per-cycle summary returned by RunCycle.
struct CycleReport {
  uint64_t updates = 0;
  uint64_t new_instances = 0;
  uint64_t checks = 0;
  uint64_t affected_instances = 0;
  uint64_t polls_issued = 0;
  uint64_t polls_answered_by_index = 0;
  uint64_t conservative_invalidations = 0;
  uint64_t pages_invalidated = 0;
  /// Degradation rung this cycle ran under (kNormal unless the overload
  /// controller is enabled and escalated).
  DegradationMode mode = DegradationMode::kNormal;
  Micros duration = 0;
};

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_OPTIONS_H_
