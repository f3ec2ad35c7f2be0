#ifndef CACHEPORTAL_INVALIDATOR_INVALIDATOR_H_
#define CACHEPORTAL_INVALIDATOR_INVALIDATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "db/database.h"
#include "http/message.h"
#include "invalidator/cycle.h"
#include "invalidator/info_manager.h"
#include "invalidator/metadata_plane.h"
#include "invalidator/options.h"
#include "invalidator/overload.h"
#include "invalidator/policy.h"
#include "invalidator/polling_cache.h"
#include "invalidator/registry.h"
#include "invalidator/scheduler.h"
#include "invalidator/sinks.h"
#include "server/jdbc.h"
#include "sniffer/qiurl_map.h"

namespace cacheportal::invalidator {

/// The CachePortal invalidator (Section 4): registration module (query
/// type registration + discovery from the QI/URL map), information
/// management module (policies, statistics, join indexes), and the
/// invalidation module (update processing into Δ-tables, impact analysis,
/// polling-query scheduling/generation, and invalidation message
/// generation). It runs entirely outside the web server, application
/// server, and DBMS, synchronizing by polling their logs.
///
/// Structure: registration metadata lives in one MetadataPlane
/// (metadata_plane.h), and RunCycle is the fixed composition of four
/// typed stages (stages.h) — IngestStage → ImpactStage → PollStage →
/// DeliverStage — threading one CycleContext through them.
///
/// Threading contract: RunCycle runs on ONE thread (the cycle thread) at
/// a time. Concurrently with a running cycle, other threads may safely
/// call RegisterInstance / IsQuerySqlCacheable / SetPollingConnection,
/// and the sniffer may Add to the QI/URL map — the plane's lock and the
/// map's internal lock serialize the touch points. In this library every
/// registration comes from the cycle thread (the ingest scan and the
/// restore drain); the sniffer writes only the map. Checkpoint / Restore
/// / StatsReport are cycle-thread-only.
class Invalidator {
 public:
  /// Observes `database`'s update log and the sniffer-maintained `map`.
  /// Nothing is owned; everything must outlive the invalidator.
  Invalidator(db::Database* database, sniffer::QiUrlMap* map,
              const Clock* clock, InvalidatorOptions options = {});

  Invalidator(const Invalidator&) = delete;
  Invalidator& operator=(const Invalidator&) = delete;

  /// Adds a cache to notify (not owned).
  void AddSink(InvalidationSink* sink);

  /// Directs polling queries to `connection` instead of the observed
  /// database — e.g. a middle-tier data cache maintained for the
  /// invalidator. Pass nullptr to return to direct execution.
  ///
  /// Call-during-cycle contract: safe to call from any thread at any
  /// time, including while a cycle is polling (the pointer is atomic
  /// with release/acquire ordering, and polls through the external
  /// connection are serialized by a mutex). Polls already in flight
  /// finish against the connection they picked up; `connection` must
  /// therefore stay alive until the cycle after the one during which it
  /// was replaced completes.
  void SetPollingConnection(server::Connection* connection) {
    polling_connection_.store(connection, std::memory_order_release);
  }

  /// Offline registration mode (Section 4.1.1): declare a query type.
  Status RegisterQueryType(const std::string& name,
                           const std::string& parameterized_sql);

  /// Registers a concrete query instance directly (the same path the
  /// QI/URL-map scan uses). Safe from any thread, concurrently with a
  /// running cycle — the metadata plane's lock serializes it.
  Status RegisterInstance(const std::string& sql);

  /// Registers a hard invalidation policy rule (Section 4.1.3).
  void AddPolicyRule(PolicyRule rule) { policy_.AddRule(std::move(rule)); }

  /// Maintains a join index on `table`.`column` for index-answered polls.
  Status CreateJoinIndex(const std::string& table, const std::string& column);

  /// One synchronization cycle: scan the QI/URL map for new query
  /// instances, pull new update-log records, analyze, poll, and send
  /// invalidation messages.
  Result<CycleReport> RunCycle();

  /// Cacheability verdict for a query instance's SQL (feedback consumed
  /// by the sniffer's servlet wrapper). Safe from any thread.
  bool IsQuerySqlCacheable(const std::string& sql) const;

  /// Update-log position this invalidator has consumed up to; the log
  /// owner may Truncate() everything at or below it once all other
  /// consumers are past it too.
  uint64_t consumed_update_seq() const { return last_update_seq_; }

  /// Serializes the invalidator's full resumption state — the durable
  /// store's snapshot payload, a commit delta's records for every type
  /// and sink plus the registry (grammar: invalidator.cc, DESIGN.md §12):
  /// the consumed update-log position, the QI/URL-map cursor,
  /// the lifetime counters, every query type (statistics, cacheability,
  /// name, canonical template, strategy tier), every live instance's SQL,
  /// and each CheckpointableSink's durable state (un-acked delivery-queue
  /// messages). Folds any pending restore ops in first. After a crash,
  /// build a fresh Invalidator (same database/map, sinks re-added in the
  /// same order) and Restore() to resume without missing an update.
  std::string Checkpoint();

  /// Rebuilds resumption state from Checkpoint() output. The blob is
  /// parsed and validated whole before anything changes, so a corrupt
  /// record returns ParseError and leaves the invalidator as it was
  /// (each sink validates its own opaque state the same way). The
  /// update-log cursor rewinds to the persisted position, so updates
  /// that committed after the checkpoint (including during the outage)
  /// are replayed — at least once, made safe by idempotent ejects.
  ///
  /// Each type's persisted strategy tier is pinned
  /// (MetadataPlane::InstallTier) before any instance re-registers, so
  /// the strategy census and dispatch match the dead process exactly.
  /// Types, statistics and map cursors rebuild eagerly (the cursors are
  /// clamped to the live map's last id — no rescan), while instance SQLs
  /// are queued and re-registered lazily by ApplyPendingRestore() (run
  /// automatically at the next cycle): restart-to-ready is O(types), not
  /// O(instances).
  Status Restore(const std::string& checkpoint);

  // ---- Durability seams (storage::DurableMetadataStore wiring). ----

  /// Change detector state for EncodeDurableDelta: what the last emitted
  /// delta said, so unchanged types/sinks are skipped.
  struct DurableDeltaBaseline {
    std::map<uint64_t, std::string> type_lines;
    std::map<size_t, std::string> sink_states;
  };

  /// Serializes the per-cycle durable delta — the commit record's
  /// payload: the consumed update-log position, the map cursors, the
  /// absolute lifetime counters, and only the types/sinks whose state
  /// changed since `baseline` (which is updated in place). O(active
  /// types + changed sinks) — flat in the instance count, which is what
  /// keeps commit cost and recovery O(delta).
  std::string EncodeDurableDelta(DurableDeltaBaseline* baseline);

  /// Applies a delta produced by EncodeDurableDelta, through the same
  /// parser as Restore: cursors, counters, and sink states apply
  /// immediately; per-type statistics are staged with the pending
  /// restore ops (their types may themselves still be queued) and land
  /// in ApplyPendingRestore().
  Status ApplyDurableDelta(const std::string& payload);

  /// Recovery replay: stages a registration/retirement recovered from
  /// the WAL, in order, without the parse cost of applying it now.
  void QueueRestoredRegistration(const std::string& sql);
  void QueueRestoredRetirement(const std::string& sql);
  /// Staged-but-unapplied restore work (ops + per-type stat overrides).
  size_t pending_restore_ops() const;
  /// Drains the staged restore work into the metadata plane: replays
  /// queued registrations/retirements in order (unparseable SQL is
  /// logged and skipped, matching the ingest scan), then overwrites the
  /// affected types' statistics with their persisted values. Runs
  /// automatically at the top of RunCycle and Checkpoint.
  void ApplyPendingRestore();

  /// Passthrough to the metadata plane's mutation observer — the
  /// durability coordinator's journaling hook. Null detaches.
  void SetMetadataMutationObserver(
      std::function<void(bool registered, const std::string& sql)> observer) {
    plane_.SetMutationObserver(std::move(observer));
  }

  /// When set, StatsReport() appends a "  storage: ..." line from this
  /// callback (the durable store's counters — recovery quarantine
  /// totals included).
  void SetStorageReporter(std::function<std::string()> reporter) {
    storage_reporter_ = std::move(reporter);
  }

  /// The registration metadata (registry, matchers, bind indexes).
  const MetadataPlane& metadata() const { return plane_; }
  const PolicyEngine& policy() const { return policy_; }
  const InformationManager& info() const { return info_; }
  /// The internal polling data cache, or nullptr when not configured.
  const PollingDataCache* polling_cache() const {
    return polling_cache_.get();
  }
  const InvalidatorStats& stats() const { return stats_; }
  /// Merged matcher counters: compile-side from the metadata plane,
  /// cycle-side from the pipeline. Returned by value (the parts live in
  /// different places).
  MatcherStats matcher_stats() const;
  const InvalidatorOptions& options() const { return options_; }
  /// The overload controller, or nullptr when not enabled.
  const OverloadController* overload_controller() const {
    return overload_.get();
  }

  /// Human-readable dump of the lifetime counters and the per-query-type
  /// statistics the information management module maintains
  /// (Section 4.3) — for operators and the examples.
  std::string StatsReport() const;

 private:
  /// One parsed snapshot or delta (defined in invalidator.cc).
  struct DurableRecords;

  /// Appends the records a snapshot and a delta share — cursors,
  /// counters, `type` lines and sink states — `end` excluded. A null
  /// `baseline` (a snapshot) writes every type and sink; otherwise only
  /// those that changed since `baseline`, which is updated in place.
  void EncodeSharedRecords(DurableDeltaBaseline* baseline, std::string* out);

  /// Parses a whole snapshot (`snapshot`) or delta; nothing is mutated.
  static Result<DurableRecords> ParseDurableRecords(const std::string& blob,
                                                    bool snapshot);

  /// Installs parsed records: sink states, then (snapshots only) the
  /// registry, then the shared scalar state.
  Status ApplyDurableRecords(DurableRecords& records);

  /// The borrowed-component bundle the stages run against.
  StageEnv MakeStageEnv();

  /// Executes one polling query against the configured target (external
  /// connection > internal polling cache > the DBMS directly). Safe to
  /// call from pool workers: the external connection is serialized by a
  /// mutex, the other targets are internally thread-safe for reads.
  Result<db::QueryResult> ExecutePoll(const std::string& poll_sql);

  /// Reads this planning point's overload signals (backlog depth/age
  /// from the update log, delivery backlog from ObservableSinks, last
  /// cycle's latency). All deterministic given the clock.
  OverloadSignals ObserveOverloadSignals() const;

  db::Database* database_;
  sniffer::QiUrlMap* map_;
  const Clock* clock_;
  InvalidatorOptions options_;

  /// Registration metadata (behind its own lock).
  MetadataPlane plane_;
  PolicyEngine policy_;
  InformationManager info_;
  InvalidationScheduler scheduler_;
  std::vector<InvalidationSink*> sinks_;
  // Written by SetPollingConnection (any thread), read by ExecutePoll
  // (pool workers): release/acquire so a worker that sees the pointer
  // sees the connection fully constructed.
  std::atomic<server::Connection*> polling_connection_{nullptr};
  // Serializes polls through the external connection (its thread-safety
  // is unknown); the internal cache and the DBMS read path are not
  // funneled through this.
  std::mutex polling_connection_mu_;
  std::unique_ptr<PollingDataCache> polling_cache_;
  // Non-null iff options_.worker_threads > 1.
  std::unique_ptr<ThreadPool> pool_;
  // Non-null iff options_.overload.enabled.
  std::unique_ptr<OverloadController> overload_;

  // Cycle-side matcher counters (probes, exclusions, consolidation);
  // compile-side counters live in the metadata plane.
  MatcherStats cycle_matcher_stats_;

  uint64_t last_update_seq_ = 0;
  // QiUrlMap epoch at the last ingest scan (nullopt = must scan).
  std::optional<uint64_t> last_map_epoch_;
  // Set by Restore and ApplyDurableDelta: the next cycle's retire step
  // sweeps every instance.
  // A fresh invalidator needs no sweep: an instance the map scan
  // registers had a page, and its last page leaving feeds the map's
  // orphan feed.
  bool retire_sweep_due_ = false;
  Micros last_cycle_duration_ = 0;
  InvalidatorStats stats_;

  // ---- Staged restore state (drained by ApplyPendingRestore). ----
  struct RestoredOp {
    bool registered = true;  // false = retirement.
    std::string sql;
  };
  struct TypeOverride {
    bool cacheable = true;
    QueryTypeStats stats;
  };
  std::vector<RestoredOp> pending_restore_ops_;
  // Absolute per-type stats from the last applied snapshot/delta; keyed
  // by type_id, last write wins. Applied AFTER the ops (registration
  // bumps instances_seen; the persisted absolute value must overwrite
  // those bumps or recovered reports would double-count).
  std::map<uint64_t, TypeOverride> pending_type_overrides_;
  std::function<std::string()> storage_reporter_;
};

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_INVALIDATOR_H_
