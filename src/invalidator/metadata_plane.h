#ifndef CACHEPORTAL_INVALIDATOR_METADATA_PLANE_H_
#define CACHEPORTAL_INVALIDATOR_METADATA_PLANE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "db/database.h"
#include "invalidator/bind_index.h"
#include "invalidator/options.h"
#include "invalidator/registry.h"
#include "invalidator/strategy.h"
#include "invalidator/type_matcher.h"

namespace cacheportal::invalidator {

/// The registration module's state — query-type registry, compiled
/// template matchers, and bind-value indexes — sharded by query-type
/// hash so sniffer-side registration can proceed while a cycle runs.
///
/// Sharding: a query routes to shard `type_id % num_shards()`; the
/// type_id is the template hash, computable from the SQL text alone, so
/// registration takes exactly one shard lock. Everything type-scoped
/// (the type, its instances, its matcher, its bind index postings) lives
/// whole in one shard — cycle phases that work type by type lock one
/// shard at a time.
///
/// Determinism: the merged iterators (ForEachType / ForEachInstance)
/// visit types in ascending type_id order and instances of a type in
/// SQL-text order — exactly the orders the unsharded registry exposed —
/// so invalidation decisions and StatsReport() are byte-identical at any
/// shard count.
///
/// Instances are keyed by QueryId in the IdInterner the plane shares
/// with the QI/URL map it ingests from, so the cycle hands ids, not SQL
/// text, between the map, the registry, the bind index and delivery.
///
/// Locking contract:
///   - RegisterInstance / RegisterType / FindInstance / FindType and the
///     counting accessors are safe from any thread at any time.
///   - RetireInstance and the With*/ForEach* accessors are cycle-thread
///     only (they may run concurrently with registration, which the
///     shard locks serialize, but not with each other).
///   - Callbacks passed to With*/ForEach* hold shard locks: they must
///     not call back into the plane.
///   - QueryType/QueryInstance pointers obtained under a shard lock stay
///     valid after it is released (node-based maps; types are never
///     erased, instances only by RetireInstance on the cycle thread).
class MetadataPlane {
 public:
  /// One shard's partition of the metadata. Exposed (under the shard's
  /// lock, via WithShard*) so cycle stages can run the registry, matcher,
  /// and bind-index machinery directly.
  struct Shard {
    explicit Shard(TextInterner* queries) : registry(queries) {}

    QueryTypeRegistry registry;
    std::map<uint64_t, TypeMatcher> matchers;
    BindIndex bind_index;
    /// Compile-side counters (types_compiled / types_handled); the
    /// cycle-side MatcherStats counters live with the cycle.
    MatcherStats compile_stats;
    /// Highest QI/URL-map row id whose registration this shard has
    /// absorbed. Advanced in lockstep by the ingest scan; persisted
    /// per shard by checkpoint v3.
    uint64_t map_cursor = 0;
    /// Strategy tier of each type this shard owns, assigned at the
    /// type's first instance registration (or pinned by checkpoint
    /// restore) and immutable afterwards (DESIGN.md §16).
    std::map<uint64_t, TierDecision> tiers;
  };

  /// `database` is needed to compile type matchers (schema lookups); not
  /// owned. `num_shards` of 0 is treated as 1. `exact_strategy`
  /// (InvalidatorOptions::exact_strategy) allows the exact tier in tier
  /// assignment. `ids` is the QI/URL map's interner (null: a private
  /// one, for a plane no map feeds).
  MetadataPlane(db::Database* database, size_t num_shards,
                bool exact_strategy, std::shared_ptr<IdInterner> ids = nullptr);

  MetadataPlane(const MetadataPlane&) = delete;
  MetadataPlane& operator=(const MetadataPlane&) = delete;

  size_t num_shards() const { return shards_.size(); }
  /// The interner naming instance ids.
  IdInterner& ids() const { return *ids_; }
  size_t ShardOfType(uint64_t type_id) const {
    return type_id % shards_.size();
  }

  /// Offline registration: declare a query type (routed by its
  /// template's type_id).
  Status RegisterType(const std::string& name,
                      const std::string& parameterized_sql);

  /// Registers a query instance and indexes its bind values, compiling
  /// the type's matcher on first contact. Idempotent; safe from any
  /// thread. The parse runs outside the shard lock; a known instance
  /// takes only a shared route-map lookup plus the shard lock.
  Result<const QueryInstance*> RegisterInstance(const std::string& sql);
  /// The same for an id of ids().queries the caller holds a reference on
  /// (a QI/URL map row does); the instance takes its own.
  Result<const QueryInstance*> RegisterInstance(QueryId query);

  /// Unregisters an instance AND drops its index postings. Every
  /// unregistration must go through here or the index would keep
  /// shortlisting a dead instance (harmless) — or worse, the
  /// live/indexed count cross-check would disable probing for the whole
  /// type. Cycle thread only.
  void RetireInstance(const std::string& sql);
  void RetireInstance(QueryId query);

  /// The live instance registered for `sql`, or nullptr. Lock-free of
  /// parsing: unknown SQL is answered from the route map alone.
  const QueryInstance* FindInstance(const std::string& sql) const;

  /// The type, or nullptr. The pointer stays valid forever (types are
  /// never erased).
  const QueryType* FindType(uint64_t type_id) const;

  /// Runs `fn` with `type_id`'s shard locked.
  void WithShardOfType(uint64_t type_id, const std::function<void(Shard&)>& fn);
  /// Runs `fn` with shard `index` locked.
  void WithShard(size_t index, const std::function<void(Shard&)>& fn);

  /// Merged iteration in ascending type_id order across all shards
  /// (shard locks held in index order for the duration — callbacks must
  /// be quick and must not touch the plane).
  void ForEachType(const std::function<void(const QueryType&)>& fn) const;
  void ForEachTypeMutable(const std::function<void(QueryType&)>& fn);
  /// Types in type_id order, instances of each type in SQL-text order —
  /// the unsharded registry's scan order.
  void ForEachInstance(
      const std::function<void(const QueryType&, const QueryInstance&)>& fn)
      const;

  size_t NumTypes() const;
  size_t NumInstances() const;
  size_t NumInstancesOfType(uint64_t type_id) const;
  size_t NumIndexedInstances() const;

  /// Summed compile-side matcher counters (probes etc. stay zero here).
  MatcherStats CompileStats() const;

  // ---- Strategy tiers (DESIGN.md §16). ----
  /// The tier assigned to `type_id`, or nullopt before its first
  /// instance registered (and no checkpoint pinned it).
  std::optional<TierDecision> TierOf(uint64_t type_id) const;
  /// Snapshot of every assigned tier, keyed by type_id (sorted — the
  /// census/checkpoint order). Locks shards one at a time; safe to call
  /// from StatsReport and checkpointing.
  std::map<uint64_t, TierDecision> TierAssignments() const;
  /// Pins a restored tier assignment: later registrations of the type
  /// keep it instead of re-deriving from the (possibly drifted)
  /// analyzer. Overwrites any live assignment.
  void InstallTier(uint64_t type_id, StrategyTier tier,
                   const std::string& reason);

  // ---- QI/URL-map cursors (one per shard, advanced in lockstep). ----
  /// The scan origin: the smallest per-shard cursor (rows above it may
  /// be unabsorbed by some shard).
  uint64_t MinMapCursor() const;
  /// Advances every cursor to at least `id` (the ingest scan absorbed
  /// rows up to `id` for all shards).
  void AdvanceMapCursors(uint64_t id);
  /// Snapshot of all cursors, shard order — checkpoint v3's payload.
  std::vector<uint64_t> MapCursors() const;
  /// Rewinds every cursor to zero (restore: the in-memory registry died
  /// with the old process; re-registering live map rows is idempotent).
  void ResetMapCursors();
  /// Restores persisted cursor positions (checkpoint v4, whose snapshot
  /// carries the full registry — no rescan needed). With a matching
  /// shard count the positions restore exactly; otherwise every cursor
  /// rewinds to the minimum (re-scanning some rows, which registration
  /// idempotency absorbs).
  void SetMapCursors(const std::vector<uint64_t>& cursors);

  /// The plane-global count of types ever created (discovered-type
  /// naming continues from it after a restore).
  uint64_t TypeCount() const {
    return type_count_.load(std::memory_order_relaxed);
  }
  void SetTypeCount(uint64_t count) {
    type_count_.store(count, std::memory_order_relaxed);
  }

  /// Observer of metadata mutations, called OUTSIDE all plane locks as
  /// `observer(registered, sql)` — true for a fresh instance
  /// registration, false for a retirement. Idempotent re-registrations
  /// (the common sniffer path) do not fire. The durability layer
  /// journals through this seam. Install before concurrent use; pass
  /// nullptr to detach.
  void SetMutationObserver(
      std::function<void(bool registered, const std::string& sql)> observer);

 private:
  struct ShardSlot {
    explicit ShardSlot(TextInterner* queries) : shard(queries) {}

    mutable std::mutex mu;
    Shard shard;
  };

  ShardSlot& SlotOfType(uint64_t type_id) const {
    return *shards_[type_id % shards_.size()];
  }

  /// Copies the observer out under its lock and fires it with no plane
  /// lock held.
  void NotifyObserver(bool registered, const std::string& sql);

  /// Adds a freshly registered instance to its shard's bind index,
  /// compiling the type's template on first contact (the FROM tables
  /// exist by then). Caller holds the shard lock.
  void IndexInstanceLocked(Shard& shard, const QueryInstance& instance);

  /// Locks every shard and visits all types in ascending type_id order,
  /// passing the owning shard's index — the deterministic k-way merge
  /// the ForEach* iterators are built on.
  void MergedTypeScan(
      const std::function<void(size_t, const QueryType&)>& fn) const;

  db::Database* database_;
  bool exact_strategy_;
  // Declared before shards_: their registries release references into
  // it when destroyed.
  std::shared_ptr<IdInterner> ids_;
  std::vector<std::unique_ptr<ShardSlot>> shards_;
  /// Plane-global count of types ever created, shared with every shard's
  /// registry so discovered-type names are shard-count-invariant.
  std::atomic<uint64_t> type_count_{0};

  // Route map: every LIVE instance's id -> its type_id, so lookups and
  // retirement route to a shard without re-parsing. Readers (the
  // re-registration fast path, FindInstance) take the lock shared;
  // never held together with a shard lock (lookup, release, then lock
  // the shard) so the two lock orders cannot deadlock.
  mutable std::shared_mutex route_mu_;
  std::unordered_map<QueryId, uint64_t> type_by_query_;

  /// The type_id `query` routes to, if it is a live instance.
  std::optional<uint64_t> RouteOf(QueryId query) const;

  // The mutation observer, under its own lock (copied out shared, then
  // invoked with no plane lock held — the callback may do I/O).
  mutable std::shared_mutex observer_mu_;
  std::function<void(bool, const std::string&)> observer_;
};

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_METADATA_PLANE_H_
