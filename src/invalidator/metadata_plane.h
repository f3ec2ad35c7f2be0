#ifndef CACHEPORTAL_INVALIDATOR_METADATA_PLANE_H_
#define CACHEPORTAL_INVALIDATOR_METADATA_PLANE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

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
/// template matchers, bind-value indexes, strategy tiers and the QI/URL-
/// map cursor — behind one mutex.
///
/// Determinism: ForEachType / ForEachInstance visit types in ascending
/// type_id order and instances of a type in SQL-text order, so
/// invalidation decisions and StatsReport() do not depend on the order
/// registrations arrived in.
///
/// Instances are keyed by QueryId in the IdInterner the plane shares
/// with the QI/URL map it ingests from, so the cycle hands ids, not SQL
/// text, between the map, the registry, the bind index and delivery.
///
/// Locking contract:
///   - RegisterInstance / RegisterType / FindInstance / FindType and the
///     counting accessors are safe from any thread at any time.
///   - RetireInstance, the map cursor and the With/ForEach* accessors
///     are cycle-thread only (they may run concurrently with
///     registration, which the lock serializes, but not with each
///     other).
///   - Callbacks passed to With/ForEach* hold the lock: they must not
///     call back into the plane.
///   - QueryType/QueryInstance pointers obtained under the lock stay
///     valid after it is released (node-based maps; types are never
///     erased, instances only by RetireInstance on the cycle thread).
class MetadataPlane {
 public:
  /// The metadata the lock guards. Exposed (under the lock, via With) so
  /// cycle stages can run the registry, matcher, and bind-index
  /// machinery directly.
  struct State {
    explicit State(TextInterner* queries) : registry(queries) {}

    QueryTypeRegistry registry;
    std::map<uint64_t, TypeMatcher> matchers;
    BindIndex bind_index;
    /// Compile-side counters (types_compiled / types_handled); the
    /// cycle-side MatcherStats counters live with the cycle.
    MatcherStats compile_stats;
    /// Strategy tier of each type, assigned at the type's first instance
    /// registration (or pinned by checkpoint restore) and immutable
    /// afterwards (DESIGN.md §16).
    std::map<uint64_t, TierDecision> tiers;
  };

  /// `database` is needed to compile type matchers (schema lookups); not
  /// owned. `exact_strategy` (InvalidatorOptions::exact_strategy) allows
  /// the exact tier in tier assignment. `ids` is the QI/URL map's
  /// interner (null: a private one, for a plane no map feeds).
  MetadataPlane(db::Database* database, bool exact_strategy,
                std::shared_ptr<IdInterner> ids = nullptr);

  MetadataPlane(const MetadataPlane&) = delete;
  MetadataPlane& operator=(const MetadataPlane&) = delete;

  /// The interner naming instance ids.
  IdInterner& ids() const { return *ids_; }

  /// Offline registration: declare a query type.
  Status RegisterType(const std::string& name,
                      const std::string& parameterized_sql);

  /// Registers a query instance and indexes its bind values, compiling
  /// the type's matcher on first contact. Idempotent; safe from any
  /// thread. The parse runs outside the lock; a known instance takes
  /// only one lookup under the lock.
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

  /// The live instance registered for `sql`, or nullptr. Unknown SQL is
  /// answered from the interner alone, without parsing.
  const QueryInstance* FindInstance(const std::string& sql) const;

  /// The type, or nullptr. The pointer stays valid forever (types are
  /// never erased).
  const QueryType* FindType(uint64_t type_id) const;

  /// Runs `fn` with the lock held.
  void With(const std::function<void(State&)>& fn);

  /// Iteration in ascending type_id order, under the lock (callbacks
  /// must be quick and must not touch the plane).
  void ForEachType(const std::function<void(const QueryType&)>& fn) const;
  void ForEachTypeMutable(const std::function<void(QueryType&)>& fn);
  /// Types in type_id order, instances of each type in SQL-text order.
  void ForEachInstance(
      const std::function<void(const QueryType&, const QueryInstance&)>& fn)
      const;

  size_t NumTypes() const;
  size_t NumInstances() const;
  size_t NumIndexedInstances() const;

  /// Compile-side matcher counters (probes etc. stay zero here).
  MatcherStats CompileStats() const;

  // ---- Strategy tiers (DESIGN.md §16). ----
  /// The tier assigned to `type_id`, or nullopt before its first
  /// instance registered (and no checkpoint pinned it).
  std::optional<TierDecision> TierOf(uint64_t type_id) const;
  /// Snapshot of every assigned tier, keyed by type_id (sorted — the
  /// census/checkpoint order).
  std::map<uint64_t, TierDecision> TierAssignments() const;
  /// Pins a restored tier assignment: later registrations of the type
  /// keep it instead of re-deriving from the (possibly drifted)
  /// analyzer. Overwrites any live assignment.
  void InstallTier(uint64_t type_id, StrategyTier tier,
                   const std::string& reason);

  // ---- QI/URL-map cursor. ----
  /// Highest map row id whose registration the plane has absorbed — the
  /// ingest scan's origin and the durable `map_cursor` record.
  uint64_t MapCursor() const;
  /// Advances the cursor to at least `id`.
  void AdvanceMapCursor(uint64_t id);
  /// Restores a persisted position (a snapshot carries the full
  /// registry, so no rescan is needed).
  void SetMapCursor(uint64_t cursor);

  /// The count of types ever created (discovered-type naming continues
  /// from it after a restore).
  uint64_t TypeCount() const;
  void SetTypeCount(uint64_t count);

  /// Observer of metadata mutations, called OUTSIDE the lock as
  /// `observer(registered, sql)` — true for a fresh instance
  /// registration, false for a retirement. Idempotent re-registrations
  /// (the common sniffer path) do not fire. The durability layer
  /// journals through this seam. Install before concurrent use; pass
  /// nullptr to detach.
  using Observer =
      std::function<void(bool registered, const std::string& sql)>;
  void SetMutationObserver(Observer observer);

 private:
  /// Adds a freshly registered instance to the bind index, compiling the
  /// type's template on first contact (the FROM tables exist by then).
  /// Caller holds the lock.
  void IndexInstanceLocked(const QueryInstance& instance);

  db::Database* database_;
  bool exact_strategy_;
  // Declared before state_: its registry releases references into it
  // when destroyed.
  std::shared_ptr<IdInterner> ids_;
  mutable std::mutex mu_;
  // Guarded by mu_. The observer is copied out under the lock and fired
  // after it is released (the callback may do I/O).
  State state_;
  uint64_t map_cursor_ = 0;
  Observer observer_;
};

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_METADATA_PLANE_H_
