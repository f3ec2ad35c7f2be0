#ifndef CACHEPORTAL_INVALIDATOR_REGISTRY_H_
#define CACHEPORTAL_INVALIDATOR_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/interner.h"
#include "common/status.h"
#include "sql/template.h"

namespace cacheportal::invalidator {

/// Self-tuning statistics kept per query type (Section 4.1.1): how often
/// instances are seen, how often updates invalidate them, and how long
/// invalidation processing takes.
struct QueryTypeStats {
  uint64_t instances_seen = 0;      // Query instances registered.
  uint64_t checks = 0;              // (instance, update-batch) analyses.
  uint64_t affected = 0;            // Analyses that invalidated.
  uint64_t polling_queries = 0;     // Polls issued for this type.
  Micros total_invalidation_time = 0;
  Micros max_invalidation_time = 0;

  /// Fraction of analyses that led to invalidation ("the ratio of query
  /// instances invalidated by each update").
  double InvalidationRatio() const {
    return checks == 0 ? 0.0
                       : static_cast<double>(affected) / checks;
  }

  Micros AvgInvalidationTime() const {
    return checks == 0 ? 0 : total_invalidation_time / static_cast<Micros>(checks);
  }
};

/// A registered query type: the parameterized template shared by all its
/// instances, a human name, cacheability (set by the policy engine), and
/// running statistics.
struct QueryType {
  uint64_t type_id = 0;
  std::string name;
  sql::QueryTemplate tmpl;
  bool cacheable = true;
  QueryTypeStats stats;
};

/// A registered query instance: the concrete SQL of a query that built at
/// least one cached page, its parsed form, the type it belongs to, and
/// the literal values it binds into the type's template ($1..$n order) —
/// the raw material of the bind-value indexes.
struct QueryInstance {
  /// The QueryId interning `sql`: dense, and the key of every per-instance
  /// structure. Ids are reused only after their interner reclaims them,
  /// which the invalidator does between cycles, so an SQL retired and
  /// re-registered within a cycle gets a fresh id.
  uint64_t instance_id = 0;
  std::string sql;
  uint64_t type_id = 0;
  std::unique_ptr<sql::SelectStatement> statement;
  std::vector<sql::Value> bindings;
};

/// The registration module's data structures (Section 4.1): query types
/// declared by domain experts (offline mode) plus types discovered from
/// the QI/URL map (online mode), and the instances grouped under them.
///
/// Instances are keyed by their QueryId and grouped per type, so
/// InstancesOfType / the ForEach iterators cost O(instances of that type),
/// not O(all instances). Each live instance holds one reference on its id.
class QueryTypeRegistry {
 public:
  /// `queries` interns instance SQL (not owned; the metadata plane shares
  /// the QI/URL map's). Null: the registry interns into its own.
  explicit QueryTypeRegistry(TextInterner* queries = nullptr);
  ~QueryTypeRegistry();

  QueryTypeRegistry(const QueryTypeRegistry&) = delete;
  QueryTypeRegistry& operator=(const QueryTypeRegistry&) = delete;

  /// Types ever created (declared or discovered). Discovered types are
  /// named "discovered-<count after the bump>"; a restore resets the
  /// count so naming continues where the dead process left off.
  uint64_t TypeCount() const { return type_count_; }
  void SetTypeCount(uint64_t count) { type_count_ = count; }

  /// Offline registration: a domain expert declares a query type by its
  /// parameterized SQL ("SELECT ... WHERE R.A > $1"). Returns the type ID.
  Result<uint64_t> RegisterType(const std::string& name,
                                const std::string& parameterized_sql);

  /// Online discovery: registers a concrete query instance, deriving (and
  /// registering, if new) its query type. Returns the instance.
  Result<const QueryInstance*> RegisterInstance(const std::string& sql);

  /// As RegisterInstance, but for the referenced id `query` of the
  /// interner, with the parse and template extraction already done by
  /// the caller — the metadata plane parses outside its lock so
  /// registration holds a lock only for the map inserts. `tmpl` must be
  /// ExtractTemplate(*statement)'s output for the id's SQL; both are
  /// consumed only when it is not already registered.
  Result<const QueryInstance*> RegisterParsedInstance(
      QueryId query, std::unique_ptr<sql::SelectStatement> statement,
      sql::QueryTemplate tmpl);

  /// Removes an instance (its last cached page disappeared).
  void UnregisterInstance(const std::string& sql);
  /// Removes an instance by id; returns its SQL, or nullopt when absent.
  std::optional<std::string> UnregisterInstance(QueryId query);

  const QueryType* FindType(uint64_t type_id) const;
  QueryType* FindType(uint64_t type_id);
  const QueryInstance* FindInstance(const std::string& sql) const;
  const QueryInstance* FindInstanceById(uint64_t instance_id) const;

  /// Stable iteration without building pointer vectors. Callbacks must
  /// not mutate the registry (collect, then mutate after the loop).
  /// Types iterate in type_id order; instances of a type in SQL-text
  /// order (sorted per call) — the same order InstancesOfType returns.
  void ForEachType(const std::function<void(const QueryType&)>& fn) const;
  void ForEachTypeMutable(const std::function<void(QueryType&)>& fn);
  void ForEachInstanceOfType(
      uint64_t type_id,
      const std::function<void(const QueryInstance&)>& fn) const;

  /// All live instances of `type_id`, in SQL-text order.
  std::vector<const QueryInstance*> InstancesOfType(uint64_t type_id) const;

  size_t NumTypes() const { return types_.size(); }
  size_t NumInstances() const { return instances_.size(); }
  size_t NumInstancesOfType(uint64_t type_id) const;

 private:
  std::unique_ptr<TextInterner> owned_queries_;  // Set when standalone.
  TextInterner* queries_;
  std::map<uint64_t, QueryType> types_;
  // Node-based: instance pointers stay valid until the instance retires.
  std::unordered_map<QueryId, QueryInstance> instances_;
  // type_id -> its instances, unordered: iteration sorts them by SQL,
  // the order scheduler tie-breaks depend on.
  std::unordered_map<uint64_t, std::unordered_set<const QueryInstance*>>
      instances_by_type_;
  uint64_t type_count_ = 0;
};

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_REGISTRY_H_
