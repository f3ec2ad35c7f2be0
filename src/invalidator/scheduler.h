#ifndef CACHEPORTAL_INVALIDATOR_SCHEDULER_H_
#define CACHEPORTAL_INVALIDATOR_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sql/ast.h"

namespace cacheportal::invalidator {

/// A pending polling decision for one query instance: issue `query` to
/// find out whether the instance was affected by this cycle's updates.
struct PollingTask {
  std::string instance_sql;  // The query instance being decided.
  uint64_t instance_id = 0;  // Its QueryInstance::instance_id.
  uint64_t type_id = 0;      // The instance's query type; polls of one
                             // type share a template, which is what makes
                             // them consolidatable into one disjunction.
  std::unique_ptr<sql::SelectStatement> query;  // The polling query.
  size_t affected_pages = 0; // Cached pages riding on the verdict.
};

/// The schedule-generation component (Section 4.2.2). Polling improves
/// invalidation precision but costs DBMS work, and the invalidator runs
/// under real-time constraints — so each cycle gets a polling budget.
/// Tasks are ordered by pages at stake, most first; tasks beyond the
/// budget are not polled and their instances are invalidated
/// conservatively (trading over-invalidation for timeliness, the exact
/// tradeoff the paper describes).
///
/// The unit of scheduling is the query INSTANCE, not the individual
/// polling query: an instance is only "provably unaffected" when every
/// one of its polls came back empty, so admitting some of its polls and
/// condemning a sibling wastes the admitted polls (the instance is
/// invalidated conservatively regardless). Build therefore admits or
/// condemns all of an instance's polls together, and an instance appears
/// at most once in `conservative`.
class InvalidationScheduler {
 public:
  /// `max_polls_per_cycle` of 0 means unlimited.
  explicit InvalidationScheduler(size_t max_polls_per_cycle)
      : max_polls_(max_polls_per_cycle) {}

  struct Schedule {
    /// Polls of admitted instances, grouped contiguously per instance in
    /// priority order. to_poll.size() never exceeds the budget.
    std::vector<PollingTask> to_poll;
    /// One representative task per condemned instance (deduplicated):
    /// invalidate without polling.
    std::vector<PollingTask> conservative;
  };

  Schedule Build(std::vector<PollingTask> tasks) const {
    return BuildWithBudget(std::move(tasks), max_polls_);
  }

  /// Build with an explicit budget for this cycle, overriding the
  /// configured one — the overload controller's degradation ladder
  /// shrinks the budget under load. `max_polls` of 0 means unlimited
  /// (same convention as the constructor).
  Schedule BuildWithBudget(std::vector<PollingTask> tasks,
                           size_t max_polls) const;

  size_t max_polls_per_cycle() const { return max_polls_; }

 private:
  size_t max_polls_;
};

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_SCHEDULER_H_
