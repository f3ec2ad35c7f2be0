#include "invalidator/scheduler.h"

#include <algorithm>
#include <map>

namespace cacheportal::invalidator {

InvalidationScheduler::Schedule InvalidationScheduler::BuildWithBudget(
    std::vector<PollingTask> tasks, size_t max_polls) const {
  std::sort(tasks.begin(), tasks.end(),
            [](const PollingTask& a, const PollingTask& b) {
              return a.affected_pages > b.affected_pages;
            });

  // Group tasks per instance, keeping each group's priority at its
  // highest-priority task (groups stay in first-appearance order of the
  // sorted task list).
  std::vector<std::vector<PollingTask>> groups;
  std::map<std::string, size_t> group_of;
  for (PollingTask& task : tasks) {
    auto [it, inserted] = group_of.try_emplace(task.instance_sql,
                                               groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(std::move(task));
  }

  // Admit whole instances in priority order while their polls fit the
  // budget. A group too large for the remaining budget is condemned, but
  // later (lower-priority) smaller groups may still fill the remainder:
  // polling them is strictly better than leaving budget idle, since the
  // skipped instance is invalidated conservatively either way.
  Schedule schedule;
  for (std::vector<PollingTask>& group : groups) {
    const bool fits =
        max_polls == 0 ||
        schedule.to_poll.size() + group.size() <= max_polls;
    if (fits) {
      for (PollingTask& task : group) {
        schedule.to_poll.push_back(std::move(task));
      }
    } else {
      // One representative carries the instance's conservative verdict.
      schedule.conservative.push_back(std::move(group.front()));
    }
  }
  return schedule;
}

}  // namespace cacheportal::invalidator
