#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "invalidator/scheduler.h"
#include "sql/parser.h"

namespace cacheportal::invalidator {
namespace {

PollingTask MakeTask(const std::string& instance_sql, size_t affected_pages) {
  PollingTask task;
  task.instance_sql = instance_sql;
  task.query = sql::Parser::ParseSelect("SELECT * FROM T").value();
  task.affected_pages = affected_pages;
  return task;
}

std::vector<std::string> InstanceOrder(const std::vector<PollingTask>& tasks) {
  std::vector<std::string> order;
  for (const PollingTask& task : tasks) {
    if (order.empty() || order.back() != task.instance_sql) {
      order.push_back(task.instance_sql);
    }
  }
  return order;
}

TEST(SchedulerTest, UnlimitedBudgetAdmitsEverything) {
  InvalidationScheduler scheduler(0);
  std::vector<PollingTask> tasks;
  tasks.push_back(MakeTask("A", 1));
  tasks.push_back(MakeTask("B", 1));
  tasks.push_back(MakeTask("A", 1));
  auto schedule = scheduler.Build(std::move(tasks));
  EXPECT_EQ(schedule.to_poll.size(), 3u);
  EXPECT_TRUE(schedule.conservative.empty());
}

/// The unit of scheduling is the instance: admitting two of an
/// instance's three polls would waste them (the instance is invalidated
/// conservatively anyway when its third poll is condemned), so the
/// scheduler must never split an instance across the budget line.
TEST(SchedulerTest, NeverSplitsAnInstanceAcrossTheBudget) {
  InvalidationScheduler scheduler(3);
  std::vector<PollingTask> tasks;
  tasks.push_back(MakeTask("A", 6));
  tasks.push_back(MakeTask("A", 6));
  tasks.push_back(MakeTask("B", 5));
  tasks.push_back(MakeTask("B", 5));
  auto schedule = scheduler.Build(std::move(tasks));

  // A (more pages at stake) fits whole; B's pair would blow the budget, so
  // B is condemned whole — NOT one poll admitted and one condemned.
  ASSERT_EQ(schedule.to_poll.size(), 2u);
  EXPECT_EQ(schedule.to_poll[0].instance_sql, "A");
  EXPECT_EQ(schedule.to_poll[1].instance_sql, "A");
  ASSERT_EQ(schedule.conservative.size(), 1u);
  EXPECT_EQ(schedule.conservative[0].instance_sql, "B");
}

/// A condemned instance appears exactly once in `conservative`, however
/// many polls it had: the cycle charges one conservative invalidation
/// per instance, not per poll.
TEST(SchedulerTest, CondemnedInstanceAppearsOnce) {
  InvalidationScheduler scheduler(1);
  std::vector<PollingTask> tasks;
  tasks.push_back(MakeTask("A", 1));
  tasks.push_back(MakeTask("A", 1));
  tasks.push_back(MakeTask("A", 1));
  auto schedule = scheduler.Build(std::move(tasks));
  EXPECT_TRUE(schedule.to_poll.empty());
  ASSERT_EQ(schedule.conservative.size(), 1u);
  EXPECT_EQ(schedule.conservative[0].instance_sql, "A");
}

/// First-fit: a group too large for the remaining budget is condemned,
/// but later smaller groups still fill the remainder — polling them is
/// strictly better than leaving budget idle.
TEST(SchedulerTest, LaterSmallerGroupFillsRemainingBudget) {
  InvalidationScheduler scheduler(3);
  std::vector<PollingTask> tasks;
  tasks.push_back(MakeTask("A", 9));
  tasks.push_back(MakeTask("A", 9));
  tasks.push_back(MakeTask("B", 8));
  tasks.push_back(MakeTask("B", 8));
  tasks.push_back(MakeTask("C", 7));
  auto schedule = scheduler.Build(std::move(tasks));

  EXPECT_EQ(InstanceOrder(schedule.to_poll),
            (std::vector<std::string>{"A", "C"}));
  EXPECT_EQ(schedule.to_poll.size(), 3u);
  ASSERT_EQ(schedule.conservative.size(), 1u);
  EXPECT_EQ(schedule.conservative[0].instance_sql, "B");
}

TEST(SchedulerTest, OrdersByPagesAtStake) {
  InvalidationScheduler scheduler(0);
  std::vector<PollingTask> tasks;
  tasks.push_back(MakeTask("small", 1));
  tasks.push_back(MakeTask("mid", 10));
  tasks.push_back(MakeTask("big", 50));
  auto schedule = scheduler.Build(std::move(tasks));
  EXPECT_EQ(InstanceOrder(schedule.to_poll),
            (std::vector<std::string>{"big", "mid", "small"}));
}

/// An instance's polls arrive contiguously in to_poll even when the
/// input interleaves instances — the cycle's poll executor groups by
/// adjacency.
TEST(SchedulerTest, GroupsInstancePollsContiguously) {
  InvalidationScheduler scheduler(0);
  std::vector<PollingTask> tasks;
  tasks.push_back(MakeTask("A", 1));
  tasks.push_back(MakeTask("B", 1));
  tasks.push_back(MakeTask("A", 1));
  tasks.push_back(MakeTask("B", 1));
  auto schedule = scheduler.Build(std::move(tasks));
  ASSERT_EQ(schedule.to_poll.size(), 4u);
  std::vector<std::string> order = InstanceOrder(schedule.to_poll);
  // Whatever the tie-break order, each instance forms one contiguous run.
  std::set<std::string> distinct(order.begin(), order.end());
  EXPECT_EQ(order.size(), distinct.size());
}

}  // namespace
}  // namespace cacheportal::invalidator
