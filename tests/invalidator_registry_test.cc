#include <gtest/gtest.h>

#include "invalidator/info_manager.h"
#include "invalidator/policy.h"
#include "invalidator/registry.h"
#include "invalidator/scheduler.h"
#include "sql/parser.h"

namespace cacheportal::invalidator {
namespace {

using sql::Value;

// ---------------------------------------------------------------------
// QueryTypeRegistry
// ---------------------------------------------------------------------

TEST(RegistryTest, OfflineTypeRegistration) {
  QueryTypeRegistry registry;
  auto id = registry.RegisterType("by-price",
                                  "SELECT * FROM Car WHERE price < $1");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const QueryType* type = registry.FindType(*id);
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(type->name, "by-price");
  EXPECT_TRUE(type->cacheable);
  EXPECT_EQ(registry.NumTypes(), 1u);
}

TEST(RegistryTest, InstanceDiscoveryCreatesType) {
  QueryTypeRegistry registry;
  auto instance =
      registry.RegisterInstance("SELECT * FROM Car WHERE price < 20000");
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(registry.NumTypes(), 1u);
  EXPECT_EQ(registry.NumInstances(), 1u);
  const QueryType* type = registry.FindType((*instance)->type_id);
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(type->stats.instances_seen, 1u);
}

TEST(RegistryTest, InstancesOfSameTypeGrouped) {
  QueryTypeRegistry registry;
  auto a = registry.RegisterInstance("SELECT * FROM Car WHERE price < 1");
  auto b = registry.RegisterInstance("SELECT * FROM Car WHERE price < 2");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)->type_id, (*b)->type_id);
  EXPECT_EQ(registry.NumTypes(), 1u);
  EXPECT_EQ(registry.InstancesOfType((*a)->type_id).size(), 2u);
}

TEST(RegistryTest, OfflineTypeMatchesDiscoveredInstances) {
  QueryTypeRegistry registry;
  auto id = registry.RegisterType("by-price",
                                  "SELECT * FROM Car WHERE price < $1");
  ASSERT_TRUE(id.ok());
  auto instance =
      registry.RegisterInstance("SELECT * FROM Car WHERE price < 20000");
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ((*instance)->type_id, *id);
  EXPECT_EQ(registry.NumTypes(), 1u);
  EXPECT_EQ(registry.FindType(*id)->name, "by-price");
}

TEST(RegistryTest, ReregisteringInstanceIsIdempotent) {
  QueryTypeRegistry registry;
  const std::string sql = "SELECT * FROM Car WHERE price < 1";
  registry.RegisterInstance(sql).value();
  registry.RegisterInstance(sql).value();
  EXPECT_EQ(registry.NumInstances(), 1u);
  // instances_seen counts only new registrations.
  auto instance = registry.FindInstance(sql);
  EXPECT_EQ(registry.FindType(instance->type_id)->stats.instances_seen, 1u);
}

TEST(RegistryTest, UnregisterInstance) {
  QueryTypeRegistry registry;
  const std::string sql = "SELECT * FROM Car WHERE price < 1";
  registry.RegisterInstance(sql).value();
  registry.UnregisterInstance(sql);
  EXPECT_EQ(registry.NumInstances(), 0u);
  EXPECT_EQ(registry.FindInstance(sql), nullptr);
  // The type survives (statistics are long-lived).
  EXPECT_EQ(registry.NumTypes(), 1u);
}

TEST(RegistryTest, BadSqlRejected) {
  QueryTypeRegistry registry;
  EXPECT_FALSE(registry.RegisterInstance("not sql at all").ok());
  EXPECT_FALSE(registry.RegisterType("t", "DELETE FROM Car").ok());
}

TEST(RegistryTest, StatsInvalidationRatio) {
  QueryTypeStats stats;
  EXPECT_EQ(stats.InvalidationRatio(), 0.0);
  stats.checks = 10;
  stats.affected = 4;
  EXPECT_DOUBLE_EQ(stats.InvalidationRatio(), 0.4);
  stats.total_invalidation_time = 1000;
  EXPECT_EQ(stats.AvgInvalidationTime(), 100);
}

// ---------------------------------------------------------------------
// PolicyEngine
// ---------------------------------------------------------------------

QueryType TypeWithStats(uint64_t checks, uint64_t affected) {
  QueryType type;
  type.name = "t";
  type.stats.checks = checks;
  type.stats.affected = affected;
  return type;
}

TEST(PolicyTest, DefaultsToCacheable) {
  PolicyEngine policy;
  EXPECT_TRUE(policy.IsQueryTypeCacheable(TypeWithStats(100, 100)));
  EXPECT_TRUE(policy.IsServletCacheable("anything"));
}

TEST(PolicyTest, HardRuleWins) {
  PolicyEngine policy;
  policy.AddRule({PolicyRule::Kind::kQueryBased, "t", false});
  EXPECT_FALSE(policy.IsQueryTypeCacheable(TypeWithStats(0, 0)));

  policy.AddRule({PolicyRule::Kind::kRequestBased, "servlet-x", false});
  EXPECT_FALSE(policy.IsServletCacheable("servlet-x"));
  EXPECT_TRUE(policy.IsServletCacheable("servlet-y"));
}

TEST(PolicyTest, InvalidationRatioThreshold) {
  PolicyEngine policy;
  PolicyThresholds thresholds;
  thresholds.max_invalidation_ratio = 0.5;
  thresholds.min_checks = 10;
  policy.SetThresholds(thresholds);

  // Below min_checks: always cacheable.
  EXPECT_TRUE(policy.IsQueryTypeCacheable(TypeWithStats(5, 5)));
  // Above threshold.
  EXPECT_FALSE(policy.IsQueryTypeCacheable(TypeWithStats(100, 80)));
  // Below threshold.
  EXPECT_TRUE(policy.IsQueryTypeCacheable(TypeWithStats(100, 20)));
}

TEST(PolicyTest, ProcessingTimeThreshold) {
  PolicyEngine policy;
  PolicyThresholds thresholds;
  thresholds.max_processing_time = 100;
  thresholds.min_checks = 1;
  policy.SetThresholds(thresholds);
  QueryType slow = TypeWithStats(10, 0);
  slow.stats.total_invalidation_time = 10000;  // Avg 1000 > 100.
  EXPECT_FALSE(policy.IsQueryTypeCacheable(slow));
  QueryType fast = TypeWithStats(10, 0);
  fast.stats.total_invalidation_time = 100;  // Avg 10.
  EXPECT_TRUE(policy.IsQueryTypeCacheable(fast));
}

// ---------------------------------------------------------------------
// InvalidationScheduler
// ---------------------------------------------------------------------

PollingTask Task(const std::string& sql, size_t pages) {
  PollingTask task;
  task.instance_sql = sql;
  task.affected_pages = pages;
  return task;
}

TEST(SchedulerTest, UnlimitedBudgetPollsEverything) {
  InvalidationScheduler scheduler(0);
  std::vector<PollingTask> tasks;
  tasks.push_back(Task("a", 1));
  tasks.push_back(Task("b", 5));
  auto schedule = scheduler.Build(std::move(tasks));
  EXPECT_EQ(schedule.to_poll.size(), 2u);
  EXPECT_TRUE(schedule.conservative.empty());
  // Most pages at stake first.
  EXPECT_EQ(schedule.to_poll[0].instance_sql, "b");
}

TEST(SchedulerTest, BudgetOverflowGoesConservative) {
  InvalidationScheduler scheduler(2);
  std::vector<PollingTask> tasks;
  tasks.push_back(Task("a", 1));
  tasks.push_back(Task("b", 9));  // More pages at stake: prioritized.
  tasks.push_back(Task("c", 5));
  auto schedule = scheduler.Build(std::move(tasks));
  ASSERT_EQ(schedule.to_poll.size(), 2u);
  EXPECT_EQ(schedule.to_poll[0].instance_sql, "b");
  EXPECT_EQ(schedule.to_poll[1].instance_sql, "c");
  ASSERT_EQ(schedule.conservative.size(), 1u);
  EXPECT_EQ(schedule.conservative[0].instance_sql, "a");
}

// ---------------------------------------------------------------------
// InformationManager (join indexes)
// ---------------------------------------------------------------------

class InfoManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        db_.CreateTable(db::TableSchema(
                            "Mileage", {{"model", db::ColumnType::kString},
                                        {"EPA", db::ColumnType::kInt}}))
            .ok());
    db_.ExecuteSql("INSERT INTO Mileage VALUES ('Avalon', 28)").value();
    db_.ExecuteSql("INSERT INTO Mileage VALUES ('Civic', 36)").value();
  }

  std::unique_ptr<sql::SelectStatement> Poll(const std::string& sql) {
    return sql::Parser::ParseSelect(sql).value();
  }

  db::Database db_;
};

TEST_F(InfoManagerTest, IndexBootstrapsFromTable) {
  InformationManager info(&db_);
  ASSERT_TRUE(info.CreateJoinIndex("Mileage", "model").ok());
  EXPECT_TRUE(info.HasIndex("mileage", "MODEL"));  // Case-insensitive.

  auto answer = info.AnswerPoll(
      *Poll("SELECT 1 FROM Mileage WHERE 'Avalon' = Mileage.model"));
  ASSERT_TRUE(answer.has_value());
  EXPECT_TRUE(*answer);

  answer = info.AnswerPoll(
      *Poll("SELECT 1 FROM Mileage WHERE 'Eclipse' = Mileage.model"));
  ASSERT_TRUE(answer.has_value());
  EXPECT_FALSE(*answer);
}

TEST_F(InfoManagerTest, IndexTracksDeltas) {
  InformationManager info(&db_);
  ASSERT_TRUE(info.CreateJoinIndex("Mileage", "model").ok());

  db::DeltaSet deltas;
  db::UpdateRecord ins;
  ins.table = "Mileage";
  ins.op = db::UpdateOp::kInsert;
  ins.row = {Value::String("Eclipse"), Value::Int(30)};
  deltas.Add(ins);
  db::UpdateRecord del;
  del.table = "Mileage";
  del.op = db::UpdateOp::kDelete;
  del.row = {Value::String("Avalon"), Value::Int(28)};
  deltas.Add(del);
  info.ApplyDeltas(deltas);

  EXPECT_TRUE(*info.AnswerPoll(
      *Poll("SELECT 1 FROM Mileage WHERE 'Eclipse' = Mileage.model")));
  EXPECT_FALSE(*info.AnswerPoll(
      *Poll("SELECT 1 FROM Mileage WHERE 'Avalon' = Mileage.model")));
}

TEST_F(InfoManagerTest, DuplicateValuesNeedAllRemovals) {
  InformationManager info(&db_);
  ASSERT_TRUE(info.CreateJoinIndex("Mileage", "model").ok());
  // Add a second 'Civic' row, then delete one: index must still contain it.
  db::DeltaSet add;
  db::UpdateRecord ins;
  ins.table = "Mileage";
  ins.op = db::UpdateOp::kInsert;
  ins.row = {Value::String("Civic"), Value::Int(40)};
  add.Add(ins);
  info.ApplyDeltas(add);

  db::DeltaSet remove;
  db::UpdateRecord del;
  del.table = "Mileage";
  del.op = db::UpdateOp::kDelete;
  del.row = {Value::String("Civic"), Value::Int(36)};
  remove.Add(del);
  info.ApplyDeltas(remove);

  EXPECT_TRUE(*info.AnswerPoll(
      *Poll("SELECT 1 FROM Mileage WHERE 'Civic' = Mileage.model")));
}

TEST_F(InfoManagerTest, DisjunctionAnswered) {
  InformationManager info(&db_);
  ASSERT_TRUE(info.CreateJoinIndex("Mileage", "model").ok());
  auto answer = info.AnswerPoll(*Poll(
      "SELECT 1 FROM Mileage WHERE 'X' = Mileage.model OR 'Civic' = "
      "Mileage.model"));
  ASSERT_TRUE(answer.has_value());
  EXPECT_TRUE(*answer);
}

TEST_F(InfoManagerTest, UnansweredCases) {
  InformationManager info(&db_);
  ASSERT_TRUE(info.CreateJoinIndex("Mileage", "model").ok());
  // Conjunction: unsound to answer from a value index.
  EXPECT_FALSE(info.AnswerPoll(*Poll("SELECT 1 FROM Mileage WHERE 'Civic' = "
                                     "Mileage.model AND EPA > 30"))
                   .has_value());
  // Non-equality predicate.
  EXPECT_FALSE(
      info.AnswerPoll(*Poll("SELECT 1 FROM Mileage WHERE EPA > 30"))
          .has_value());
  // Unindexed column.
  EXPECT_FALSE(
      info.AnswerPoll(*Poll("SELECT 1 FROM Mileage WHERE 30 = EPA"))
          .has_value());
}

TEST_F(InfoManagerTest, CreateErrors) {
  InformationManager info(&db_);
  EXPECT_TRUE(info.CreateJoinIndex("Nope", "x").IsNotFound());
  EXPECT_TRUE(info.CreateJoinIndex("Mileage", "nope").IsNotFound());
  ASSERT_TRUE(info.CreateJoinIndex("Mileage", "model").ok());
  EXPECT_TRUE(info.CreateJoinIndex("Mileage", "model").IsAlreadyExists());
}

// ---------------------------------------------------------------------
// Interned instance ids and stable iteration
// ---------------------------------------------------------------------

TEST(RegistryTest, InstanceIdsAreInternedAndFindable) {
  QueryTypeRegistry registry;
  auto a = registry.RegisterInstance("SELECT * FROM Car WHERE price < 1");
  auto b = registry.RegisterInstance("SELECT * FROM Car WHERE price < 2");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)->instance_id, (*b)->instance_id);
  const QueryInstance* by_id = registry.FindInstanceById((*a)->instance_id);
  ASSERT_NE(by_id, nullptr);
  EXPECT_EQ(by_id->sql, "SELECT * FROM Car WHERE price < 1");
  EXPECT_EQ(registry.FindInstanceById(99999), nullptr);
  // Re-registering live SQL returns the same interned instance.
  auto again = registry.RegisterInstance("SELECT * FROM Car WHERE price < 1");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->instance_id, (*a)->instance_id);
}

TEST(RegistryTest, UnregisterFreesIdAndReRegisterMintsFreshOne) {
  QueryTypeRegistry registry;
  auto a = registry.RegisterInstance("SELECT * FROM Car WHERE price < 1");
  ASSERT_TRUE(a.ok());
  uint64_t old_id = (*a)->instance_id;
  registry.UnregisterInstance("SELECT * FROM Car WHERE price < 1");
  EXPECT_EQ(registry.FindInstanceById(old_id), nullptr);
  auto again = registry.RegisterInstance("SELECT * FROM Car WHERE price < 1");
  ASSERT_TRUE(again.ok());
  EXPECT_NE((*again)->instance_id, old_id);
}

TEST(RegistryTest, ForEachIterationIsStableAndOrdered) {
  QueryTypeRegistry registry;
  // Register in shuffled SQL order; iteration must come back sorted by
  // SQL text within a type regardless of registration order.
  ASSERT_TRUE(registry.RegisterInstance("SELECT * FROM Car WHERE price < 3")
                  .ok());
  ASSERT_TRUE(registry.RegisterInstance("SELECT * FROM Car WHERE price < 1")
                  .ok());
  ASSERT_TRUE(registry.RegisterInstance("SELECT * FROM Car WHERE price < 2")
                  .ok());
  uint64_t type_id = 0;
  size_t types = 0;
  registry.ForEachType([&](const QueryType& type) {
    type_id = type.type_id;
    ++types;
  });
  EXPECT_EQ(types, 1u);
  std::vector<std::string> seen;
  registry.ForEachInstanceOfType(type_id, [&](const QueryInstance& instance) {
    seen.push_back(instance.sql);
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "SELECT * FROM Car WHERE price < 1");
  EXPECT_EQ(seen[1], "SELECT * FROM Car WHERE price < 2");
  EXPECT_EQ(seen[2], "SELECT * FROM Car WHERE price < 3");
  EXPECT_EQ(registry.NumInstancesOfType(type_id), 3u);
  EXPECT_EQ(registry.NumInstancesOfType(type_id + 1), 0u);
}

}  // namespace
}  // namespace cacheportal::invalidator
