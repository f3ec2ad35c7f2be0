#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/reliable_delivery.h"
#include "db/database.h"
#include "invalidator/baseline.h"
#include "invalidator/invalidator.h"
#include "sniffer/qiurl_map.h"

namespace cacheportal::invalidator {
namespace {

class RecordingSink : public InvalidationSink {
 public:
  Status SendInvalidation(const http::HttpRequest&,
                          const std::string& cache_key) override {
    invalidated.insert(cache_key);
    return Status::OK();
  }
  std::set<std::string> invalidated;
};

/// Rejects every third message. Deterministic because the invalidator
/// never calls the same sink from two threads: each sink sees its
/// messages serially, in serial-pipeline order.
class FlakySink : public InvalidationSink {
 public:
  Status SendInvalidation(const http::HttpRequest&,
                          const std::string& cache_key) override {
    if (++calls % 3 == 0) {
      failed.insert(cache_key);
      return Status::Internal("flaky cache");
    }
    invalidated.insert(cache_key);
    return Status::OK();
  }
  uint64_t calls = 0;
  std::set<std::string> invalidated;
  std::set<std::string> failed;
};

/// Everything one scenario run observed, for exact comparison across
/// worker counts. Cycle durations and report timings are excluded (the
/// only fields allowed to differ).
struct ScenarioResult {
  std::vector<std::set<std::string>> cycle_invalidated;  // Per round.
  std::vector<std::string> cycle_reports;                // Per round.
  std::set<std::string> flaky_failed;
  std::set<std::string> durable_delivered;  // Via ReliableDeliveryQueue.
  std::string stats_report;
  InvalidatorStats stats;
};

std::string ReportKey(const CycleReport& r) {
  return StrCat(r.updates, "/", r.new_instances, "/", r.checks, "/",
                r.affected_instances, "/", r.polls_issued, "/",
                r.polls_answered_by_index, "/", r.conservative_invalidations,
                "/", r.pages_invalidated, "/", DegradationModeName(r.mode));
}

/// One deterministic scripted workload that exercises every pipeline
/// branch: immediate impact, unaffected, index-answered polls, DBMS
/// polls (hits and misses), the polling-budget condemnation path, a
/// two-table batch (delta-join decomposition), the internal polling
/// cache, multi-sink delivery with failures, and a ReliableDeliveryQueue
/// in the sink list.
ScenarioResult RunScenario(size_t workers) {
  ManualClock clock;
  db::Database db(&clock);
  EXPECT_TRUE(db.CreateTable(db::TableSchema(
                                 "Car", {{"maker", db::ColumnType::kString},
                                         {"model", db::ColumnType::kString},
                                         {"price", db::ColumnType::kInt}}))
                  .ok());
  EXPECT_TRUE(
      db.CreateTable(db::TableSchema(
                         "Mileage", {{"model", db::ColumnType::kString},
                                     {"EPA", db::ColumnType::kInt}}))
          .ok());
  const char* seed_rows[] = {
      "INSERT INTO Car VALUES ('Toyota', 'Avalon', 22000)",
      "INSERT INTO Car VALUES ('Toyota', 'Corolla', 14000)",
      "INSERT INTO Car VALUES ('Honda', 'Civic', 13000)",
      "INSERT INTO Car VALUES ('Mitsubishi', 'Eclipse', 15000)",
      "INSERT INTO Car VALUES ('Ford', 'Focus', 11000)",
      "INSERT INTO Mileage VALUES ('Avalon', 28)",
      "INSERT INTO Mileage VALUES ('Civic', 33)",
      "INSERT INTO Mileage VALUES ('Corolla', 31)",
  };
  for (const char* sql_text : seed_rows) {
    db.ExecuteSql(sql_text).value();
  }

  sniffer::QiUrlMap map;
  InvalidatorOptions options;
  options.worker_threads = workers;
  options.max_polls_per_cycle = 2;       // Budget pressure: condemnations.
  options.polling_cache_capacity = 16;   // Exercise the internal cache.
  // Overload controller on, tuned so the ladder actually moves during
  // the scenario (the seeding burst and the final mixed burst reach
  // kEconomy, the quiet recache cycles step back down) while the
  // economy budget equals the configured one — mode transitions ride
  // the reports without perturbing the scripted decisions.
  options.overload.enabled = true;
  options.overload.economy_backlog = 3;
  options.overload.conservative_backlog = 1000;
  options.overload.economy_poll_budget = 2;
  options.overload.min_dwell = 2 * kMicrosPerSecond;
  Invalidator inv(&db, &map, &clock, options);
  EXPECT_TRUE(inv.CreateJoinIndex("Mileage", "model").ok());

  RecordingSink sink_a;
  RecordingSink sink_b;
  FlakySink flaky;
  RecordingSink durable;
  core::ReliableDeliveryQueue queue(&clock);
  queue.AddSink(&durable, "edge");
  inv.AddSink(&sink_a);
  inv.AddSink(&sink_b);
  inv.AddSink(&flaky);
  inv.AddSink(&queue);

  const std::vector<std::string> sqls = {
      "SELECT * FROM Car WHERE price < 9000",
      "SELECT * FROM Car WHERE maker = 'Toyota'",
      "SELECT Car.model FROM Car, Mileage WHERE Car.model = Mileage.model "
      "AND Car.price < 8000",
      "SELECT Car.model FROM Car, Mileage WHERE Car.model = Mileage.model "
      "AND Car.price < 16000",
      "SELECT Car.model FROM Car, Mileage WHERE Car.model = Mileage.model "
      "AND Car.price < 24000",
      "SELECT * FROM Mileage WHERE EPA > 25",
  };
  auto recache = [&map, &sqls]() {
    for (size_t i = 0; i < sqls.size(); ++i) {
      map.Add(sqls[i], StrCat("shop/p", i, "?##"), "/r", 0);
    }
  };
  recache();
  inv.RunCycle().value();  // Drain the seeding updates, register pages.

  // Each round: updates that light up a specific pipeline branch.
  const std::vector<std::vector<std::string>> rounds = {
      // Immediate impact (maker = 'Toyota'), an index-answered join poll
      // (Avalon IS in Mileage), and unaffected instances.
      {"INSERT INTO Car VALUES ('Toyota', 'Avalon', 20000)"},
      // Mileage insert: EPA instance affected immediately; the three
      // join instances need Car-side polls (conjunctions the join index
      // cannot answer) — three polls against a budget of two, so one
      // instance is condemned conservatively; of the polled ones some
      // hit (Eclipse sells under 16000) and some miss.
      {"INSERT INTO Mileage VALUES ('Eclipse', 30)"},
      // Both join relations updated in one batch: each side polls the
      // other, and the in-process pair term covers deleted pairs.
      {"INSERT INTO Car VALUES ('Honda', 'Civic', 7000)",
       "INSERT INTO Mileage VALUES ('Focus', 20)"},
      // Delete on the indexed relation: join polls go to the Car side,
      // through the polling cache, under budget pressure again.
      {"DELETE FROM Mileage WHERE model = 'Avalon'"},
      // Nothing matches any instance: the unaffected path.
      {"INSERT INTO Car VALUES ('Ford', 'Focus', 30000)"},
      // A bigger mixed burst.
      {"INSERT INTO Car VALUES ('Toyota', 'Corolla', 5000)",
       "DELETE FROM Car WHERE price > 21000",
       "INSERT INTO Mileage VALUES ('Focus', 22)"},
  };

  ScenarioResult result;
  for (const std::vector<std::string>& updates : rounds) {
    // One second per cycle: the dwell clock moves, so the ladder can
    // step back down between bursts (all on the shared ManualClock, so
    // identical at every worker count).
    clock.Advance(kMicrosPerSecond);
    for (const std::string& update : updates) {
      db.ExecuteSql(update).value();
    }
    sink_a.invalidated.clear();
    CycleReport report = inv.RunCycle().value();
    result.cycle_invalidated.push_back(sink_a.invalidated);
    result.cycle_reports.push_back(ReportKey(report));
    recache();
    clock.Advance(kMicrosPerSecond);
    inv.RunCycle().value();  // Consume the re-cached pages.
  }
  result.flaky_failed = flaky.failed;
  result.durable_delivered = durable.invalidated;
  result.stats_report = inv.StatsReport();
  result.stats = inv.stats();

  // Every healthy sink saw the identical page set.
  std::set<std::string> all_a;
  for (const auto& cycle : result.cycle_invalidated) {
    all_a.insert(cycle.begin(), cycle.end());
  }
  EXPECT_EQ(all_a, sink_b.invalidated);
  return result;
}

/// The tentpole guarantee: invalidation decisions are identical at every
/// worker count — same pages per cycle, same per-cycle reports, same
/// lifetime counters, same per-type statistics, same delivery failures.
TEST(InvalidatorParallelTest, WorkerCountDoesNotChangeDecisions) {
  ScenarioResult serial = RunScenario(1);

  // The scripted workload really exercises every branch; a regression
  // that silently skips a branch would make the equality vacuous there.
  EXPECT_GT(serial.stats.affected_immediately, 0u);
  EXPECT_GT(serial.stats.unaffected, 0u);
  EXPECT_GT(serial.stats.polls_issued, 0u);
  EXPECT_GT(serial.stats.polls_answered_by_index, 0u);
  EXPECT_GT(serial.stats.poll_hits, 0u);
  EXPECT_GT(serial.stats.conservative_invalidations, 0u);
  EXPECT_GT(serial.stats.pages_invalidated, 0u);
  EXPECT_GT(serial.stats.messages_sent, 0u);
  EXPECT_GT(serial.stats.send_failures, 0u);
  // The overload controller was genuinely engaged, not idling at
  // kNormal: the report carries its line and the ladder moved.
  EXPECT_NE(serial.stats_report.find("overload: mode="), std::string::npos)
      << serial.stats_report;
  EXPECT_EQ(serial.stats_report.find("overload: mode=normal escalations=0 "),
            std::string::npos)
      << serial.stats_report;

  for (size_t workers : {2u, 4u, 8u}) {
    SCOPED_TRACE(StrCat("workers=", workers));
    ScenarioResult parallel = RunScenario(workers);
    EXPECT_EQ(serial.cycle_invalidated, parallel.cycle_invalidated);
    EXPECT_EQ(serial.cycle_reports, parallel.cycle_reports);
    EXPECT_EQ(serial.flaky_failed, parallel.flaky_failed);
    EXPECT_EQ(serial.durable_delivered, parallel.durable_delivered);
    EXPECT_EQ(serial.stats_report, parallel.stats_report);
  }
}

/// Random-workload soundness at 4 workers: the parallel pipeline must
/// still cover the exact re-execution baseline's ground truth.
class ParallelDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDifferentialTest, ParallelInvalidationsCoverGroundTruth) {
  Random rng(GetParam());
  ManualClock clock;
  db::Database db(&clock);
  ASSERT_TRUE(db.CreateTable(db::TableSchema(
                                 "Car", {{"maker", db::ColumnType::kString},
                                         {"model", db::ColumnType::kString},
                                         {"price", db::ColumnType::kInt}}))
                  .ok());
  const char* makers[] = {"Toyota", "Honda", "Mitsubishi", "Ford"};
  for (int i = 0; i < 20; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('",
                         makers[rng.Uniform(4)], "', 'M", rng.Uniform(6),
                         "', ", rng.Uniform(30000), ")"))
        .value();
  }

  sniffer::QiUrlMap map;
  RecordingSink sink;
  InvalidatorOptions options;
  options.worker_threads = 4;
  Invalidator inv(&db, &map, &clock, options);
  inv.AddSink(&sink);
  BaselineInvalidator baseline(&db, &map);

  std::vector<std::string> sqls;
  for (int i = 0; i < 8; ++i) {
    sqls.push_back(i % 2 == 0
                       ? StrCat("SELECT * FROM Car WHERE price < ",
                                5000 + rng.Uniform(25000))
                       : StrCat("SELECT * FROM Car WHERE maker = '",
                                makers[rng.Uniform(4)], "'"));
  }
  for (size_t i = 0; i < sqls.size(); ++i) {
    map.Add(sqls[i], StrCat("shop/p", i, "?##"), "/r", 0);
  }
  baseline.RunCycle().value();
  inv.RunCycle().value();

  for (int round = 0; round < 6; ++round) {
    for (int u = 0; u < 1 + static_cast<int>(rng.Uniform(3)); ++u) {
      if (rng.OneIn(0.5)) {
        db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('",
                             makers[rng.Uniform(4)], "', 'M",
                             rng.Uniform(6), "', ", rng.Uniform(30000), ")"))
            .value();
      } else {
        db.ExecuteSql(StrCat("DELETE FROM Car WHERE price > ",
                             15000 + rng.Uniform(15000)))
            .value();
      }
    }
    auto truth = baseline.RunCycle().value();
    sink.invalidated.clear();
    inv.RunCycle().value();
    for (const std::string& page : truth.stale_pages) {
      EXPECT_TRUE(sink.invalidated.contains(page))
          << "round " << round << ": stale page kept: " << page;
    }
    for (const std::string& sql_text : truth.changed_instances) {
      if (map.PagesForQuery(sql_text).empty()) baseline.Forget(sql_text);
    }
    for (size_t i = 0; i < sqls.size(); ++i) {
      map.Add(sqls[i], StrCat("shop/p", i, "?##"), "/r", 0);
    }
    baseline.RunCycle().value();
    inv.RunCycle().value();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

/// More workers than instances, and an empty cycle, must both be safe.
TEST(InvalidatorParallelTest, MoreWorkersThanWorkIsSafe) {
  ManualClock clock;
  db::Database db(&clock);
  ASSERT_TRUE(
      db.CreateTable(db::TableSchema("T", {{"x", db::ColumnType::kInt}}))
          .ok());
  sniffer::QiUrlMap map;
  RecordingSink sink;
  InvalidatorOptions options;
  options.worker_threads = 8;
  Invalidator inv(&db, &map, &clock, options);
  inv.AddSink(&sink);

  CycleReport empty = inv.RunCycle().value();  // No updates at all.
  EXPECT_EQ(empty.updates, 0u);

  map.Add("SELECT * FROM T WHERE x < 10", "p1", "/r", 0);
  inv.RunCycle().value();
  db.ExecuteSql("INSERT INTO T VALUES (5)").value();
  inv.RunCycle().value();
  EXPECT_TRUE(sink.invalidated.contains("p1"));
}

}  // namespace
}  // namespace cacheportal::invalidator
