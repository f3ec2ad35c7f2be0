#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "db/database.h"
#include "db/delta.h"
#include "invalidator/baseline.h"
#include "invalidator/invalidator.h"
#include "invalidator/stages.h"
#include "invalidator/strategy.h"
#include "sniffer/qiurl_map.h"
#include "sql/parser.h"

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

void CreateCarTable(db::Database* db) {
  ASSERT_TRUE(db->CreateTable(db::TableSchema(
                                  "Car", {{"id", db::ColumnType::kInt},
                                          {"maker", db::ColumnType::kString},
                                          {"model", db::ColumnType::kString},
                                          {"price", db::ColumnType::kInt},
                                          {"stock", db::ColumnType::kInt}}))
                  .ok());
}

void CreateMileageTable(db::Database* db) {
  ASSERT_TRUE(
      db->CreateTable(db::TableSchema(
                          "Mileage", {{"model", db::ColumnType::kString},
                                      {"EPA", db::ColumnType::kInt}}))
          .ok());
}

// ---------------------------------------------------------------------------
// Tier assignment corpus: each template lands on the tier DecideTier
// promises for its shape, with the demotion reason recorded (DESIGN.md
// §16). Driven through the real registration path so the assignment is
// the one the pipeline will dispatch on.
// ---------------------------------------------------------------------------

class TierAssignmentTest : public ::testing::Test {
 protected:
  TierAssignmentTest() : db_(&clock_), inv_(&db_, &map_, &clock_) {
    CreateCarTable(&db_);
    CreateMileageTable(&db_);
  }

  TierDecision TierFor(const std::string& sql) {
    EXPECT_TRUE(inv_.RegisterInstance(sql).ok()) << sql;
    const QueryInstance* instance = inv_.metadata().FindInstance(sql);
    EXPECT_NE(instance, nullptr) << sql;
    std::optional<TierDecision> tier =
        inv_.metadata().TierOf(instance->type_id);
    EXPECT_TRUE(tier.has_value()) << sql;
    return tier.value_or(TierDecision{});
  }

  ManualClock clock_;
  db::Database db_;
  sniffer::QiUrlMap map_;
  Invalidator inv_;
};

TEST_F(TierAssignmentTest, SingleTableShapesAreExact) {
  for (const char* sql : {
           "SELECT * FROM Car WHERE price < 20000",
           "SELECT maker, model FROM Car WHERE price IN (9000, 18000)",
           "SELECT model FROM Car WHERE price BETWEEN 5000 AND 20000",
           "SELECT * FROM Car",
           "SELECT maker FROM Car WHERE price > 100 ORDER BY model",
           "SELECT * FROM Car WHERE price = 9000 OR maker = 'Ford'",
       }) {
    TierDecision decision = TierFor(sql);
    EXPECT_EQ(decision.tier, StrategyTier::kExact) << sql;
    EXPECT_TRUE(decision.reason.empty()) << sql << " -> " << decision.reason;
  }
}

TEST_F(TierAssignmentTest, IneligibleShapesDemoteWithNamedReasons) {
  struct Case {
    const char* sql;
    StrategyTier tier;
    const char* reason;
  };
  const Case cases[] = {
      // Multi-table FROM: interpreted analysis residualizes on nearly
      // every delta, so the steady state is polling.
      {"SELECT Car.maker FROM Car, Mileage WHERE Car.model = Mileage.model",
       StrategyTier::kPoll, "multi-table FROM"},
      // Self-join (aliases of one table) is its own blocker: row images
      // of one side say nothing about the other side's bindings.
      {"SELECT a.model FROM Car a, Car b WHERE a.price < b.price",
       StrategyTier::kPoll, "self-join"},
      // LIKE has no row-image evaluator; the matcher cannot anchor it
      // either, so it stays on the interpreted path.
      {"SELECT * FROM Car WHERE maker LIKE 'F%'", StrategyTier::kInterpret,
       "LIKE pattern"},
      // A NULL comparand makes 3VL satisfaction unknowable from images,
      // but the matcher still anchors the equality — compiled tier.
      {"SELECT * FROM Car WHERE maker = NULL", StrategyTier::kCompiledBatch,
       "NULL comparand"},
  };
  for (const Case& c : cases) {
    TierDecision decision = TierFor(c.sql);
    EXPECT_EQ(decision.tier, c.tier) << c.sql;
    EXPECT_EQ(decision.reason, c.reason) << c.sql;
  }
}

TEST_F(TierAssignmentTest, DisabledExactTierDemotesEligibleShapes) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTable(&db);
  sniffer::QiUrlMap map;
  InvalidatorOptions options;
  options.exact_strategy = false;
  Invalidator inv(&db, &map, &clock, options);
  const std::string sql = "SELECT * FROM Car WHERE price < 20000";
  ASSERT_TRUE(inv.RegisterInstance(sql).ok());
  const QueryInstance* instance = inv.metadata().FindInstance(sql);
  ASSERT_NE(instance, nullptr);
  std::optional<TierDecision> tier = inv.metadata().TierOf(instance->type_id);
  ASSERT_TRUE(tier.has_value());
  EXPECT_NE(tier->tier, StrategyTier::kExact);
  EXPECT_EQ(tier->reason, "exact tier disabled");
}

// ---------------------------------------------------------------------------
// ExactInstanceAffected units: the row-image rule over hand-built deltas,
// pair semantics included.
// ---------------------------------------------------------------------------

class ExactRuleTest : public ::testing::Test {
 protected:
  ExactRuleTest()
      : schema_("Car", {{"id", db::ColumnType::kInt},
                        {"maker", db::ColumnType::kString},
                        {"model", db::ColumnType::kString},
                        {"price", db::ColumnType::kInt},
                        {"stock", db::ColumnType::kInt}}) {}

  bool Affected(const std::string& sql, const db::TableDelta& delta) {
    Result<std::unique_ptr<sql::SelectStatement>> statement =
        sql::Parser::ParseSelect(sql);
    EXPECT_TRUE(statement.ok()) << sql;
    return ExactInstanceAffected(**statement, schema_, delta);
  }

  static db::Row Car(int64_t id, const std::string& maker,
                     const std::string& model, int64_t price, int64_t stock) {
    return {sql::Value::Int(id), sql::Value::String(maker),
            sql::Value::String(model), sql::Value::Int(price),
            sql::Value::Int(stock)};
  }

  db::TableSchema schema_;
};

TEST_F(ExactRuleTest, UnpairedRowsEjectIffWhereSatisfied) {
  db::TableDelta delta;
  delta.inserts.push_back(Car(1, "Ford", "Focus", 9000, 3));
  EXPECT_TRUE(Affected("SELECT * FROM Car WHERE price < 20000", delta));
  EXPECT_FALSE(Affected("SELECT * FROM Car WHERE price > 20000", delta));
  db::TableDelta deletion;
  deletion.deletes.push_back(Car(1, "Ford", "Focus", 9000, 3));
  EXPECT_TRUE(Affected("SELECT * FROM Car WHERE price < 20000", deletion));
  EXPECT_FALSE(Affected("SELECT * FROM Car WHERE price > 20000", deletion));
  // Absent WHERE: every membership change shows.
  EXPECT_TRUE(Affected("SELECT * FROM Car", delta));
}

TEST_F(ExactRuleTest, PairedFlipEjects) {
  db::TableDelta delta;
  delta.deletes.push_back(Car(1, "Ford", "Focus", 25000, 3));
  delta.inserts.push_back(Car(1, "Ford", "Focus", 9000, 3));
  delta.update_pairs.emplace_back(0, 0);
  // 25000 -> 9000 crosses the predicate: the row enters the result.
  EXPECT_TRUE(Affected("SELECT * FROM Car WHERE price < 20000", delta));
}

TEST_F(ExactRuleTest, PairedIrrelevantChangeRetains) {
  db::TableDelta delta;
  delta.deletes.push_back(Car(1, "Ford", "Focus", 9000, 3));
  delta.inserts.push_back(Car(1, "Ford", "Focus", 9000, 7));
  delta.update_pairs.emplace_back(0, 0);
  // stock changed; the result reads maker/model and filters on price —
  // bytes provably unchanged, the cached page stays. This retention is
  // exactly where the exact tier beats the conservative pipeline.
  EXPECT_FALSE(
      Affected("SELECT maker, model FROM Car WHERE price < 20000", delta));
  // But a result that reads stock (via * or explicitly) must eject.
  EXPECT_TRUE(Affected("SELECT * FROM Car WHERE price < 20000", delta));
  EXPECT_TRUE(Affected("SELECT stock FROM Car WHERE price < 20000", delta));
  // ORDER BY references count as reads too.
  EXPECT_TRUE(Affected(
      "SELECT maker FROM Car WHERE price < 20000 ORDER BY stock", delta));
}

TEST_F(ExactRuleTest, PairedBothOutsideIsInvisible) {
  db::TableDelta delta;
  delta.deletes.push_back(Car(1, "Ford", "Focus", 25000, 3));
  delta.inserts.push_back(Car(1, "Ford", "Focus", 30000, 3));
  delta.update_pairs.emplace_back(0, 0);
  EXPECT_FALSE(Affected("SELECT * FROM Car WHERE price < 20000", delta));
}

TEST_F(ExactRuleTest, SplitPairDegradesToUnpairedRule) {
  // The same update with its halves unpaired (split across delta
  // windows): both images satisfy, so both trip the unpaired rule — a
  // conservative eject, never a retention.
  db::TableDelta delta;
  delta.deletes.push_back(Car(1, "Ford", "Focus", 9000, 3));
  delta.inserts.push_back(Car(1, "Ford", "Focus", 9000, 7));
  EXPECT_TRUE(
      Affected("SELECT maker, model FROM Car WHERE price < 20000", delta));
}

TEST_F(ExactRuleTest, MalformedPairEjectsConservatively) {
  db::TableDelta delta;
  delta.inserts.push_back(Car(1, "Ford", "Focus", 25000, 3));
  delta.update_pairs.emplace_back(5, 0);  // Dangling deletes index.
  EXPECT_TRUE(Affected("SELECT * FROM Car WHERE price < 20000", delta));
}

// ---------------------------------------------------------------------------
// Differential property (the tentpole's correctness gate): twin worlds —
// exact tier on vs off — over seeded random workloads with UPDATEs split
// between selected and unselected columns, at {1,4} workers. Per cycle: (a) the exact run's ejects are a SUBSET of
// the conservative run's (the tier only removes false ejects), and
// (b) the re-execution oracle finds ZERO stale retentions (every page
// whose result actually changed was ejected). Exact-only workloads
// additionally issue zero polls.
// ---------------------------------------------------------------------------

struct StrategyWorld {
  std::vector<std::set<std::string>> ejected;  // Per cycle.
  std::vector<std::set<std::string>> oracle_stale;
  uint64_t polls_issued = 0;
  std::string final_report;
};

StrategyWorld RunStrategyWorld(uint64_t seed, bool exact, size_t workers) {
  Random rng(seed);
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTable(&db);
  for (int i = 0; i < 16; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO Car VALUES (", i, ", 'm",
                         rng.Uniform(4), "', 'x", rng.Uniform(8), "', ",
                         rng.Uniform(30000), ", ", rng.Uniform(10), ")"))
        .value();
  }

  // Exact-eligible pool: single-table, schema-resolved, function-free.
  // Several shapes read a strict subset of the columns so unselected-
  // column UPDATEs separate the exact verdict from the conservative one.
  std::vector<std::string> sqls;
  for (int i = 0; i < 10; ++i) {
    switch (rng.Uniform(6)) {
      case 0:
        sqls.push_back(
            StrCat("SELECT * FROM Car WHERE price < ", rng.Uniform(30000)));
        break;
      case 1:
        sqls.push_back(StrCat("SELECT maker, model FROM Car WHERE price > ",
                              rng.Uniform(30000)));
        break;
      case 2:
        sqls.push_back(
            StrCat("SELECT model FROM Car WHERE stock = ", rng.Uniform(10)));
        break;
      case 3:
        sqls.push_back(StrCat("SELECT * FROM Car WHERE id IN (",
                              rng.Uniform(16), ", ", rng.Uniform(16), ")"));
        break;
      case 4: {
        uint64_t low = rng.Uniform(20000);
        sqls.push_back(StrCat("SELECT maker FROM Car WHERE price BETWEEN ",
                              low, " AND ", low + rng.Uniform(10000),
                              " ORDER BY model"));
        break;
      }
      default:
        sqls.push_back(
            StrCat("SELECT maker FROM Car WHERE model = 'x", rng.Uniform(8),
                   "'"));
        break;
    }
  }

  sniffer::QiUrlMap map;
  RecordingSink sink;
  InvalidatorOptions options;
  options.exact_strategy = exact;
  options.worker_threads = workers;
  Invalidator inv(&db, &map, &clock, options);
  inv.AddSink(&sink);
  BaselineInvalidator oracle(&db, &map);

  StrategyWorld result;
  for (int cycle = 0; cycle < 8; ++cycle) {
    for (size_t i = 0; i < sqls.size(); ++i) {
      map.Add(sqls[i], StrCat("shop/p", i, "?##"), "/r", 0);
    }
    // Let the oracle snapshot newly (re-)cached instances BEFORE the
    // updates, so its diff covers exactly this cycle's changes.
    oracle.RunCycle().value();
    int burst = 1 + static_cast<int>(rng.Uniform(4));
    for (int u = 0; u < burst; ++u) {
      switch (rng.Uniform(6)) {
        case 0:
          db.ExecuteSql(StrCat("INSERT INTO Car VALUES (", 16 + rng.Uniform(64),
                               ", 'm", rng.Uniform(4), "', 'x", rng.Uniform(8),
                               "', ", rng.Uniform(30000), ", ", rng.Uniform(10),
                               ")"))
              .value();
          break;
        case 1:
          db.ExecuteSql(
                StrCat("DELETE FROM Car WHERE price > ", 20000 + rng.Uniform(10000)))
              .value();
          break;
        case 2:
          // Unselected-column update for the column-subset shapes.
          db.ExecuteSql(StrCat("UPDATE Car SET stock = ", rng.Uniform(10),
                               " WHERE id = ", rng.Uniform(16)))
              .value();
          break;
        case 3:
          db.ExecuteSql(StrCat("UPDATE Car SET price = ", rng.Uniform(30000),
                               " WHERE id = ", rng.Uniform(16)))
              .value();
          break;
        case 4:
          db.ExecuteSql(StrCat("UPDATE Car SET model = 'x", rng.Uniform(8),
                               "' WHERE stock = ", rng.Uniform(10)))
              .value();
          break;
        default:
          db.ExecuteSql(StrCat("UPDATE Car SET maker = 'm", rng.Uniform(4),
                               "' WHERE price < ", rng.Uniform(30000)))
              .value();
          break;
      }
    }
    BaselineInvalidator::CycleResult truth = oracle.RunCycle().value();
    sink.invalidated.clear();
    inv.RunCycle().value();
    result.ejected.push_back(sink.invalidated);
    result.oracle_stale.push_back(truth.stale_pages);
  }
  result.polls_issued = inv.stats().polls_issued;
  result.final_report = inv.StatsReport();
  return result;
}

class StrategyDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrategyDifferentialTest, ExactIsSubsetOfConservativeAndNeverStale) {
  const uint64_t seed = GetParam();
  uint64_t retained = 0;
  for (size_t workers : {1u, 4u}) {
    SCOPED_TRACE(StrCat("seed ", seed, " workers ", workers));
    StrategyWorld conservative =
        RunStrategyWorld(seed, /*exact=*/false, workers);
    StrategyWorld precise = RunStrategyWorld(seed, /*exact=*/true, workers);
    ASSERT_EQ(precise.ejected.size(), conservative.ejected.size());
    for (size_t c = 0; c < precise.ejected.size(); ++c) {
      // (a) Subset: the exact tier removes ejects, never adds them.
      for (const std::string& page : precise.ejected[c]) {
        EXPECT_TRUE(conservative.ejected[c].contains(page))
            << "cycle " << c << ": exact ejected '" << page
            << "' but the conservative pipeline did not";
      }
      // (b) Zero stale retention: every page whose re-executed result
      // changed was ejected by the exact run.
      for (const std::string& page : precise.oracle_stale[c]) {
        EXPECT_TRUE(precise.ejected[c].contains(page))
            << "cycle " << c << ": STALE RETENTION of '" << page << "'";
      }
      retained += conservative.ejected[c].size() - precise.ejected[c].size();
    }
    // The workload is exact-only: the exact run never polls.
    EXPECT_EQ(precise.polls_issued, 0u);
  }
  // Not asserted per seed (a seed may legitimately produce only flips),
  // but visible in the test record: how many false ejects the tier
  // removed across the matrix.
  RecordProperty("false_ejects_removed", static_cast<int>(retained));
}

TEST_P(StrategyDifferentialTest, ExactRunIsDeterministicAcrossTheMatrix) {
  const uint64_t seed = GetParam();
  StrategyWorld base = RunStrategyWorld(seed, /*exact=*/true, 1);
  for (size_t workers : {1u, 4u}) {
    StrategyWorld got = RunStrategyWorld(seed, /*exact=*/true, workers);
    ASSERT_EQ(got.ejected.size(), base.ejected.size());
    for (size_t c = 0; c < base.ejected.size(); ++c) {
      EXPECT_EQ(got.ejected[c], base.ejected[c])
          << "seed " << seed << " workers " << workers << " cycle " << c;
    }
    EXPECT_EQ(got.final_report, base.final_report)
        << "seed " << seed << " workers " << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyDifferentialTest,
                         ::testing::Range<uint64_t>(1, 12));

// ---------------------------------------------------------------------------
// The exact tier at scale, through the bind index: 10^4 point-lookup
// instances of one exact type. Candidates come from the columnar probes
// like every compiled type's; a non-candidate's WHERE is FALSE for every
// old and new row image, so skipping it changes no verdict. Ejects must
// equal the re-execution oracle at every worker count, and the
// decision counters must equal the ones the full walk (every exact
// instance decided from row images, every cycle) produced on this world.
// ---------------------------------------------------------------------------

constexpr int kPointGroups = 10000;

struct PointRun {
  std::vector<std::set<std::string>> ejected;  // Per cycle.
  std::vector<std::set<std::string>> oracle_stale;
  std::vector<uint64_t> checks;  // CycleReport::checks, per cycle.
  InvalidatorStats stats;
  uint64_t type_checks = 0;  // The type's QueryTypeStats::checks.
  uint64_t type_affected = 0;
  uint64_t fast_path_instances = 0;
};

/// `oracle` off skips the re-execution (run.oracle_stale stays empty):
/// every configuration replays the same world, so one oracle run serves
/// them all as long as their ejects agree cycle by cycle.
PointRun RunPointWorld(size_t workers, bool with_oracle) {
  ManualClock clock;
  db::Database db(&clock);
  EXPECT_TRUE(db.CreateTable(db::TableSchema(
                                 "Item", {{"id", db::ColumnType::kInt},
                                          {"grp", db::ColumnType::kDouble},
                                          {"label", db::ColumnType::kString}}))
                  .ok());
  EXPECT_TRUE(
      db.CreateTable(db::TableSchema("Other", {{"x", db::ColumnType::kInt}}))
          .ok());
  // One row in every 150th group: id i sits in group 150 * i.
  for (int i = 0; i < 64; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO Item VALUES (", i, ", ", 150 * i,
                         ", 'l", i, "')"))
        .value();
  }
  auto insert_nan_row = [&db] {
    auto insert = std::make_unique<sql::InsertStatement>();
    insert->table = "Item";
    insert->values.push_back(std::make_unique<sql::LiteralExpr>(sql::Value::Int(101)));
    insert->values.push_back(std::make_unique<sql::LiteralExpr>(
        sql::Value::Double(std::numeric_limits<double>::quiet_NaN())));
    insert->values.push_back(
        std::make_unique<sql::LiteralExpr>(sql::Value::String("nan")));
    EXPECT_TRUE(db.ExecuteInsert(*insert).ok());
  };
  // One burst per cycle.
  const std::vector<std::function<void()>> bursts = {
      // Group 450 -> group 7777: both groups' results change.
      [&db] { db.ExecuteSql("UPDATE Item SET grp = 7777 WHERE id = 3").value(); },
      // NULL anchor cell: the probe returns every row to every instance
      // (the full walk); grp = NULL matches no group.
      [&db] { db.ExecuteSql("INSERT INTO Item VALUES (100, NULL, 'n')").value(); },
      // NaN anchor cell: also the full walk; NaN compares equal to every
      // number, so the row joins every group's result.
      insert_nan_row,
      [&db] { db.ExecuteSql("DELETE FROM Item WHERE id = 10").value(); },
      // A table no instance reads.
      [&db] { db.ExecuteSql("INSERT INTO Other VALUES (1)").value(); },
      // In-place content change inside group 3000.
      [&db] { db.ExecuteSql("UPDATE Item SET label = 'z' WHERE id = 20").value(); },
      [&db] {
        db.ExecuteSql("INSERT INTO Item VALUES (102, 42, 'm')").value();
        db.ExecuteSql("UPDATE Item SET grp = 9999 WHERE id = 31").value();
        db.ExecuteSql("INSERT INTO Other VALUES (2)").value();
      },
  };

  sniffer::QiUrlMap map;
  RecordingSink sink;
  InvalidatorOptions options;
  options.worker_threads = workers;
  Invalidator inv(&db, &map, &clock, options);
  inv.AddSink(&sink);
  BaselineInvalidator oracle(&db, &map);

  PointRun run;
  for (const std::function<void()>& burst : bursts) {
    for (int g = 0; g < kPointGroups; ++g) {
      std::string sql = StrCat("SELECT * FROM Item WHERE grp = ", g);
      if (map.NumPagesForQuery(sql) == 0) {
        map.Add(sql, StrCat("item/g", g, "?##"), "/r", 0);
      }
    }
    if (with_oracle) oracle.RunCycle().value();
    burst();
    if (with_oracle) run.oracle_stale.push_back(oracle.RunCycle()->stale_pages);
    sink.invalidated.clear();
    CycleReport report = inv.RunCycle().value();
    run.ejected.push_back(sink.invalidated);
    run.checks.push_back(report.checks);
  }
  run.stats = inv.stats();
  run.fast_path_instances = inv.matcher_stats().fast_path_instances;
  inv.metadata().ForEachType([&](const QueryType& type) {
    run.type_checks += type.stats.checks;
    run.type_affected += type.stats.affected;
  });
  for (const auto& [type_id, decision] : inv.metadata().TierAssignments()) {
    EXPECT_EQ(decision.tier, StrategyTier::kExact);
  }
  return run;
}

TEST(ExactTierAtScaleTest, EjectsEqualTheOracleAndCountersEqualTheFullWalk) {
  const PointRun serial = RunPointWorld(1, /*with_oracle=*/true);
  const std::vector<std::set<std::string>>& truth = serial.oracle_stale;
  ASSERT_EQ(truth.size(), 7u);
  for (size_t workers : {1u, 4u}) {
    SCOPED_TRACE(StrCat("workers ", workers));
    PointRun run =
        workers == 1 ? serial : RunPointWorld(workers, /*with_oracle=*/false);
    ASSERT_EQ(run.ejected.size(), truth.size());
    for (size_t c = 0; c < run.ejected.size(); ++c) {
      EXPECT_EQ(run.ejected[c], truth[c]) << "cycle " << c;
    }
    EXPECT_EQ(run.ejected[0], (std::set<std::string>{"item/g450?##",
                                                     "item/g7777?##"}));
    EXPECT_TRUE(run.ejected[1].empty());
    EXPECT_EQ(run.ejected[2].size(), static_cast<size_t>(kPointGroups));
    EXPECT_TRUE(run.ejected[4].empty());

    // The full walk's decision counters on this world: every live
    // instance counts one check per cycle, skipped or not.
    EXPECT_EQ(run.checks, std::vector<uint64_t>(7, kPointGroups));
    EXPECT_EQ(run.stats.instance_checks, 70000u);
    EXPECT_EQ(run.stats.unaffected, 59993u);
    EXPECT_EQ(run.stats.affected_immediately, 10007u);
    EXPECT_EQ(run.stats.polls_issued, 0u);
    EXPECT_EQ(run.stats.conservative_invalidations, 0u);
    EXPECT_EQ(run.type_checks, 70000u);
    EXPECT_EQ(run.type_affected, 10007u);
    // ... of which the probes decided all but the candidates without
    // touching the instance: every cycle but the NULL and NaN ones.
    EXPECT_EQ(run.fast_path_instances,
              9998u + 9999u + 10000u + 9999u + 9997u);
  }
}

// ---------------------------------------------------------------------------
// Overload-rung interaction: exact verdicts are immune to the economy and
// conservative rungs (they issue no polls, so there is nothing to take),
// and only the emergency flush overrides them.
// ---------------------------------------------------------------------------

/// Owns every component a StageEnv borrows (invalidator_pipeline_test's
/// fixture, with the exact tier on).
struct StageFixture {
  StageFixture()
      : db(&clock),
        plane(&db, /*exact_strategy=*/true, map.shared_ids()),
        info(&db),
        scheduler(/*max_polls_per_cycle=*/0) {}

  StageEnv Env() {
    StageEnv env;
    env.database = &db;
    env.map = &map;
    env.clock = &clock;
    env.options = &options;
    env.plane = &plane;
    env.info = &info;
    env.scheduler = &scheduler;
    env.sinks = &sinks;
    env.stats = &stats;
    env.cycle_matcher_stats = &cycle_matcher_stats;
    env.last_update_seq = &last_update_seq;
    env.last_map_epoch = &last_map_epoch;
    env.execute_poll = [this](const std::string& poll_sql) {
      return db.ExecuteSql(poll_sql);
    };
    return env;
  }

  /// Whether the instance `sql` names is in ctx.affected.
  bool Affected(const CycleContext& ctx, const std::string& sql) const {
    std::optional<QueryId> id = plane.ids().queries.Find(sql);
    return id.has_value() && ctx.affected.contains(*id);
  }

  ManualClock clock;
  db::Database db;
  sniffer::QiUrlMap map;
  InvalidatorOptions options;
  MetadataPlane plane;
  InformationManager info;
  InvalidationScheduler scheduler;
  RecordingSink sink;
  std::vector<InvalidationSink*> sinks = {&sink};
  InvalidatorStats stats;
  MatcherStats cycle_matcher_stats;
  uint64_t last_update_seq = 0;
  std::optional<uint64_t> last_map_epoch;
};

TEST(StrategyRungTest, ConservativeRungNeverCondemnsExactInstances) {
  StageFixture fx;
  CreateCarTable(&fx.db);
  CreateMileageTable(&fx.db);
  fx.db.ExecuteSql("INSERT INTO Car VALUES (1, 'Ford', 'Focus', 9000, 3)")
      .value();
  fx.last_update_seq = fx.db.update_log().LastSeq();
  // An exact instance a stock-only update provably does not affect, and
  // a join instance the same cycle cannot decide without a poll.
  const std::string exact_sql = "SELECT maker, model FROM Car WHERE price < 20000";
  const std::string join_sql =
      "SELECT Car.model FROM Car, Mileage WHERE Car.model = Mileage.model";
  fx.map.Add(exact_sql, "p-exact", "/r", 0);
  fx.map.Add(join_sql, "p-join", "/r", 0);
  fx.db.ExecuteSql("UPDATE Car SET stock = 9 WHERE id = 1").value();
  fx.db.ExecuteSql("INSERT INTO Mileage VALUES ('Focus', 30)").value();

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(ctx.proceed);
  // IngestStage resolves the cycle's policy itself, so the rung under
  // test is installed after it runs (the PollStage-test idiom).
  ctx.policy = MakeStagePolicy(DegradationMode::kConservative, fx.options);
  ASSERT_TRUE(ctx.policy.skip_polls);
  EXPECT_TRUE(ctx.policy.exact_exempt);
  ASSERT_TRUE(ImpactStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(PollStage(fx.Env()).Run(ctx).ok());
  // The join instance is condemned (skip_polls); the exact instance's
  // precise "unaffected" verdict survives the rung untouched.
  EXPECT_TRUE(fx.Affected(ctx, join_sql));
  EXPECT_FALSE(fx.Affected(ctx, exact_sql));
  EXPECT_EQ(ctx.report.polls_issued, 0u);
}

TEST(StrategyRungTest, EmergencyFlushOverridesExactVerdicts) {
  StageFixture fx;
  CreateCarTable(&fx.db);
  fx.db.ExecuteSql("INSERT INTO Car VALUES (1, 'Ford', 'Focus', 9000, 3)")
      .value();
  fx.last_update_seq = fx.db.update_log().LastSeq();
  const std::string exact_sql = "SELECT maker, model FROM Car WHERE price < 20000";
  fx.map.Add(exact_sql, "p-exact", "/r", 0);
  // Provably irrelevant under the exact rule — but the emergency rung
  // flushes every instance reading a backlogged table, exact included.
  fx.db.ExecuteSql("UPDATE Car SET stock = 9 WHERE id = 1").value();

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(ctx.proceed);
  // Installed after IngestStage, which resolves the policy itself.
  ctx.policy = MakeStagePolicy(DegradationMode::kEmergency, fx.options);
  EXPECT_FALSE(ctx.policy.exact_exempt);
  ASSERT_TRUE(ImpactStage(fx.Env()).Run(ctx).ok());
  EXPECT_TRUE(fx.Affected(ctx, exact_sql));
}

}  // namespace
}  // namespace cacheportal::invalidator
