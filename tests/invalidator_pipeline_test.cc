#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "db/database.h"
#include "invalidator/cycle.h"
#include "invalidator/invalidator.h"
#include "invalidator/metadata_plane.h"
#include "invalidator/stages.h"
#include "pinned_run.h"
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

void CreateCarTables(db::Database* db) {
  ASSERT_TRUE(db->CreateTable(db::TableSchema(
                                  "Car", {{"maker", db::ColumnType::kString},
                                          {"model", db::ColumnType::kString},
                                          {"price", db::ColumnType::kInt}}))
                  .ok());
  ASSERT_TRUE(
      db->CreateTable(db::TableSchema(
                          "Mileage", {{"model", db::ColumnType::kString},
                                      {"EPA", db::ColumnType::kInt}}))
          .ok());
}

std::string ReportKey(const CycleReport& r) {
  return StrCat(r.updates, "/", r.new_instances, "/", r.checks, "/",
                r.affected_instances, "/", r.polls_issued, "/",
                r.polls_answered_by_index, "/", r.conservative_invalidations,
                "/", r.pages_invalidated, "/", DegradationModeName(r.mode));
}

// ---------------------------------------------------------------------------
// Differential matrix: the staged pipeline must produce
// byte-identical decisions at every worker count, equal to
// the interpreted walk's outputs pinned below (pinned_run.h).
// ---------------------------------------------------------------------------

struct MatrixResult {
  std::vector<std::set<std::string>> cycle_invalidated;  // Per round.
  std::vector<std::string> cycle_reports;                // Per round.
  std::vector<std::set<int>> changed;  // Per round: pages whose query
                                       // result the round's updates changed.
  std::string stats_report;
};

MatrixResult RunMatrixScenario(uint64_t seed, size_t workers) {
  Random rng(seed);
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  const char* makers[] = {"Toyota", "Honda", "Mitsubishi", "Ford"};
  const char* models[] = {"Avalon", "Civic", "Eclipse", "Corolla"};
  for (int i = 0; i < 16; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('", makers[rng.Uniform(4)],
                         "', '", models[rng.Uniform(4)], "', ",
                         rng.Uniform(30000), ")"))
        .value();
  }
  for (int i = 0; i < 4; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO Mileage VALUES ('",
                         models[rng.Uniform(4)], "', ", 20 + rng.Uniform(15),
                         ")"))
        .value();
  }

  sniffer::QiUrlMap map;
  InvalidatorOptions options;
  options.worker_threads = workers;
  options.max_polls_per_cycle = 2;  // Budget pressure: condemnations.
  options.polling_cache_capacity = 8;
  Invalidator inv(&db, &map, &clock, options);
  EXPECT_TRUE(inv.CreateJoinIndex("Mileage", "model").ok());
  RecordingSink sink;
  inv.AddSink(&sink);

  // Ten instances over five distinct query types.
  std::vector<std::string> sqls;
  for (int i = 0; i < 10; ++i) {
    switch (i % 5) {
      case 0:
        sqls.push_back(StrCat("SELECT * FROM Car WHERE price < ",
                              4000 + rng.Uniform(26000)));
        break;
      case 1:
        sqls.push_back(StrCat("SELECT * FROM Car WHERE maker = '",
                              makers[rng.Uniform(4)], "'"));
        break;
      case 2:
        sqls.push_back(
            StrCat("SELECT Car.model FROM Car, Mileage WHERE Car.model = "
                   "Mileage.model AND Car.price < ",
                   6000 + rng.Uniform(20000)));
        break;
      case 3:
        sqls.push_back(
            StrCat("SELECT * FROM Mileage WHERE EPA > ", 18 + rng.Uniform(14)));
        break;
      default:
        sqls.push_back(StrCat("SELECT * FROM Car WHERE model = '",
                              models[rng.Uniform(4)], "'"));
        break;
    }
  }
  auto recache = [&map, &sqls]() {
    for (size_t i = 0; i < sqls.size(); ++i) {
      map.Add(sqls[i], StrCat("shop/p", i, "?##"), "/r", 0);
    }
  };
  recache();
  inv.RunCycle().value();  // Register the pages; the log is quiet.

  MatrixResult result;
  for (int round = 0; round < 6; ++round) {
    const std::vector<std::string> before = ResultTexts(db, sqls);
    for (int u = 0; u < 1 + static_cast<int>(rng.Uniform(3)); ++u) {
      switch (rng.Uniform(4)) {
        case 0:
          db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('",
                               makers[rng.Uniform(4)], "', '",
                               models[rng.Uniform(4)], "', ",
                               rng.Uniform(30000), ")"))
              .value();
          break;
        case 1:
          db.ExecuteSql(StrCat("DELETE FROM Car WHERE price > ",
                               15000 + rng.Uniform(15000)))
              .value();
          break;
        case 2:
          db.ExecuteSql(StrCat("INSERT INTO Mileage VALUES ('",
                               models[rng.Uniform(4)], "', ",
                               20 + rng.Uniform(15), ")"))
              .value();
          break;
        default:
          db.ExecuteSql(StrCat("DELETE FROM Mileage WHERE EPA > ",
                               25 + rng.Uniform(10)))
              .value();
          break;
      }
    }
    sink.invalidated.clear();
    CycleReport report = inv.RunCycle().value();
    result.cycle_invalidated.push_back(sink.invalidated);
    result.cycle_reports.push_back(ReportKey(report));
    result.changed.push_back(ChangedPages(before, ResultTexts(db, sqls)));
    recache();
    inv.RunCycle().value();  // Consume the re-cached pages.
  }
  result.stats_report = inv.StatsReport();
  return result;
}

// The interpreted walk's outputs, seeds 1-11, at workers=1:
// per-round ejects and ReportKey()s. Re-recorded when delta-join
// decomposition replaced the multi-table guard; the ejects that dropped
// out are kept below.
const PinnedRun kInterpretedRuns[] = {
    {1,
     {{0, 2, 3, 5, 6, 7, 8, 9}, {1, 3, 4, 6, 8, 9}, {}, {2, 7, 9}, {},
      {0, 1, 2, 4, 5, 7, 9}},
     {"3/0/10/8/0/0/0/8/normal", "12/0/10/6/2/0/0/6/normal",
      "0/0/0/0/0/0/0/0/normal", "2/0/10/3/2/0/0/3/normal",
      "0/0/0/0/0/0/0/0/normal", "3/0/10/7/0/2/0/7/normal"},
     0x37d3dcbd90787ca4},
    {2,
     {{9}, {0, 4}, {0, 1, 2, 3, 4, 6, 7, 8, 9}, {3, 7, 8},
      {0, 1, 2, 3, 6, 7, 8}, {0, 2, 3, 4, 5, 7, 8}},
     {"1/0/9/1/0/0/0/1/normal", "1/0/9/2/0/1/0/2/normal",
      "10/0/9/8/1/0/0/9/normal", "1/0/9/3/2/0/0/3/normal",
      "3/0/9/6/1/1/0/7/normal", "2/0/9/7/2/2/0/7/normal"},
     0x1ea030098ddec817},
    {3,
     {{0, 1, 2, 5, 7}, {2, 3, 7, 8}, {2, 3, 7, 8, 9}, {0, 2, 4, 6, 7}, {1, 4},
      {}},
     {"2/0/10/5/0/2/0/5/normal", "2/0/10/4/2/0/0/4/normal",
      "2/0/10/5/2/0/0/5/normal", "2/0/10/5/0/2/0/5/normal",
      "1/0/10/2/0/0/0/2/normal", "0/0/0/0/0/0/0/0/normal"},
     0xe0888787dd3a1273},
    {4,
     {{3, 8}, {0, 1, 2, 7}, {}, {3, 8}, {0, 1, 2, 7}, {}},
     {"2/0/10/2/2/0/0/2/normal", "1/0/10/4/0/2/0/4/normal",
      "0/0/0/0/0/0/0/0/normal", "1/0/10/2/2/0/0/2/normal",
      "1/0/10/4/0/2/0/4/normal", "0/0/0/0/0/0/0/0/normal"},
     0x1239dce8b0139706},
    {5,
     {{1, 6}, {0, 1, 2, 4, 5, 6, 7}, {}, {0, 2, 5, 7}, {2, 3, 7, 8},
      {2, 3, 7, 8}},
     {"1/0/9/1/0/0/0/2/normal", "1/0/9/6/0/2/0/7/normal",
      "1/0/9/0/0/1/0/0/normal", "2/0/9/4/2/2/0/4/normal",
      "1/0/9/4/2/0/0/4/normal", "2/0/9/4/2/0/0/4/normal"},
     0xc5617218b7fa4594},
    {6,
     {{0, 1, 4, 5, 9}, {2, 3, 7, 8}, {0, 1, 2, 4, 5, 6, 7, 9},
      {0, 1, 2, 4, 5, 7, 9}, {0, 1, 2, 5, 7}, {}},
     {"1/0/9/4/0/2/0/5/normal", "1/0/9/4/2/0/0/4/normal",
      "9/0/9/7/0/2/0/8/normal", "2/0/9/6/0/2/0/7/normal",
      "1/0/9/5/0/2/0/5/normal", "0/0/0/0/0/0/0/0/normal"},
     0x89d0c7a839cf74c1},
    {7,
     {{2, 3, 4, 5, 8}, {1, 5, 6, 9}, {0, 2, 5, 7}, {2, 7}, {2, 7}, {0, 4, 5}},
     {"2/0/8/4/2/1/0/5/normal", "4/0/8/3/0/0/0/4/normal",
      "1/0/8/4/0/2/0/4/normal", "2/0/8/2/2/0/0/2/normal",
      "2/0/8/2/2/0/0/2/normal", "1/0/8/3/0/2/0/3/normal"},
     0xee32947d7beb0887},
    {8,
     {{1, 2}, {0, 1, 2, 3, 5, 7, 8}, {}, {0}, {2, 3, 7, 8}, {2, 7}},
     {"2/0/9/2/2/0/0/2/normal", "3/0/9/7/2/0/0/7/normal",
      "0/0/0/0/0/0/0/0/normal", "3/0/9/1/2/0/0/1/normal",
      "3/0/9/4/2/0/0/4/normal", "1/0/9/2/2/0/0/2/normal"},
     0x3efa014ded5c1e83},
    {9,
     {{1, 4, 9}, {2, 7, 8}, {0, 1, 2, 3, 5, 7, 8}, {2, 3, 7, 8}, {2, 7},
      {0, 1, 4, 5, 9}},
     {"5/0/10/3/0/0/0/3/normal", "2/0/10/3/2/0/0/3/normal",
      "5/0/10/7/0/0/0/7/normal", "2/0/10/4/2/0/0/4/normal",
      "2/0/10/2/0/2/0/2/normal", "2/0/10/5/0/2/0/5/normal"},
     0x81656ec534cd8ae7},
    {10,
     {{2, 3, 7, 8}, {4, 6}, {0, 1, 5, 9}, {}, {}, {}},
     {"3/0/10/4/2/0/0/4/normal", "2/0/10/2/0/1/0/2/normal",
      "1/0/10/4/0/2/0/4/normal", "0/0/0/0/0/0/0/0/normal",
      "0/0/0/0/0/0/0/0/normal", "0/0/0/0/0/0/0/0/normal"},
     0xd7ab48f7bdd5db0b},
    {11,
     {{2, 3, 7}, {2, 3, 7, 8}, {1, 6, 7, 9}, {4, 6, 7}, {}, {2, 3, 7, 8}},
     {"1/0/10/3/2/0/0/3/normal", "2/0/10/4/2/0/0/4/normal",
      "5/0/10/4/0/1/0/4/normal", "2/0/10/3/0/1/0/3/normal",
      "0/0/0/0/0/0/0/0/normal", "2/0/10/4/2/0/0/4/normal"},
     0xcde0a08617c0b777},
};

// Ejects the literal above held before delta-join decomposition replaced
// the multi-table guard: two-table batches no longer eject these pages.
// Each was false, which the test proves by re-execution.
const std::vector<DroppedEjects> kGuardOnlyEjects = {
    {1, 1, {2, 7}}, {7, 0, {7}}, {8, 0, {7}}, {8, 3, {2, 7}},
};

// Seed 1's full final StatsReport(), so a report mismatch is readable.
constexpr char kSeed1Report[] = R"(invalidator: cycles=13 updates=20 checks=40 affected=20 unaffected=14 polls=4 idx-answered=2 poll-hits=2 conservative=0 emergency-flushes=0 pages-invalidated=24 messages-sent=24 send-failures=0
  strategy: exact=4 compiled-batch=1 interpret=0 poll=0
  strategy-demotions: 'multi-table FROM'=1
  type 'discovered-5': instances=8 checks=8 affected=6 polls=0 inval-ratio=0.75 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-4': instances=6 checks=8 affected=4 polls=0 inval-ratio=0.5 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-2': instances=6 checks=8 affected=4 polls=0 inval-ratio=0.5 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-1': instances=6 checks=8 affected=4 polls=0 inval-ratio=0.5 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-3': instances=8 checks=8 affected=4 polls=4 inval-ratio=0.5 avg-time-us=0 max-time-us=0 tier=compiled-batch
)";

class PipelineDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineDifferentialTest, WorkerCountsDoNotChangeDecisions) {
  const PinnedRun& pinned = kInterpretedRuns[GetParam() - 1];
  ASSERT_EQ(pinned.seed, GetParam());
  // The scenario is non-trivial: something got invalidated.
  size_t total = 0;
  for (const auto& cycle : pinned.ejected) total += cycle.size();
  EXPECT_GT(total, 0u);

  for (size_t workers : {1u, 4u}) {
    SCOPED_TRACE(StrCat("workers=", workers));
    MatrixResult got = RunMatrixScenario(GetParam(), workers);
    ExpectReproduces(pinned, got.cycle_invalidated, got.cycle_reports,
                     got.stats_report);
    ExpectDroppedEjectsWereFalse(pinned, kGuardOnlyEjects, got.changed);
    if (GetParam() == 1) {
      EXPECT_EQ(got.stats_report, kSeed1Report);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineDifferentialTest,
                         ::testing::Range<uint64_t>(1, 12));

// ---------------------------------------------------------------------------
// MetadataPlane unit tests.
// ---------------------------------------------------------------------------

TEST(MetadataPlaneTest, RegistrationIsIdempotentAndRetireRoutesBySql) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  MetadataPlane plane(&db, /*exact_strategy=*/true);
  const std::string sql_text = "SELECT * FROM Car WHERE price < 9000";

  const QueryInstance* first = plane.RegisterInstance(sql_text).value();
  const QueryInstance* again = plane.RegisterInstance(sql_text).value();
  EXPECT_EQ(first, again);  // The fast path resolves to the same node.
  EXPECT_EQ(plane.NumInstances(), 1u);
  EXPECT_EQ(plane.NumIndexedInstances(), 1u);
  EXPECT_EQ(plane.FindInstance(sql_text), first);

  // Retirement needs only the SQL: the interner finds the instance.
  plane.RetireInstance(sql_text);
  EXPECT_EQ(plane.FindInstance(sql_text), nullptr);
  EXPECT_EQ(plane.NumInstances(), 0u);
  EXPECT_EQ(plane.NumIndexedInstances(), 0u);
  // The type (and its stats) outlive the instance.
  EXPECT_EQ(plane.NumTypes(), 1u);

  // Re-registration after retirement takes the slow path and succeeds.
  const QueryInstance* back = plane.RegisterInstance(sql_text).value();
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(plane.NumInstances(), 1u);
  EXPECT_EQ(plane.NumIndexedInstances(), 1u);
}

TEST(MetadataPlaneTest, MapCursorAdvancesAndResets) {
  ManualClock clock;
  db::Database db(&clock);
  MetadataPlane plane(&db, /*exact_strategy=*/true);
  EXPECT_EQ(plane.MapCursor(), 0u);
  plane.AdvanceMapCursor(7);
  EXPECT_EQ(plane.MapCursor(), 7u);
  plane.AdvanceMapCursor(3);  // Never rewinds.
  EXPECT_EQ(plane.MapCursor(), 7u);
  plane.SetMapCursor(0);
  EXPECT_EQ(plane.MapCursor(), 0u);
}

// ---------------------------------------------------------------------------
// StagePolicy: the degradation rung resolved into stage knobs.
// ---------------------------------------------------------------------------

TEST(StagePolicyTest, RungsResolveToKnobs) {
  InvalidatorOptions options;
  options.max_polls_per_cycle = 10;
  options.overload.economy_poll_budget = 3;

  StagePolicy normal = MakeStagePolicy(DegradationMode::kNormal, options);
  EXPECT_EQ(normal.poll_budget, 10u);
  EXPECT_FALSE(normal.skip_polls);
  EXPECT_FALSE(normal.flush_only);

  StagePolicy economy = MakeStagePolicy(DegradationMode::kEconomy, options);
  EXPECT_EQ(economy.poll_budget, 3u);
  EXPECT_FALSE(economy.skip_polls);

  // An unlimited configured budget still shrinks to the economy budget.
  InvalidatorOptions unlimited = options;
  unlimited.max_polls_per_cycle = 0;
  EXPECT_EQ(MakeStagePolicy(DegradationMode::kEconomy, unlimited).poll_budget,
            3u);

  // A zero economy budget means "no polls at all" on the economy rung.
  InvalidatorOptions zero = options;
  zero.overload.economy_poll_budget = 0;
  EXPECT_TRUE(MakeStagePolicy(DegradationMode::kEconomy, zero).skip_polls);

  StagePolicy conservative =
      MakeStagePolicy(DegradationMode::kConservative, options);
  EXPECT_TRUE(conservative.skip_polls);
  EXPECT_FALSE(conservative.flush_only);

  StagePolicy emergency = MakeStagePolicy(DegradationMode::kEmergency, options);
  EXPECT_TRUE(emergency.skip_polls);
  EXPECT_TRUE(emergency.flush_only);
}

// ---------------------------------------------------------------------------
// Stage isolation: each stage driven standalone around a hand-built
// StageEnv / CycleContext, the way the CycleContext contract promises.
// ---------------------------------------------------------------------------

/// Owns every component a StageEnv borrows, with nullable extras off.
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

TEST(IngestStageTest, RegistersInstancesAndBuildsDeltas) {
  StageFixture fx;
  ASSERT_TRUE(
      fx.db.CreateTable(db::TableSchema("T", {{"x", db::ColumnType::kInt}}))
          .ok());
  fx.last_update_seq = fx.db.update_log().LastSeq();
  fx.map.Add("SELECT * FROM T WHERE x < 10", "p1", "/r", 0);
  fx.db.ExecuteSql("INSERT INTO T VALUES (5)").value();

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  EXPECT_TRUE(ctx.proceed);
  EXPECT_EQ(ctx.report.updates, 1u);
  EXPECT_EQ(ctx.report.new_instances, 1u);
  EXPECT_EQ(fx.plane.NumInstances(), 1u);
  EXPECT_EQ(fx.plane.MapCursor(), fx.map.LastId());
  ASSERT_EQ(ctx.merged.size(), 1u);
  EXPECT_EQ(ctx.merged[0].tuples.size(), 1u);
  EXPECT_EQ(fx.last_update_seq, fx.db.update_log().LastSeq());
}

TEST(IngestStageTest, QuietLogStopsThePipelineButStillRegisters) {
  StageFixture fx;
  ASSERT_TRUE(
      fx.db.CreateTable(db::TableSchema("T", {{"x", db::ColumnType::kInt}}))
          .ok());
  fx.last_update_seq = fx.db.update_log().LastSeq();
  fx.map.Add("SELECT * FROM T WHERE x < 10", "p1", "/r", 0);

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  EXPECT_FALSE(ctx.proceed);
  EXPECT_EQ(ctx.report.updates, 0u);
  EXPECT_EQ(fx.plane.NumInstances(), 1u);  // Registration still happened.
}

TEST(IngestStageTest, UnchangedMapEpochSkipsTheScan) {
  StageFixture fx;
  ASSERT_TRUE(
      fx.db.CreateTable(db::TableSchema("T", {{"x", db::ColumnType::kInt}}))
          .ok());
  fx.last_update_seq = fx.db.update_log().LastSeq();
  fx.map.Add("SELECT * FROM T WHERE x < 10", "p1", "/r", 0);

  // Pretend the previous cycle already scanned at this epoch: ingest must
  // skip ReadSince entirely, so the row stays unregistered.
  fx.last_map_epoch = fx.map.epoch();
  fx.db.ExecuteSql("INSERT INTO T VALUES (5)").value();
  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  EXPECT_EQ(ctx.report.new_instances, 0u);
  EXPECT_EQ(fx.plane.NumInstances(), 0u);

  // A new row bumps the epoch; the next scan picks everything up.
  fx.map.Add("SELECT * FROM T WHERE x < 20", "p2", "/r", 0);
  fx.db.ExecuteSql("INSERT INTO T VALUES (6)").value();
  CycleContext ctx2;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx2).ok());
  EXPECT_EQ(ctx2.report.new_instances, 2u);
  EXPECT_EQ(fx.plane.NumInstances(), 2u);

  // nullopt (e.g. after Restore) forces a scan even at the same epoch.
  fx.plane.SetMapCursor(0);
  fx.plane.RetireInstance("SELECT * FROM T WHERE x < 10");
  fx.last_map_epoch.reset();
  fx.db.ExecuteSql("INSERT INTO T VALUES (7)").value();
  CycleContext ctx3;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx3).ok());
  EXPECT_EQ(fx.plane.NumInstances(), 2u);  // Re-registered from the map.
}

TEST(ImpactStageTest, SplitsAffectedFromUnaffected) {
  StageFixture fx;
  ASSERT_TRUE(
      fx.db.CreateTable(db::TableSchema("T", {{"x", db::ColumnType::kInt}}))
          .ok());
  fx.last_update_seq = fx.db.update_log().LastSeq();
  const std::string hit = "SELECT * FROM T WHERE x < 10";
  const std::string miss = "SELECT * FROM T WHERE x > 100";
  fx.map.Add(hit, "p-hit", "/r", 0);
  fx.map.Add(miss, "p-miss", "/r", 0);
  fx.db.ExecuteSql("INSERT INTO T VALUES (5)").value();

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(ctx.proceed);
  ASSERT_TRUE(ImpactStage(fx.Env()).Run(ctx).ok());

  EXPECT_EQ(ctx.report.checks, 2u);
  EXPECT_TRUE(fx.Affected(ctx, hit));
  EXPECT_FALSE(fx.Affected(ctx, miss));
  EXPECT_EQ(fx.stats.affected_immediately, 1u);
  EXPECT_EQ(fx.stats.unaffected, 1u);
  EXPECT_TRUE(ctx.tasks.empty());
}

TEST(PollStageTest, SkipPollsCondemnsEveryUndecidedInstance) {
  StageFixture fx;
  CreateCarTables(&fx.db);
  fx.db.ExecuteSql("INSERT INTO Car VALUES ('Mitsubishi', 'Eclipse', 15000)")
      .value();
  fx.last_update_seq = fx.db.update_log().LastSeq();
  // A join instance: a Mileage insert decides nothing immediately and
  // produces a Car-side polling query.
  const std::string join_sql =
      "SELECT Car.model FROM Car, Mileage WHERE Car.model = Mileage.model "
      "AND Car.price < 16000";
  fx.map.Add(join_sql, "p-join", "/r", 0);
  fx.db.ExecuteSql("INSERT INTO Mileage VALUES ('Eclipse', 30)").value();

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(ctx.proceed);
  ASSERT_TRUE(ImpactStage(fx.Env()).Run(ctx).ok());
  ASSERT_FALSE(ctx.tasks.empty());  // The stage really handed off polls.

  // Conservative rung: PollStage must condemn without touching the DBMS.
  ctx.policy.skip_polls = true;
  StageEnv env = fx.Env();
  env.execute_poll = [](const std::string&) -> Result<db::QueryResult> {
    ADD_FAILURE() << "skip_polls must not execute any poll";
    return Status::Internal("unreachable");
  };
  ASSERT_TRUE(PollStage(env).Run(ctx).ok());
  EXPECT_EQ(ctx.report.polls_issued, 0u);
  EXPECT_EQ(ctx.report.conservative_invalidations, 1u);
  EXPECT_TRUE(fx.Affected(ctx, join_sql));
}

TEST(PollStageTest, PollsDecideUndecidedInstances) {
  StageFixture fx;
  CreateCarTables(&fx.db);
  fx.db.ExecuteSql("INSERT INTO Car VALUES ('Mitsubishi', 'Eclipse', 15000)")
      .value();
  fx.last_update_seq = fx.db.update_log().LastSeq();
  const std::string join_sql =
      "SELECT Car.model FROM Car, Mileage WHERE Car.model = Mileage.model "
      "AND Car.price < 16000";
  fx.map.Add(join_sql, "p-join", "/r", 0);
  fx.db.ExecuteSql("INSERT INTO Mileage VALUES ('Eclipse', 30)").value();

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(ImpactStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(PollStage(fx.Env()).Run(ctx).ok());
  EXPECT_GE(ctx.report.polls_issued, 1u);
  // The poll hits: Eclipse sells for under 16000.
  EXPECT_TRUE(fx.Affected(ctx, join_sql));
  EXPECT_EQ(fx.stats.poll_hits, 1u);
}

TEST(DeliverStageTest, HandBuiltAffectedSetBecomesEjects) {
  StageFixture fx;
  CreateCarTables(&fx.db);
  const std::string sql_text = "SELECT * FROM Car WHERE price < 9000";
  const std::string other = "SELECT * FROM Car WHERE maker = 'Toyota'";
  fx.map.Add(sql_text, "shop/a?##", "/r", 0);
  fx.map.Add(sql_text, "shop/b?##", "/r", 0);
  fx.map.Add(other, "shop/keep?##", "/r", 0);
  ASSERT_TRUE(fx.plane.RegisterInstance(sql_text).ok());
  ASSERT_TRUE(fx.plane.RegisterInstance(other).ok());

  // Hand-built context: only the affected set matters to delivery.
  CycleContext ctx;
  ctx.affected.insert(fx.plane.FindInstance(sql_text)->instance_id);
  ASSERT_TRUE(DeliverStage(fx.Env()).Run(ctx).ok());

  EXPECT_EQ(ctx.report.affected_instances, 1u);
  EXPECT_EQ(ctx.report.pages_invalidated, 2u);
  EXPECT_EQ(fx.sink.invalidated,
            (std::set<std::string>{"shop/a?##", "shop/b?##"}));
  // Ejected pages left the map; the page-less instance was retired; the
  // unaffected instance and its page are untouched.
  EXPECT_EQ(fx.map.NumPagesForQuery(sql_text), 0u);
  EXPECT_EQ(fx.plane.FindInstance(sql_text), nullptr);
  EXPECT_NE(fx.plane.FindInstance(other), nullptr);
  EXPECT_EQ(fx.map.NumPagesForQuery(other), 1u);
}

/// The composed stages equal Invalidator::RunCycle on the same world —
/// the decomposition did not change what a cycle does.
TEST(StageCompositionTest, ComposedStagesMatchRunCycle) {
  auto run = [](bool composed) {
    StageFixture fx;
    CreateCarTables(&fx.db);
    fx.db.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 13000)")
        .value();
    // Both variants attach at the current log position, before the
    // tracked insert below.
    std::unique_ptr<Invalidator> inv;
    RecordingSink inv_sink;
    if (composed) {
      fx.last_update_seq = fx.db.update_log().LastSeq();
    } else {
      inv = std::make_unique<Invalidator>(&fx.db, &fx.map, &fx.clock,
                                          fx.options);
      inv->AddSink(&inv_sink);
    }
    fx.map.Add("SELECT * FROM Car WHERE price < 20000", "p0?##", "/r", 0);
    fx.map.Add("SELECT * FROM Car WHERE maker = 'Ford'", "p1?##", "/r", 0);
    fx.db.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Fit', 16000)").value();

    if (composed) {
      CycleContext ctx;
      ctx.start = fx.clock.NowMicros();
      StageEnv env = fx.Env();
      EXPECT_TRUE(IngestStage(env).Run(ctx).ok());
      EXPECT_TRUE(ImpactStage(env).Run(ctx).ok());
      EXPECT_TRUE(PollStage(env).Run(ctx).ok());
      EXPECT_TRUE(DeliverStage(env).Run(ctx).ok());
      return std::make_pair(ReportKey(ctx.report), fx.sink.invalidated);
    }
    CycleReport report = inv->RunCycle().value();
    return std::make_pair(ReportKey(report), inv_sink.invalidated);
  };
  auto composed = run(true);
  auto monolith = run(false);
  EXPECT_EQ(composed.first, monolith.first);
  EXPECT_EQ(composed.second, monolith.second);
}

// ---------------------------------------------------------------------------
// Retirement feed: after the first cycle, instances retire from the
// QI/URL map's orphan feed instead of a sweep over every instance. After
// every cycle — with or without updates — the live instances are exactly
// the registered queries that still have a page.
// ---------------------------------------------------------------------------

class RetirementFeedTest : public ::testing::Test {
 protected:
  RetirementFeedTest() : db_(&clock_) {
    CreateCarTables(&db_);
    for (int i = 0; i < 6; ++i) {
      sqls_.push_back(StrCat("SELECT * FROM Car WHERE price < ", 1000 * (i + 1)));
    }
    inv_ = std::make_unique<Invalidator>(&db_, &map_, &clock_);
  }

  static std::string Page(size_t i) { return StrCat("p", i, "?##"); }

  void CacheAll() {
    for (size_t i = 0; i < sqls_.size(); ++i) {
      map_.Add(sqls_[i], Page(i), "/r", 0);
    }
  }

  /// Runs one cycle and checks the invariant; returns the live set.
  std::set<std::string> Cycle() {
    EXPECT_TRUE(inv_->RunCycle().ok());
    std::set<std::string> live;
    inv_->metadata().ForEachInstance(
        [&](const QueryType&, const QueryInstance& instance) {
          live.insert(instance.sql);
        });
    std::set<std::string> backed;
    for (const std::string& sql : sqls_) {
      if (map_.NumPagesForQuery(sql) > 0) backed.insert(sql);
    }
    EXPECT_EQ(live, backed);
    return live;
  }

  ManualClock clock_;
  db::Database db_;
  sniffer::QiUrlMap map_;
  std::unique_ptr<Invalidator> inv_;
  std::vector<std::string> sqls_;
};

TEST_F(RetirementFeedTest, OrphanReAddedBeforeTheCycleIsNotRetired) {
  CacheAll();
  EXPECT_EQ(Cycle().size(), 6u);
  map_.RemovePage(Page(0));
  map_.Add(sqls_[0], Page(0), "/r", 1);  // Rebuilt before the cycle.
  map_.RemovePage(Page(1));              // Gone for good.
  std::set<std::string> live = Cycle();  // No updates: retires anyway.
  EXPECT_TRUE(live.contains(sqls_[0]));
  EXPECT_FALSE(live.contains(sqls_[1]));
  EXPECT_EQ(live.size(), 5u);
}

TEST_F(RetirementFeedTest, NeverRegisteredOrphanIsANoOp) {
  CacheAll();
  Cycle();
  // Cached and evicted between two cycles: the scan never sees the row,
  // and retiring an unregistered query changes nothing.
  map_.Add("SELECT * FROM Car WHERE price < 77", "px?##", "/r", 1);
  map_.RemovePage("px?##");
  map_.Add("not even SQL", "py?##", "/r", 1);
  map_.RemovePage("py?##");
  db_.ExecuteSql("INSERT INTO Car VALUES ('Ford', 'Ka', 99999)").value();
  EXPECT_EQ(Cycle().size(), 6u);
  EXPECT_EQ(inv_->stats().instances_registered, 6u);
}

TEST_F(RetirementFeedTest, OverflowedFeedFallsBackToAFullSweep) {
  CacheAll();
  Cycle();
  // Orphan one query past the feed's bound, then one more: the last
  // orphan is dropped from the feed, so only a full sweep retires it.
  for (size_t i = 0; i <= sniffer::QiUrlMap::kMaxOrphans; ++i) {
    map_.Add(sqls_[0], Page(0), "/r", 1);
    map_.RemovePage(Page(0));
  }
  map_.RemovePage(Page(1));
  std::set<std::string> live = Cycle();
  EXPECT_FALSE(live.contains(sqls_[0]));
  EXPECT_FALSE(live.contains(sqls_[1]));
  EXPECT_EQ(live.size(), 4u);
}

TEST_F(RetirementFeedTest, FeedStaysDrainedAcrossUpdateLessCycles) {
  CacheAll();
  Cycle();
  for (int round = 0; round < 50; ++round) {
    size_t i = static_cast<size_t>(round) % sqls_.size();
    map_.RemovePage(Page(i));
    if (round % 2 == 0) map_.Add(sqls_[i], Page(i), "/r", round);
    Cycle();
    // The cycle took everything the feed held.
    sniffer::QiUrlMap::Orphans left = map_.TakeOrphans();
    EXPECT_TRUE(left.complete);
    EXPECT_TRUE(left.queries.empty()) << "round " << round;
    if (round % 2 != 0) map_.Add(sqls_[i], Page(i), "/r", round);
  }
}

TEST_F(RetirementFeedTest, RestoreForcesAFullSweep) {
  CacheAll();
  Cycle();
  db_.ExecuteSql("INSERT INTO Car VALUES ('Ford', 'Ka', 99999)").value();
  Cycle();
  std::string checkpoint = inv_->Checkpoint();

  // A restart: the map is rebuilt from live traffic and holds pages for
  // half the instances the checkpoint recovers. Its feed is empty — it
  // never removed anything — so only the post-Restore sweep can retire
  // the other half.
  sniffer::QiUrlMap rebuilt;
  for (size_t i = 0; i < 3; ++i) rebuilt.Add(sqls_[i], Page(i), "/r", 2);
  Invalidator restored(&db_, &rebuilt, &clock_);
  ASSERT_TRUE(restored.Restore(checkpoint).ok());
  ASSERT_TRUE(restored.RunCycle().ok());
  std::set<std::string> live;
  restored.metadata().ForEachInstance(
      [&](const QueryType&, const QueryInstance& instance) {
        live.insert(instance.sql);
      });
  EXPECT_EQ(live, (std::set<std::string>{sqls_[0], sqls_[1], sqls_[2]}));

  // Restore on a live invalidator re-arms the sweep too.
  map_.RemovePage(Page(5));
  map_.TakeOrphans();  // Lost: e.g. taken by a process that died.
  ASSERT_TRUE(inv_->Restore(checkpoint).ok());
  EXPECT_FALSE(Cycle().contains(sqls_[5]));
}

TEST_F(RetirementFeedTest, RetiredInstanceRebuiltBeforeTheNextCycleKeepsItsId) {
  CacheAll();
  Cycle();
  QueryId id = *map_.ids().queries.Find(sqls_[5]);
  // Only sqls_[5] (price < 6000) reads a 5500 car: delivery ejects its
  // page and retires it.
  db_.ExecuteSql("INSERT INTO Car VALUES ('Kia', 'Rio', 5500)").value();
  EXPECT_FALSE(Cycle().contains(sqls_[5]));
  // The orphan feed still names the id, so the page rebuilt before the
  // next cycle maps to it again; that cycle re-registers the instance
  // under it, and the feed's re-check keeps it.
  map_.Add(sqls_[5], Page(5), "/r", 2);
  EXPECT_EQ(*map_.ids().queries.Find(sqls_[5]), id);
  EXPECT_TRUE(Cycle().contains(sqls_[5]));
  const QueryInstance* instance = inv_->metadata().FindInstance(sqls_[5]);
  ASSERT_NE(instance, nullptr);
  EXPECT_EQ(instance->instance_id, id);
  // Re-indexed too: the next matching update ejects the page again.
  uint64_t ejected = inv_->stats().pages_invalidated;
  db_.ExecuteSql("INSERT INTO Car VALUES ('Kia', 'Rio', 5600)").value();
  EXPECT_FALSE(Cycle().contains(sqls_[5]));
  EXPECT_EQ(inv_->stats().pages_invalidated, ejected + 1);
}

TEST_F(RetirementFeedTest, RestoreSweepFreesTheIdsARebuiltMapLacks) {
  CacheAll();
  Cycle();
  std::string checkpoint = inv_->Checkpoint();
  // Restore registers all six recovered instances in the rebuilt map's
  // interner; the sweep retires the three without pages, and nothing
  // else references their ids, so their text goes with them.
  sniffer::QiUrlMap rebuilt;
  for (size_t i = 0; i < 3; ++i) rebuilt.Add(sqls_[i], Page(i), "/r", 2);
  Invalidator restored(&db_, &rebuilt, &clock_);
  ASSERT_TRUE(restored.Restore(checkpoint).ok());
  restored.ApplyPendingRestore();
  EXPECT_EQ(restored.metadata().NumInstances(), 6u);
  EXPECT_EQ(rebuilt.ids().queries.live(), 6u);
  ASSERT_TRUE(restored.RunCycle().ok());
  EXPECT_EQ(restored.metadata().NumInstances(), 3u);
  EXPECT_EQ(rebuilt.ids().queries.live(), 3u);
  for (size_t i = 0; i < sqls_.size(); ++i) {
    EXPECT_EQ(rebuilt.ids().queries.Find(sqls_[i]).has_value(), i < 3) << i;
  }
}

TEST(MetadataPlaneIdTest, RetireThenReRegisterWithinACycleMintsAFreshId) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  sniffer::QiUrlMap map;
  MetadataPlane plane(&db, /*exact_strategy=*/true, map.shared_ids());
  const std::string sql = "SELECT * FROM Car WHERE price < 1000";
  Result<const QueryInstance*> first = plane.RegisterInstance(sql);
  ASSERT_TRUE(first.ok());
  uint64_t old_id = (*first)->instance_id;
  uint64_t type_id = (*first)->type_id;
  plane.RetireInstance(sql);
  EXPECT_EQ(plane.FindInstance(sql), nullptr);
  // No map row and no instance names it: the text is freed.
  EXPECT_FALSE(plane.ids().queries.Find(sql).has_value());

  // Within the cycle (no Reclaim yet) the freed id is not rebound: the
  // same SQL comes back under a fresh one, indexed under it alone.
  Result<const QueryInstance*> again = plane.RegisterInstance(sql);
  ASSERT_TRUE(again.ok());
  uint64_t new_id = (*again)->instance_id;
  EXPECT_NE(new_id, old_id);
  plane.With([&](MetadataPlane::State& state) {
    EXPECT_TRUE(state.bind_index.ContainsInstance(new_id));
    EXPECT_FALSE(state.bind_index.ContainsInstance(old_id));
    EXPECT_EQ(state.bind_index.IndexedCountOfType(type_id), 1u);
  });

  // After the next cycle's Reclaim the old id may name other text; the
  // re-registered instance is unaffected.
  plane.ids().Reclaim();
  Result<const QueryInstance*> other =
      plane.RegisterInstance("SELECT * FROM Car WHERE price < 2000");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ((*other)->instance_id, old_id);
  EXPECT_EQ(plane.FindInstance(sql)->instance_id, new_id);
  EXPECT_EQ(plane.NumInstances(), 2u);
}

// ---------------------------------------------------------------------------
// Join world: browse's page shapes over SmallT/LargeT — a heavy join page
// for every group plus single-table light and medium pages — under
// single-table update batches on either side. Every cycle must eject the
// pages pinned below (recorded before anchors were derived through join
// terms), a re-execution oracle must find no page whose query result
// changed left cached, the heavy type must be probed on either side, and
// a LargeT-only batch may poll only the heavy instances whose group some
// delta tuple carries. Mixed batches, which change both tables and so
// run the delta-join decomposition, are checked by the oracle alone.
// ---------------------------------------------------------------------------

constexpr int kJoinGroups = 6;

/// Page n's query: heavy pages 0..5, light 10..15, medium 20..25.
std::string JoinWorldSql(int page) {
  const int grp = page % 10;
  switch (page / 10) {
    case 0:
      return StrCat(
          "SELECT COUNT(*) AS pairs, MAX(LargeT.val) AS best FROM SmallT, "
          "LargeT WHERE SmallT.grp = LargeT.grp AND SmallT.grp = ",
          grp);
    case 1:
      return StrCat("SELECT id, val FROM SmallT WHERE grp = ", grp,
                    " ORDER BY id");
    default:
      return StrCat("SELECT id, val FROM LargeT WHERE grp = ", grp,
                    " ORDER BY id");
  }
}

struct JoinWorldCycle {
  std::set<int> ejected;
  std::set<int> stale;  // Pages whose result changed but stayed cached.
  bool large_only = false;
  uint64_t polls_issued = 0;
  uint64_t heavy_groups_touched = 0;  // Heavy pages whose group a delta
                                      // tuple of this batch carries.
  uint64_t updates = 0;
  uint64_t batch_probes = 0;
};

std::vector<JoinWorldCycle> RunJoinWorld(uint64_t seed, size_t workers,
                                         bool mixed) {
  Random rng(seed);
  ManualClock clock;
  db::Database db(&clock);
  for (const char* table : {"SmallT", "LargeT"}) {
    EXPECT_TRUE(db.CreateTable(db::TableSchema(
                                   table, {{"id", db::ColumnType::kInt},
                                           {"grp", db::ColumnType::kInt},
                                           {"val", db::ColumnType::kInt}}))
                    .ok());
    EXPECT_TRUE(db.CreateIndex(table, "grp").ok());
  }
  int next_id = 0;
  auto insert = [&](const char* table, uint64_t grp) {
    db.ExecuteSql(StrCat("INSERT INTO ", table, " VALUES (", next_id++, ", ",
                         grp, ", ", rng.Uniform(100), ")"))
        .value();
  };
  for (int i = 0; i < 2 * kJoinGroups; ++i) insert("SmallT", i % kJoinGroups);
  for (int i = 0; i < 5 * kJoinGroups; ++i) insert("LargeT", i % kJoinGroups);

  std::vector<int> pages;
  for (int g = 0; g < kJoinGroups; ++g) {
    for (int base : {0, 10, 20}) pages.push_back(base + g);
  }

  sniffer::QiUrlMap map;
  InvalidatorOptions options;
  options.worker_threads = workers;
  Invalidator inv(&db, &map, &clock, options);
  RecordingSink sink;
  inv.AddSink(&sink);

  std::vector<JoinWorldCycle> cycles;
  for (int cycle = 0; cycle < 12; ++cycle) {
    std::map<int, std::string> before;
    for (int page : pages) {
      map.Add(JoinWorldSql(page), StrCat("shop/p", page, "?##"), "/r", 0);
      before[page] = ResultText(db.ExecuteSql(JoinWorldSql(page)).value());
    }

    // One table per batch, or with `mixed` both: SmallT then LargeT, then
    // either. Groups kJoinGroups and kJoinGroups + 1 have no pages.
    JoinWorldCycle out;
    const char* table = "SmallT";
    if (!mixed && rng.Uniform(3) != 0) table = "LargeT";
    out.large_only = !mixed && std::string(table) == "LargeT";
    std::set<int64_t> delta_groups;
    auto group_of = [&](int64_t id) -> std::optional<int64_t> {
      db::QueryResult r =
          db.ExecuteSql(StrCat("SELECT grp FROM ", table, " WHERE id = ", id))
              .value();
      if (r.rows.empty()) return std::nullopt;
      return r.rows[0][0].AsInt();
    };
    const int batch = (mixed ? 2 : 1) + static_cast<int>(rng.Uniform(3));
    for (int u = 0; u < batch; ++u) {
      if (mixed && u == 1) table = "LargeT";
      if (mixed && u > 1) table = rng.Uniform(2) == 0 ? "SmallT" : "LargeT";
      const int64_t id = static_cast<int64_t>(rng.Uniform(next_id));
      const uint64_t grp = rng.Uniform(kJoinGroups + 2);
      switch (rng.Uniform(4)) {
        case 0:
          delta_groups.insert(static_cast<int64_t>(grp));
          insert(table, grp);
          break;
        case 1:
          if (auto old = group_of(id)) delta_groups.insert(*old);
          db.ExecuteSql(StrCat("DELETE FROM ", table, " WHERE id = ", id))
              .value();
          break;
        case 2:
          if (auto old = group_of(id)) delta_groups.insert(*old);
          db.ExecuteSql(StrCat("UPDATE ", table, " SET val = ",
                               rng.Uniform(100), " WHERE id = ", id))
              .value();
          break;
        default:
          if (auto old = group_of(id)) {
            delta_groups.insert(*old);
            delta_groups.insert(static_cast<int64_t>(grp));
          }
          db.ExecuteSql(StrCat("UPDATE ", table, " SET grp = ", grp,
                               " WHERE id = ", id))
              .value();
          break;
      }
    }
    for (int64_t g : delta_groups) {
      if (g < kJoinGroups) ++out.heavy_groups_touched;
    }

    sink.invalidated.clear();
    const uint64_t probes_before = inv.matcher_stats().batch_probes;
    CycleReport report = inv.RunCycle().value();
    out.batch_probes = inv.matcher_stats().batch_probes - probes_before;
    out.updates = report.updates;
    out.polls_issued = report.polls_issued;
    out.ejected = PageNumbers(sink.invalidated);
    for (int page : pages) {
      if (out.ejected.contains(page)) continue;
      if (ResultText(db.ExecuteSql(JoinWorldSql(page)).value()) !=
          before[page]) {
        out.stale.insert(page);
      }
    }
    cycles.push_back(std::move(out));
  }
  return cycles;
}

// Per-cycle ejected pages, seeds 1-4, recorded with every heavy instance
// a candidate of every LargeT tuple.
const std::vector<std::set<int>> kJoinWorldEjected[] = {
    {{}, {0, 2, 3, 5, 20, 22, 23, 25}, {}, {1, 4, 21, 24}, {}, {1, 21},
     {2, 22}, {2, 22}, {4, 24}, {1, 4, 21, 24}, {2, 22}, {0, 10}},
    {{0, 1, 20, 21}, {4, 5, 14, 15}, {}, {}, {2, 4, 22, 24}, {0, 4, 10, 14},
     {0, 4, 20, 24}, {}, {0, 20}, {0, 20}, {5, 15}, {0, 3, 5, 20, 23}},
    {{0, 3, 5, 20, 23, 25}, {1, 4, 5, 21, 24, 25}, {1, 4, 21, 24}, {3, 23},
     {1, 2, 5, 21, 25}, {4, 24}, {0, 20}, {0, 10}, {},
     {0, 1, 5, 20, 21, 25}, {1, 4, 11, 14}, {4, 24}},
    {{}, {1, 2, 21, 22}, {}, {}, {}, {}, {3, 13}, {1, 21}, {0, 10}, {1, 21},
     {4, 5, 24, 25}, {1, 2, 5, 21, 22, 25}},
};

class JoinWorldTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinWorldTest, EjectsPinnedPagesLeavesNoStalePageAndPollsOnlyMatches) {
  const uint64_t seed = GetParam();
  for (size_t workers : {1u, 4u}) {
    SCOPED_TRACE(StrCat("seed ", seed, " workers ", workers));
    std::vector<JoinWorldCycle> cycles =
        RunJoinWorld(seed, workers, /*mixed=*/false);
    const std::vector<std::set<int>>& pinned = kJoinWorldEjected[seed - 1];
    ASSERT_EQ(cycles.size(), pinned.size());
    for (size_t c = 0; c < cycles.size(); ++c) {
      SCOPED_TRACE(StrCat("cycle ", c));
      EXPECT_EQ(cycles[c].ejected, pinned[c]);
      EXPECT_TRUE(cycles[c].stale.empty());
      // Both types that read the updated table are probed: the heavy
      // one through its own SmallT anchor or its derived LargeT anchor.
      // (A batch whose statements matched no row logs no update.)
      EXPECT_EQ(cycles[c].batch_probes, cycles[c].updates > 0 ? 2u : 0u);
      if (cycles[c].large_only) {
        EXPECT_LE(cycles[c].polls_issued, cycles[c].heavy_groups_touched);
      }
    }
  }
}

TEST_P(JoinWorldTest, MixedBatchesLeaveNoStalePage) {
  const uint64_t seed = GetParam();
  for (size_t workers : {1u, 4u}) {
    SCOPED_TRACE(StrCat("seed ", seed, " workers ", workers));
    std::vector<JoinWorldCycle> cycles =
        RunJoinWorld(seed, workers, /*mixed=*/true);
    size_t ejected = 0;
    for (size_t c = 0; c < cycles.size(); ++c) {
      EXPECT_TRUE(cycles[c].stale.empty()) << "cycle " << c;
      ejected += cycles[c].ejected.size();
    }
    EXPECT_GT(ejected, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinWorldTest,
                         ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace cacheportal::invalidator
