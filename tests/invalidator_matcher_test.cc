#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "db/database.h"
#include "invalidator/bind_index.h"
#include "invalidator/invalidator.h"
#include "invalidator/type_matcher.h"
#include "pinned_run.h"
#include "sniffer/qiurl_map.h"
#include "sql/analyzer.h"
#include "sql/column_batch.h"
#include "sql/eval.h"
#include "sql/printer.h"
#include "sql/template.h"

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

// ---------------------------------------------------------------------------
// Differential test: the compiled matcher (bind-value indexes) is a pure
// pruning layer, so on random workloads every cycle must eject the pages
// the interpreted walk ejected, with the same per-cycle summaries and a
// byte-identical final StatsReport(), at any worker count. The
// interpreted walk's outputs are pinned as literals (pinned_run.h). The
// workload is generated independently of the invalidator's behavior so the
// runs are comparable.
// ---------------------------------------------------------------------------

struct WorldResult {
  std::vector<std::set<std::string>> ejected;   // Per cycle.
  std::vector<std::string> summaries;           // Per-cycle report fields.
  std::vector<std::set<int>> changed;  // Per cycle: pages whose query
                                       // result the cycle's updates changed.
  std::string final_report;
  MatcherStats matcher;
};

WorldResult RunWorld(uint64_t seed, size_t workers, bool consolidate) {
  Random rng(seed);
  ManualClock clock;
  db::Database db(&clock);
  EXPECT_TRUE(db.CreateTable(db::TableSchema("T1",
                                             {{"a", db::ColumnType::kInt},
                                              {"b", db::ColumnType::kString},
                                              {"c", db::ColumnType::kInt}}))
                  .ok());
  EXPECT_TRUE(db.CreateTable(db::TableSchema("T2",
                                             {{"k", db::ColumnType::kString},
                                              {"v", db::ColumnType::kInt}}))
                  .ok());
  for (int i = 0; i < 12; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO T1 VALUES (", rng.Uniform(100), ", 's",
                         rng.Uniform(6), "', ", rng.Uniform(100), ")"))
        .value();
  }
  for (int i = 0; i < 4; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO T2 VALUES ('s", rng.Uniform(6), "', ",
                         rng.Uniform(100), ")"))
        .value();
  }

  // Instance pool mixing indexable templates (=, <, <=, >, >=, BETWEEN,
  // IN, string equality, join anchors) with fallbacks the matcher cannot
  // anchor (OR at the top level, column-to-column comparison, no WHERE).
  std::vector<std::string> sqls;
  for (int i = 0; i < 14; ++i) {
    switch (rng.Uniform(10)) {
      case 0:
        sqls.push_back(StrCat("SELECT * FROM T1 WHERE a = ", rng.Uniform(100)));
        break;
      case 1:
        sqls.push_back(
            StrCat("SELECT * FROM T1 WHERE b = 's", rng.Uniform(6), "'"));
        break;
      case 2:
        sqls.push_back(StrCat("SELECT * FROM T1 WHERE a < ", rng.Uniform(100)));
        break;
      case 3:
        sqls.push_back(
            StrCat("SELECT * FROM T1 WHERE a >= ", rng.Uniform(100)));
        break;
      case 4: {
        uint64_t low = rng.Uniform(60);
        sqls.push_back(StrCat("SELECT * FROM T1 WHERE a BETWEEN ", low,
                              " AND ", low + rng.Uniform(40)));
        break;
      }
      case 5:
        sqls.push_back(StrCat("SELECT * FROM T1 WHERE a IN (", rng.Uniform(50),
                              ", ", 50 + rng.Uniform(50), ")"));
        break;
      case 6:
        sqls.push_back(
            StrCat("SELECT T1.a FROM T1, T2 WHERE T1.b = T2.k AND T2.v < ",
                   rng.Uniform(100)));
        break;
      case 7:
        sqls.push_back(StrCat("SELECT * FROM T1 WHERE a = ", rng.Uniform(50),
                              " OR c = ", rng.Uniform(50)));
        break;
      case 8:
        sqls.push_back("SELECT * FROM T1 WHERE a < c");
        break;
      default:
        sqls.push_back("SELECT * FROM T2");
        break;
    }
  }

  sniffer::QiUrlMap map;
  RecordingSink sink;
  InvalidatorOptions options;
  options.worker_threads = workers;
  options.consolidate_polls = consolidate;
  Invalidator inv(&db, &map, &clock, options);
  inv.AddSink(&sink);

  WorldResult result;
  for (int cycle = 0; cycle < 6; ++cycle) {
    // Re-cache every page each cycle (Add is idempotent for live pages),
    // so instances keep getting exercised after ejection.
    for (size_t i = 0; i < sqls.size(); ++i) {
      map.Add(sqls[i], StrCat("shop/p", i, "?##"), "/r", 0);
    }
    const std::vector<std::string> before = ResultTexts(db, sqls);
    int burst = 1 + static_cast<int>(rng.Uniform(4));
    for (int u = 0; u < burst; ++u) {
      switch (rng.Uniform(4)) {
        case 0:
          db.ExecuteSql(StrCat("INSERT INTO T1 VALUES (", rng.Uniform(100),
                               ", 's", rng.Uniform(6), "', ", rng.Uniform(100),
                               ")"))
              .value();
          break;
        case 1:
          db.ExecuteSql(StrCat("INSERT INTO T2 VALUES ('s", rng.Uniform(6),
                               "', ", rng.Uniform(100), ")"))
              .value();
          break;
        case 2:
          db.ExecuteSql(StrCat("DELETE FROM T1 WHERE a > ",
                               40 + rng.Uniform(60)))
              .value();
          break;
        default:
          db.ExecuteSql(StrCat("DELETE FROM T2 WHERE v < ", rng.Uniform(30)))
              .value();
          break;
      }
    }
    sink.invalidated.clear();
    auto report = inv.RunCycle();
    EXPECT_TRUE(report.ok());
    result.ejected.push_back(sink.invalidated);
    result.changed.push_back(ChangedPages(before, ResultTexts(db, sqls)));
    result.summaries.push_back(
        StrCat(report->updates, "|", report->new_instances, "|",
               report->checks, "|", report->affected_instances, "|",
               report->polls_issued, "|", report->conservative_invalidations,
               "|", report->pages_invalidated));
  }
  result.final_report = inv.StatsReport();
  result.matcher = inv.matcher_stats();
  return result;
}

// The interpreted walk's outputs, seeds 1-10: workers=1, consolidation
// off. Summaries are the per-cycle fields RunWorld records. Re-recorded
// when delta-join decomposition replaced the multi-table guard; the
// ejects that dropped out are kept below.
const PinnedRun kInterpretedWorlds[] = {
    {1,
     {{1, 2, 13}, {}, {0, 1, 2, 7, 9, 10, 13}, {1}, {1, 2, 9}, {}},
     {"3|14|12|3|2|0|3", "0|3|0|0|0|0|0", "4|0|12|5|3|0|7", "1|7|12|1|2|0|1",
      "1|1|12|3|2|0|3", "0|3|0|0|0|0|0"},
     0x8d3d2e1023cdcc87},
    {2,
     {{9, 12}, {12}, {}, {4, 9, 12}, {12}, {4, 7, 9}},
     {"2|14|14|2|1|0|2", "1|2|14|1|0|0|1", "0|1|0|0|0|0|0", "3|0|14|3|1|0|3",
      "1|3|14|1|0|0|1", "4|1|14|3|1|0|3"},
     0xe5fab944c2a5a416},
    {3,
     {{2, 3, 4, 9}, {1, 2, 3, 7, 9}, {2, 3, 7, 9}, {}, {2, 7, 13}, {}},
     {"1|14|13|3|1|0|4", "6|4|13|4|1|0|5", "4|5|13|3|1|0|4", "1|4|13|0|0|0|0",
      "2|0|13|3|1|0|3", "0|3|0|0|0|0|0"},
     0x265c08b838f5acec},
    {4,
     {{1}, {1, 8, 10, 11}, {0, 2, 5, 6, 10}, {0, 1, 2, 4, 9, 10, 13},
      {1, 2, 4, 10, 12, 13}, {1, 10}},
     {"1|14|13|1|0|0|1", "4|1|13|4|0|0|4", "1|4|13|5|0|0|5", "2|5|13|6|0|0|7",
      "4|7|13|5|0|0|6", "3|6|13|2|0|0|2"},
     0xb6f5842e1df7d225},
    {5,
     {{0, 1, 4, 5, 6, 9, 13}, {0, 1, 4, 5, 6, 13}, {0, 1, 5, 6, 9, 13},
      {1, 4, 5, 13}, {0, 1, 4, 5, 6, 13}, {1, 4, 5, 13}},
     {"3|14|13|6|2|0|7", "6|7|13|5|2|0|6", "3|6|13|5|3|0|6", "2|6|13|3|2|0|4",
      "3|4|13|5|2|0|6", "2|6|13|3|2|0|4"},
     0xfde3d743e0377ab6},
    {6,
     {{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, {10, 12}, {},
      {1, 5, 6, 8, 9, 11, 13}, {1, 8, 9, 10, 11},
      {1, 5, 6, 8, 9, 10, 11, 12, 13}},
     {"7|14|12|11|0|0|13", "1|13|12|2|1|0|2", "0|2|0|0|0|0|0", "1|0|12|5|1|0|7",
      "2|7|12|5|1|0|5", "2|5|12|7|1|0|9"},
     0xf346c6a3b3384204},
    {7,
     {{0, 11, 13}, {0}, {}, {}, {}, {}},
     {"8|14|12|2|1|0|3", "1|3|12|1|1|0|1", "2|1|12|0|1|0|0", "1|0|12|0|1|0|0",
      "0|0|0|0|0|0|0", "0|0|0|0|0|0|0"},
     0x15d40f06508db721},
    {8,
     {{7, 12}, {}, {}, {3, 5, 8, 9, 13}, {3, 5, 6, 7, 8, 9, 12, 13}, {}},
     {"1|14|13|2|1|0|2", "0|2|0|0|0|0|0", "1|0|13|0|0|0|0", "1|0|13|4|1|0|5",
      "9|5|13|7|1|0|8", "1|8|13|0|0|0|0"},
     0x2c908997d5fbd3b3},
    {9,
     {{0, 2, 3, 7, 10, 11, 12}, {}, {}, {0, 2, 3, 4, 7, 10}, {},
      {2, 3, 5, 6, 10}},
     {"8|14|13|6|2|0|7", "0|7|0|0|0|0|0", "3|0|13|0|1|0|0", "4|0|13|5|1|0|6",
      "2|6|13|0|0|0|0", "1|0|13|4|1|0|5"},
     0xc462f47848a88a4a},
    {10,
     {{}, {1, 2, 9, 13}, {2, 3, 9}, {1, 2, 3, 4, 6, 7, 8, 9, 13}, {1, 13},
      {1, 13}},
     {"0|14|0|0|0|0|0", "2|0|10|3|0|0|4", "1|4|10|3|0|0|3", "11|3|10|5|0|0|9",
      "2|9|10|1|0|0|2", "1|2|10|1|0|0|2"},
     0xb330249ced2d7a3b},
};

// Ejects the literal above held before delta-join decomposition replaced
// the multi-table guard: two-table batches no longer eject these pages.
// Each was false, which the test proves by re-execution.
const std::vector<DroppedEjects> kGuardOnlyEjects = {
    {1, 2, {12}}, {2, 0, {0}}, {2, 3, {0}}, {3, 1, {5}}, {3, 2, {5}},
    {5, 2, {4}}, {6, 4, {12}}, {8, 4, {4}}, {9, 0, {9}}, {9, 3, {9}},
};

// Seed 1's full final StatsReport(), so a report mismatch is readable.
constexpr char kSeed1Report[] = R"(invalidator: cycles=6 updates=9 checks=48 affected=10 unaffected=30 polls=9 idx-answered=0 poll-hits=2 conservative=0 emergency-flushes=0 pages-invalidated=14 messages-sent=14 send-failures=0
  strategy: exact=8 compiled-batch=1 interpret=0 poll=0
  strategy-demotions: 'multi-table FROM'=1
  type 'discovered-2': instances=5 checks=4 affected=4 polls=0 inval-ratio=1 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-3': instances=4 checks=4 affected=3 polls=0 inval-ratio=0.75 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-5': instances=2 checks=8 affected=0 polls=0 inval-ratio=0 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-1': instances=2 checks=4 affected=1 polls=0 inval-ratio=0.25 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-4': instances=1 checks=4 affected=0 polls=0 inval-ratio=0 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-9': instances=3 checks=4 affected=2 polls=0 inval-ratio=0.5 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-7': instances=2 checks=8 affected=0 polls=0 inval-ratio=0 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-6': instances=1 checks=4 affected=0 polls=0 inval-ratio=0 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-8': instances=4 checks=8 affected=0 polls=9 inval-ratio=0 avg-time-us=0 max-time-us=0 tier=compiled-batch
)";

class MatcherDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherDifferentialTest, CompiledReproducesInterpretedAtAnyWorkerCount) {
  const uint64_t seed = GetParam();
  const PinnedRun& pinned = kInterpretedWorlds[seed - 1];
  ASSERT_EQ(pinned.seed, seed);
  uint64_t total_excluded = 0;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(StrCat("seed ", seed, " workers ", workers));
    WorldResult compiled = RunWorld(seed, workers, /*consolidate=*/false);
    ExpectReproduces(pinned, compiled.ejected, compiled.summaries,
                     compiled.final_report);
    ExpectDroppedEjectsWereFalse(pinned, kGuardOnlyEjects, compiled.changed);
    if (seed == 1) {
      EXPECT_EQ(compiled.final_report, kSeed1Report);
    }
    EXPECT_GT(compiled.matcher.types_compiled, 0u);
    total_excluded += compiled.matcher.tuples_excluded;
  }
  // The suite as a whole must exercise real exclusions; individual seeds
  // may legitimately have none (all-fallback instance pools).
  RecordProperty("tuples_excluded", static_cast<int>(total_excluded));
}

TEST_P(MatcherDifferentialTest, ConsolidationPreservesEjectedPages) {
  const uint64_t seed = GetParam();
  WorldResult separate = RunWorld(seed, /*workers=*/2, /*consolidate=*/false);
  WorldResult merged = RunWorld(seed, /*workers=*/2, /*consolidate=*/true);
  ASSERT_EQ(merged.ejected.size(), separate.ejected.size());
  for (size_t c = 0; c < separate.ejected.size(); ++c) {
    EXPECT_EQ(merged.ejected[c], separate.ejected[c])
        << "seed " << seed << " cycle " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherDifferentialTest,
                         ::testing::Range<uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// Boundary units: each relational operator's index probe must exclude
// exactly the tuples whose WHERE folds definite FALSE — never tuples that
// fold NULL (type-mismatched or NULL-tainted comparisons), which stay
// candidates for the interpreted analyzer.
// ---------------------------------------------------------------------------

class MatcherBoundaryTest : public ::testing::Test {
 protected:
  /// In a fresh world: registers `sql` as a cached page, applies
  /// `insert_sql`, runs one cycle, and returns
  /// (pages_invalidated, tuples_excluded). Everything is local so each
  /// probe sees exactly one delta tuple.
  std::pair<uint64_t, uint64_t> Probe(const std::string& sql,
                                      const std::string& insert_sql) {
    ManualClock clock;
    db::Database db(&clock);
    EXPECT_TRUE(
        db.CreateTable(db::TableSchema("T1", {{"a", db::ColumnType::kInt},
                                              {"b", db::ColumnType::kString},
                                              {"c", db::ColumnType::kInt}}))
            .ok());
    sniffer::QiUrlMap map;
    RecordingSink sink;
    // The subject is the matcher's index probe; the exact tier would
    // otherwise claim these single-table types and bypass it.
    InvalidatorOptions options;
    options.exact_strategy = false;
    Invalidator inv(&db, &map, &clock, options);
    inv.AddSink(&sink);
    map.Add(sql, "shop/page?##", "/r", 0);
    db.ExecuteSql(insert_sql).value();
    auto report = inv.RunCycle();
    EXPECT_TRUE(report.ok());
    return {report->pages_invalidated, inv.matcher_stats().tuples_excluded};
  }
};

TEST_F(MatcherBoundaryTest, LessThanEdge) {
  auto edge = Probe("SELECT * FROM T1 WHERE a < 10",
                    "INSERT INTO T1 VALUES (10, 's', 0)");
  EXPECT_EQ(edge.first, 0u);
  EXPECT_EQ(edge.second, 1u);  // 10 < 10 is FALSE: provably unaffected.
  auto hit = Probe("SELECT * FROM T1 WHERE a < 10",
                   "INSERT INTO T1 VALUES (9, 's', 0)");
  EXPECT_EQ(hit.first, 1u);  // 9 < 10: candidate, confirmed affected.
}

TEST_F(MatcherBoundaryTest, LessOrEqualEdge) {
  auto above = Probe("SELECT * FROM T1 WHERE a <= 10",
                     "INSERT INTO T1 VALUES (11, 's', 0)");
  EXPECT_EQ(above.first, 0u);
  EXPECT_EQ(above.second, 1u);
  auto edge = Probe("SELECT * FROM T1 WHERE a <= 10",
                    "INSERT INTO T1 VALUES (10, 's', 0)");
  EXPECT_EQ(edge.first, 1u);  // The boundary value itself is a hit.
}

TEST_F(MatcherBoundaryTest, BetweenEdges) {
  const char* sql = "SELECT * FROM T1 WHERE a BETWEEN 10 AND 20";
  auto below = Probe(sql, "INSERT INTO T1 VALUES (9, 's', 0)");
  EXPECT_EQ(below.first, 0u);
  EXPECT_EQ(below.second, 1u);
  EXPECT_EQ(Probe(sql, "INSERT INTO T1 VALUES (10, 's', 0)").first, 1u);
  EXPECT_EQ(Probe(sql, "INSERT INTO T1 VALUES (20, 's', 0)").first, 1u);
  auto above = Probe(sql, "INSERT INTO T1 VALUES (21, 's', 0)");
  EXPECT_EQ(above.first, 0u);
  EXPECT_GT(above.second, 0u);  // High bound filtered in the probe.
}

TEST_F(MatcherBoundaryTest, InListMissAndHit) {
  const char* sql = "SELECT * FROM T1 WHERE a IN (5, 7)";
  auto miss = Probe(sql, "INSERT INTO T1 VALUES (6, 's', 0)");
  EXPECT_EQ(miss.first, 0u);
  EXPECT_EQ(miss.second, 1u);
  EXPECT_EQ(Probe(sql, "INSERT INTO T1 VALUES (7, 's', 0)").first, 1u);
}

TEST_F(MatcherBoundaryTest, MixedClassInListStillExcludesNumericMiss) {
  // 'x' never equals an int (incomparable items are plain misses), so a
  // tuple matching neither 5 nor any string key folds FALSE — excludable.
  const char* sql = "SELECT * FROM T1 WHERE a IN ('x', 5)";
  auto miss = Probe(sql, "INSERT INTO T1 VALUES (7, 's', 0)");
  EXPECT_EQ(miss.first, 0u);
  EXPECT_EQ(miss.second, 1u);
  EXPECT_EQ(Probe(sql, "INSERT INTO T1 VALUES (5, 's', 0)").first, 1u);
}

TEST_F(MatcherBoundaryTest, NullInListNeverExcludes) {
  // `a IN (5, NULL)` with a=7 folds NULL, not FALSE: the instance must
  // stay a candidate (the interpreted analyzer then decides unaffected).
  const char* sql = "SELECT * FROM T1 WHERE a IN (5, NULL)";
  auto probe = Probe(sql, "INSERT INTO T1 VALUES (7, 's', 0)");
  EXPECT_EQ(probe.first, 0u);
  EXPECT_EQ(probe.second, 0u);
}

TEST_F(MatcherBoundaryTest, CrossClassEqualityNeverExcludes) {
  // A string bind against an int column compares NULL for every tuple;
  // exclusion would be unsound even though the verdict is unaffected.
  const char* sql = "SELECT * FROM T1 WHERE a = 'hello'";
  auto probe = Probe(sql, "INSERT INTO T1 VALUES (7, 's', 0)");
  EXPECT_EQ(probe.first, 0u);
  EXPECT_EQ(probe.second, 0u);
}

TEST_F(MatcherBoundaryTest, StringEqualityExcludesAndHits) {
  const char* sql = "SELECT * FROM T1 WHERE b = 'wanted'";
  auto miss = Probe(sql, "INSERT INTO T1 VALUES (1, 'other', 0)");
  EXPECT_EQ(miss.first, 0u);
  EXPECT_EQ(miss.second, 1u);
  EXPECT_EQ(Probe(sql, "INSERT INTO T1 VALUES (1, 'wanted', 0)").first, 1u);
}

// ---------------------------------------------------------------------------
// Consolidated polling: instances of one type polling one target merge
// into a single disjunctive round trip whose rows are demultiplexed per
// instance — with no change in which pages are ejected.
// ---------------------------------------------------------------------------

class ConsolidationTest : public ::testing::Test {
 protected:
  ConsolidationTest() : db_(&clock_) {}

  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(db::TableSchema(
                                    "Car", {{"maker", db::ColumnType::kString},
                                            {"model", db::ColumnType::kString},
                                            {"price", db::ColumnType::kInt}}))
                    .ok());
    ASSERT_TRUE(
        db_.CreateTable(db::TableSchema(
                            "Mileage", {{"model", db::ColumnType::kString},
                                        {"EPA", db::ColumnType::kInt}}))
            .ok());
    db_.ExecuteSql("INSERT INTO Mileage VALUES ('Avalon', 25)").value();
  }

  ManualClock clock_;
  db::Database db_;
};

TEST_F(ConsolidationTest, DemuxSelectsExactlyTheSatisfiedMembers) {
  // Four instances of one join type, with EPA thresholds straddling the
  // lone Mileage row (EPA=25): only the 30 and 40 thresholds are hits.
  for (bool consolidate : {false, true}) {
    sniffer::QiUrlMap map;
    RecordingSink sink;
    InvalidatorOptions options;
    options.consolidate_polls = consolidate;
    Invalidator inv(&db_, &map, &clock_, options);
    inv.AddSink(&sink);
    for (int threshold : {10, 20, 30, 40}) {
      map.Add(StrCat("SELECT Car.model FROM Car, Mileage WHERE Car.model = "
                     "Mileage.model AND Mileage.EPA < ",
                     threshold),
              StrCat("shop/epa", threshold, "?##"), "/r", 0);
    }
    db_.ExecuteSql("INSERT INTO Car VALUES ('Toyota', 'Avalon', 15000)")
        .value();
    auto report = inv.RunCycle();
    ASSERT_TRUE(report.ok());
    std::set<std::string> expect = {"shop/epa30?##", "shop/epa40?##"};
    EXPECT_EQ(sink.invalidated, expect) << "consolidate=" << consolidate;
    // polls_issued counts logical member polls, identical either way;
    // consolidation shows up only in the physical round-trip count.
    EXPECT_EQ(report->polls_issued, 4u) << "consolidate=" << consolidate;
    if (consolidate) {
      EXPECT_EQ(inv.matcher_stats().poll_round_trips, 1u);
      EXPECT_EQ(inv.matcher_stats().consolidated_polls, 1u);
      EXPECT_EQ(inv.matcher_stats().consolidated_members, 4u);
    } else {
      EXPECT_EQ(inv.matcher_stats().poll_round_trips, 4u);
    }
    db_.ExecuteSql("DELETE FROM Car WHERE price = 15000").value();
    // Drain the delete's delta so the next loop iteration starts clean.
    inv.RunCycle().value();
  }
}

TEST_F(ConsolidationTest, ReducesPollRoundTripsAtLeastThreefold) {
  constexpr int kInstances = 12;
  uint64_t polls[2];
  std::set<std::string> ejected[2];
  for (int pass = 0; pass < 2; ++pass) {
    bool consolidate = pass == 1;
    sniffer::QiUrlMap map;
    RecordingSink sink;
    InvalidatorOptions options;
    options.consolidate_polls = consolidate;
    Invalidator inv(&db_, &map, &clock_, options);
    inv.AddSink(&sink);
    for (int i = 0; i < kInstances; ++i) {
      map.Add(StrCat("SELECT Car.model FROM Car, Mileage WHERE Car.model = "
                     "Mileage.model AND Mileage.EPA < ",
                     100 + i),
              StrCat("shop/page", i, "?##"), "/r", 0);
    }
    db_.ExecuteSql("INSERT INTO Car VALUES ('Toyota', 'Avalon', 15000)")
        .value();
    auto report = inv.RunCycle();
    ASSERT_TRUE(report.ok());
    // Logical poll count is consolidation-invariant; the savings are in
    // the physical statements sent to the target.
    EXPECT_EQ(report->polls_issued, static_cast<uint64_t>(kInstances));
    polls[pass] = inv.matcher_stats().poll_round_trips;
    ejected[pass] = sink.invalidated;
    db_.ExecuteSql("DELETE FROM Car WHERE price = 15000").value();
    inv.RunCycle().value();
  }
  EXPECT_EQ(ejected[0], ejected[1]);
  EXPECT_EQ(ejected[0].size(), static_cast<size_t>(kInstances));
  EXPECT_EQ(polls[0], static_cast<uint64_t>(kInstances));
  EXPECT_GE(polls[0], 3 * polls[1]);  // >= 3x fewer round trips.
}

TEST_F(ConsolidationTest, ChunkingSplitsLargeBuckets) {
  sniffer::QiUrlMap map;
  RecordingSink sink;
  InvalidatorOptions options;
  options.consolidated_poll_chunk = 4;
  Invalidator inv(&db_, &map, &clock_, options);
  inv.AddSink(&sink);
  for (int i = 0; i < 10; ++i) {
    map.Add(StrCat("SELECT Car.model FROM Car, Mileage WHERE Car.model = "
                   "Mileage.model AND Mileage.EPA < ",
                   100 + i),
            StrCat("shop/page", i, "?##"), "/r", 0);
  }
  db_.ExecuteSql("INSERT INTO Car VALUES ('Toyota', 'Avalon', 15000)").value();
  auto report = inv.RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->polls_issued, 10u);  // One logical poll per member.
  EXPECT_EQ(inv.matcher_stats().poll_round_trips, 3u);  // ceil(10 / 4).
  EXPECT_EQ(sink.invalidated.size(), 10u);
}

// ---------------------------------------------------------------------------
// TypeMatcher compilation units.
// ---------------------------------------------------------------------------

TEST(TypeMatcherTest, SelfJoinFallsBackToInterpreted) {
  ManualClock clock;
  db::Database db(&clock);
  ASSERT_TRUE(db.CreateTable(db::TableSchema(
                                 "Car", {{"maker", db::ColumnType::kString},
                                         {"model", db::ColumnType::kString},
                                         {"price", db::ColumnType::kInt}}))
                  .ok());
  sniffer::QiUrlMap map;
  RecordingSink sink;
  Invalidator inv(&db, &map, &clock, {});
  inv.AddSink(&sink);
  // Two FROM occurrences of Car: an anchor on either would be unsound.
  map.Add("SELECT x.model FROM Car x, Car y WHERE x.price < 10000 AND "
          "y.price > 50000 AND x.maker = y.maker",
          "shop/selfjoin?##", "/r", 0);
  db.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 60000)").value();
  auto report = inv.RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(inv.matcher_stats().tuples_excluded, 0u);
  EXPECT_EQ(inv.metadata().NumIndexedInstances(), 0u);
}

// ---------------------------------------------------------------------------
// Join-term closure: anchors derived through `=` join terms share their
// source anchor's postings.
// ---------------------------------------------------------------------------

using sql::Value;

/// An instance of a hand-compiled type; AddInstance reads only the IDs
/// and the bindings.
QueryInstance BareInstance(uint64_t instance_id, std::vector<Value> bindings) {
  QueryInstance instance;
  instance.instance_id = instance_id;
  instance.type_id = 1;
  instance.sql = StrCat("instance-", instance_id);
  instance.bindings = std::move(bindings);
  return instance;
}

/// The candidate ids of a probe, ascending.
std::vector<uint64_t> CandidateIds(const BindIndex::BatchProbe& probe) {
  std::vector<uint64_t> ids;
  for (const auto& [id, rows] : probe.per_id) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

class JoinClosureTest : public ::testing::Test {
 protected:
  JoinClosureTest() : db_(&clock_) {}

  void SetUp() override {
    AddTable("SmallT", {{"id", db::ColumnType::kInt},
                        {"grp", db::ColumnType::kInt},
                        {"val", db::ColumnType::kInt}});
    AddTable("LargeT", {{"id", db::ColumnType::kInt},
                        {"grp", db::ColumnType::kInt},
                        {"val", db::ColumnType::kInt}});
    AddTable("A", {{"x", db::ColumnType::kInt},
                   {"y", db::ColumnType::kInt},
                   {"s", db::ColumnType::kString}});
    AddTable("B", {{"x", db::ColumnType::kInt},
                   {"w", db::ColumnType::kInt},
                   {"s", db::ColumnType::kString},
                   {"d", db::ColumnType::kDouble}});
    AddTable("C", {{"x", db::ColumnType::kInt}});
    AddTable("D", {{"d", db::ColumnType::kDouble}});
  }

  void AddTable(const std::string& name, std::vector<db::ColumnDef> columns) {
    ASSERT_TRUE(
        db_.CreateTable(db::TableSchema(name, std::move(columns))).ok());
  }

  TypeMatcher Compile(const std::string& sql) {
    QueryType type;
    type.type_id = 1;
    type.name = "type1";
    type.tmpl = sql::ExtractTemplateFromSql(sql).value();
    return TypeMatcher::Compile(type, db_);
  }

  ManualClock clock_;
  db::Database db_;
};

TEST_F(JoinClosureTest, HeavyShapeDerivesLargeTAnchorSharingSmallTPostings) {
  TypeMatcher matcher = Compile(
      "SELECT SmallT.id, LargeT.val FROM SmallT, LargeT WHERE SmallT.grp = "
      "LargeT.grp AND SmallT.grp = 7");
  const CompiledAnchor* own = matcher.AnchorFor("smallt");
  ASSERT_NE(own, nullptr);
  EXPECT_FALSE(own->derived());
  const CompiledAnchor* derived = matcher.AnchorFor("larget");
  ASSERT_NE(derived, nullptr);
  EXPECT_TRUE(derived->derived());
  EXPECT_EQ(derived->postings_table_lower, "smallt");
  EXPECT_EQ(derived->column, "grp");
  EXPECT_EQ(derived->column_index, 1u);
  EXPECT_EQ(derived->rel, AnchorRel::kEq);
  ASSERT_EQ(derived->operands.size(), 1u);
  EXPECT_EQ(derived->operands[0].ordinal, 1);

  BindIndex index;
  for (int g = 1; g <= 5; ++g) {
    index.AddInstance(matcher, BareInstance(10 + g, {Value::Int(g)}));
  }
  // LargeT rows: grp 3 twice, an unmatched 9, a NULL and a double 2.0.
  const std::vector<db::Row> rows = {
      {Value::Int(1), Value::Int(3), Value::Int(0)},
      {Value::Int(2), Value::Int(3), Value::Int(0)},
      {Value::Int(3), Value::Int(9), Value::Int(0)},
      {Value::Int(4), Value::Null(), Value::Int(0)},
      {Value::Int(5), Value::Double(2.0), Value::Int(0)}};
  std::vector<const db::Row*> pointers;
  for (const db::Row& row : rows) pointers.push_back(&row);
  sql::ColumnBatch batch = sql::ColumnBatch::FromRows(pointers);
  auto probe = [&] {
    BindIndex::BatchProbe out;
    index.ProbeBatch(1, *derived, batch.Column(derived->column_index), &out,
                     nullptr);
    return out;
  };
  BindIndex::BatchProbe first = probe();
  EXPECT_EQ(first.all_rows, std::vector<uint32_t>{3});
  EXPECT_EQ(CandidateIds(first), (std::vector<uint64_t>{12, 13}));
  EXPECT_EQ(first.per_id[13], (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(first.per_id[12], std::vector<uint32_t>{4});

  // Retiring through the source's postings retires the derived probe's
  // candidate too: there is one set of postings.
  index.RemoveInstance(13);
  EXPECT_EQ(CandidateIds(probe()), std::vector<uint64_t>{12});
  EXPECT_EQ(index.NumIndexedInstances(), 4u);
}

TEST_F(JoinClosureTest, ThreeTableChainAnchorsEveryTable) {
  for (const char* sql :
       {"SELECT A.y FROM A, B, C WHERE A.x = B.x AND B.x = C.x AND A.x = 4",
        "SELECT A.y FROM A, B, C WHERE C.x = B.x AND 4 = A.x AND B.x = A.x"}) {
    SCOPED_TRACE(sql);
    TypeMatcher matcher = Compile(sql);
    ASSERT_NE(matcher.AnchorFor("a"), nullptr);
    EXPECT_FALSE(matcher.AnchorFor("a")->derived());
    for (const char* table : {"b", "c"}) {
      const CompiledAnchor* anchor = matcher.AnchorFor(table);
      ASSERT_NE(anchor, nullptr) << table;
      EXPECT_EQ(anchor->postings_table_lower, "a");
      EXPECT_EQ(anchor->column, "x");
      EXPECT_EQ(anchor->rel, AnchorRel::kEq);
    }
  }
  // An IN source derives IN anchors.
  TypeMatcher in = Compile(
      "SELECT A.y FROM A, B WHERE A.x = B.x AND A.x IN (1, 2, 3)");
  ASSERT_NE(in.AnchorFor("b"), nullptr);
  EXPECT_EQ(in.AnchorFor("b")->rel, AnchorRel::kIn);
  EXPECT_EQ(in.AnchorFor("b")->operands.size(), 3u);
}

TEST_F(JoinClosureTest, ShapesThatDeriveNothing) {
  // B appears twice in FROM: one column index cannot cover both rows.
  EXPECT_EQ(Compile("SELECT A.y FROM A, B, B b2 WHERE A.x = B.x AND "
                    "A.x = 4")
                .AnchorFor("b"),
            nullptr);
  // A `<` join term is not an equality.
  EXPECT_EQ(Compile("SELECT A.y FROM A, B WHERE A.x < B.x AND A.x = 4")
                .AnchorFor("b"),
            nullptr);
  // The anchor sits on a column outside the join term's class.
  EXPECT_EQ(Compile("SELECT A.y FROM A, B WHERE A.x = B.x AND A.y = 4")
                .AnchorFor("b"),
            nullptr);
  // LIKE anchors nothing, so there is nothing to carry.
  TypeMatcher like = Compile(
      "SELECT A.y FROM A, B WHERE A.s = B.s AND A.s LIKE 'a%'");
  EXPECT_FALSE(like.handled());
  EXPECT_EQ(like.AnchorFor("b"), nullptr);
  // OR-rooted WHERE has no top-level conjuncts to close.
  TypeMatcher ored = Compile(
      "SELECT A.y FROM A, B WHERE A.x = B.x AND A.x = 4 OR A.y = 2");
  EXPECT_FALSE(ored.handled());
  EXPECT_EQ(ored.AnchorFor("b"), nullptr);
  // A DOUBLE column in the class can hold NaN, which equals every
  // number: the chain A.x = D.d = 4 no longer forces A.x = 4.
  EXPECT_EQ(Compile("SELECT A.y FROM A, D WHERE A.x = D.d AND D.d = 4")
                .AnchorFor("a"),
            nullptr);
  // The probed column itself may be DOUBLE: a NaN tuple value probes as
  // an always-candidate row.
  TypeMatcher onto_double =
      Compile("SELECT A.y FROM A, D WHERE A.x = D.d AND A.x = 4");
  ASSERT_NE(onto_double.AnchorFor("d"), nullptr);
  EXPECT_TRUE(onto_double.AnchorFor("d")->derived());
  // The chain B.x = C.x = B.d = A.x passes through the probed tuple's own
  // DOUBLE column: a NaN there joins every C and A row, so B.x cannot be
  // anchored. B.d, the NaN-able link itself, can.
  TypeMatcher through_tuple =
      Compile("SELECT A.y FROM A, B, C WHERE B.x = C.x AND C.x = B.d AND "
              "B.d = A.x AND A.x = 4");
  ASSERT_NE(through_tuple.AnchorFor("b"), nullptr);
  EXPECT_EQ(through_tuple.AnchorFor("b")->column, "d");
}

TEST_F(JoinClosureTest, OwnEqualityAnchorBeatsDerived) {
  TypeMatcher own = Compile(
      "SELECT A.y FROM A, B WHERE A.x = B.x AND A.x = 4 AND B.w = 5");
  ASSERT_NE(own.AnchorFor("b"), nullptr);
  EXPECT_FALSE(own.AnchorFor("b")->derived());
  EXPECT_EQ(own.AnchorFor("b")->column, "w");
  // An own range anchor probes worse than an equality: the derived one
  // replaces it.
  TypeMatcher range = Compile(
      "SELECT A.y FROM A, B WHERE A.x = B.x AND A.x = 4 AND B.w < 5");
  ASSERT_NE(range.AnchorFor("b"), nullptr);
  EXPECT_TRUE(range.AnchorFor("b")->derived());
  EXPECT_EQ(range.AnchorFor("b")->column, "x");
}

/// Runs one cycle over `updates` and returns its batch probes; the
/// cycle's ejects land in `sink`.
uint64_t ProbesOfCycle(db::Database& db, Invalidator& inv, RecordingSink& sink,
                       const std::vector<std::string>& updates) {
  const uint64_t before = inv.matcher_stats().batch_probes;
  for (const std::string& sql : updates) db.ExecuteSql(sql).value();
  sink.invalidated.clear();
  EXPECT_TRUE(inv.RunCycle().ok());
  return inv.matcher_stats().batch_probes - before;
}

// A batch that changes both tables of the heavy shape is decomposed, not
// guarded: each table's anchor is probed, and a batch confined to group 5
// leaves the group-1 page cached with no poll and no pair.
TEST_F(JoinClosureTest, TwoTableBatchProbesBothAnchors) {
  sniffer::QiUrlMap map;
  RecordingSink sink;
  Invalidator inv(&db_, &map, &clock_, {});
  inv.AddSink(&sink);
  const std::string heavy =
      "SELECT SmallT.id FROM SmallT, LargeT WHERE SmallT.grp = LargeT.grp "
      "AND SmallT.grp = 1";
  map.Add(heavy, "shop/heavy?##", "/r", 0);
  ASSERT_TRUE(inv.RunCycle().ok());  // Registers the instance.
  EXPECT_EQ(ProbesOfCycle(db_, inv, sink,
                          {"INSERT INTO SmallT VALUES (1, 5, 0)",
                           "INSERT INTO LargeT VALUES (2, 5, 0)"}),
            2u);
  EXPECT_TRUE(sink.invalidated.empty());
  EXPECT_EQ(inv.stats().polls_issued, 0u);
  EXPECT_EQ(inv.matcher_stats().delta_join_pairs, 0u);
  // A LargeT-only batch probes the derived anchor once.
  EXPECT_EQ(ProbesOfCycle(db_, inv, sink,
                          {"INSERT INTO LargeT VALUES (3, 5, 0)"}),
            1u);
  EXPECT_TRUE(sink.invalidated.empty());
}

// A page for group -1 is an instance of the heavy type of group 1 (the
// negative literal binds whole), so a two-table batch of another group
// probes it away like any other: one type, and no poll round trip.
TEST_F(JoinClosureTest, NegativeGroupPageAddsNoPollRoundTrip) {
  sniffer::QiUrlMap map;
  RecordingSink sink;
  Invalidator inv(&db_, &map, &clock_, {});
  inv.AddSink(&sink);
  const std::string heavy =
      "SELECT SmallT.id FROM SmallT, LargeT WHERE SmallT.grp = LargeT.grp "
      "AND SmallT.grp = ";
  map.Add(heavy + "1", "shop/heavy?grp=1##", "/r", 0);
  map.Add(heavy + "-1", "shop/heavy?grp=-1##", "/r", 0);
  ASSERT_TRUE(inv.RunCycle().ok());  // Registers both instances.
  EXPECT_EQ(inv.metadata().NumTypes(), 1u);
  const uint64_t trips = inv.matcher_stats().poll_round_trips;
  EXPECT_EQ(ProbesOfCycle(db_, inv, sink,
                          {"INSERT INTO SmallT VALUES (1, 5, 0)",
                           "INSERT INTO LargeT VALUES (2, 5, 0)"}),
            2u);
  EXPECT_TRUE(sink.invalidated.empty());
  EXPECT_EQ(inv.matcher_stats().poll_round_trips, trips);
  // A batch of group -1 ejects that page alone.
  ProbesOfCycle(db_, inv, sink,
                {"INSERT INTO SmallT VALUES (3, -1, 0)",
                 "INSERT INTO LargeT VALUES (4, -1, 0)"});
  EXPECT_EQ(sink.invalidated, (std::set<std::string>{"shop/heavy?grp=-1##"}));
}

// The guard stays where the decomposition does not reach: three changed
// FROM entries, and a changed table that FROM lists twice. The type is
// ejected unpolled, for a batch of another group, without a probe.
TEST_F(JoinClosureTest, ThreeTableBatchAndSelfJoinKeepTheGuard) {
  sniffer::QiUrlMap map;
  RecordingSink sink;
  Invalidator inv(&db_, &map, &clock_, {});
  inv.AddSink(&sink);
  const std::string chain =
      "SELECT A.y FROM A, B, C WHERE A.x = B.x AND B.x = C.x AND A.x = 4";
  const std::string self_join =
      "SELECT A.y FROM A, A a2 WHERE A.y = a2.y AND A.x = 4";
  map.Add(chain, "shop/chain?##", "/r", 0);
  ASSERT_TRUE(inv.RunCycle().ok());
  EXPECT_EQ(ProbesOfCycle(db_, inv, sink,
                          {"INSERT INTO A VALUES (9, 0, 's')",
                           "INSERT INTO B VALUES (9, 0, 's', 0.5)",
                           "INSERT INTO C VALUES (9)"}),
            0u);
  EXPECT_EQ(sink.invalidated, std::set<std::string>{"shop/chain?##"});

  map.Add(self_join, "shop/self?##", "/r", 0);
  ASSERT_TRUE(inv.RunCycle().ok());
  EXPECT_EQ(ProbesOfCycle(db_, inv, sink, {"INSERT INTO A VALUES (9, 1, 't')"}),
            0u);
  EXPECT_EQ(sink.invalidated, std::set<std::string>{"shop/self?##"});
  EXPECT_EQ(inv.stats().polls_issued, 0u);
  EXPECT_EQ(inv.matcher_stats().delta_join_pairs, 0u);
}

// Soundness of every anchor, own or derived, against the evaluator: on
// random schemas, binds and rows drawn from INT, DOUBLE (integral, ±0.0,
// NaN, beyond 2^53), NULL and strings, whenever ProbeBatch excludes an
// instance for a delta row, the instance's bound WHERE is not TRUE for
// that row joined with ANY rows of the other tables.

/// A value of the zoo that the column type can store.
Value ZooValue(Random& rng, db::ColumnType type) {
  constexpr double kTwo53 = 9007199254740992.0;
  for (;;) {
    Value v;
    switch (rng.Uniform(9)) {
      case 0:
        v = Value::Null();
        break;
      case 1:
        v = Value::String(StrCat("s", rng.Uniform(3)));
        break;
      case 2:
        v = Value::Double(std::numeric_limits<double>::quiet_NaN());
        break;
      case 3:
        v = Value::Double(rng.OneIn(0.5) ? 0.0 : -0.0);
        break;
      case 4:
        v = Value::Double(kTwo53 + 2.0 * static_cast<double>(rng.Uniform(2)));
        break;
      case 5:
        v = Value::Int(static_cast<int64_t>(kTwo53) +
                       static_cast<int64_t>(rng.Uniform(3)));
        break;
      case 6:
        v = Value::Double(static_cast<double>(rng.Uniform(2)));
        break;
      default:
        v = Value::Int(static_cast<int64_t>(rng.Uniform(2)));
        break;
    }
    if (db::ValueMatchesType(v, type)) return v;
  }
}

/// A bind value: anything in the zoo.
Value ZooBind(Random& rng) {
  switch (rng.Uniform(3)) {
    case 0:
      return ZooValue(rng, db::ColumnType::kString);
    default:
      return ZooValue(rng, db::ColumnType::kDouble);
  }
}

std::string RowText(const db::Row& row) {
  std::string text;
  for (const Value& v : row) {
    text += (text.empty() ? "" : ", ") + v.ToSqlLiteral() +
            (v.is_double() ? "d" : "");
  }
  return text;
}

std::string JoinedText(const std::map<std::string, const db::Row*>& rows) {
  std::string text;
  for (const auto& [table, row] : rows) {
    text += StrCat(table, "(", RowText(*row), ") ");
  }
  return text;
}

/// Resolves `table.column` against one row per FROM table.
class JoinRowResolver : public sql::ColumnResolver {
 public:
  JoinRowResolver(const db::Database& db,
                  const std::map<std::string, const db::Row*>& rows)
      : db_(db), rows_(rows) {}
  std::optional<Value> Resolve(const std::string& table,
                               const std::string& column) const override {
    auto it = rows_.find(AsciiToLower(table));
    if (it == rows_.end()) return std::nullopt;
    std::optional<size_t> index =
        db_.FindTable(table)->schema().ColumnIndex(column);
    if (!index.has_value()) return std::nullopt;
    return (*it->second)[*index];
  }

 private:
  const db::Database& db_;
  const std::map<std::string, const db::Row*>& rows_;
};

TEST(JoinClosurePropertyTest, ExclusionImpliesNoJoinedRowSatisfiesTheWhere) {
  const char* kShapes[] = {
      "SELECT A.y FROM A, B WHERE A.x = B.x AND A.x = 1",
      "SELECT A.y FROM A, B, C WHERE A.x = B.x AND B.x = C.x AND A.x = 1",
      "SELECT A.y FROM A, B WHERE B.x = A.x AND A.x IN (1, 2)",
      "SELECT A.y FROM A, B, C WHERE C.x = B.x AND A.x = C.x AND 1 = A.x "
      "AND B.y < 3",
      // The chain runs through a second column of the probed tuple.
      "SELECT A.y FROM A, B, C WHERE B.x = C.x AND C.x = B.y AND B.y = A.x "
      "AND A.x = 1",
  };
  // INT twice: chains of integer links are the ones a NaN cell breaks.
  const db::ColumnType kTypes[] = {db::ColumnType::kInt, db::ColumnType::kInt,
                                   db::ColumnType::kDouble,
                                   db::ColumnType::kString};
  uint64_t derived_exclusions = 0;
  uint64_t derived_shapes = 0;
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Random rng(seed);
    ManualClock clock;
    db::Database db(&clock);
    std::map<std::string, std::vector<db::ColumnType>> types;
    for (const char* name : {"A", "B", "C"}) {
      std::vector<db::ColumnType>& t = types[AsciiToLower(name)];
      t = {kTypes[rng.Uniform(4)], kTypes[rng.Uniform(4)]};
      ASSERT_TRUE(
          db.CreateTable(db::TableSchema(name, {{"x", t[0]}, {"y", t[1]}}))
              .ok());
    }
    QueryType type;
    type.type_id = 1;
    type.tmpl =
        sql::ExtractTemplateFromSql(kShapes[rng.Uniform(std::size(kShapes))])
            .value();
    TypeMatcher matcher = TypeMatcher::Compile(type, db);
    const sql::SelectStatement& statement = *type.tmpl.statement;
    const size_t slots = sql::ParameterSlotCount(type.tmpl);

    std::vector<QueryInstance> instances;
    BindIndex index;
    for (uint64_t id = 1; id <= 10; ++id) {
      std::vector<Value> bindings;
      for (size_t k = 0; k < slots; ++k) bindings.push_back(ZooBind(rng));
      instances.push_back(BareInstance(id, std::move(bindings)));
      index.AddInstance(matcher, instances.back());
    }
    // Four rows per FROM table.
    std::map<std::string, std::vector<db::Row>> rows;
    for (const sql::TableRef& ref : statement.from) {
      const std::string table = AsciiToLower(ref.table);
      for (int r = 0; r < 4; ++r) {
        rows[table].push_back({ZooValue(rng, types[table][0]),
                               ZooValue(rng, types[table][1])});
      }
    }

    for (const auto& [table, anchor] : matcher.anchors()) {
      if (anchor.derived()) ++derived_shapes;
      std::vector<const db::Row*> delta;
      for (const db::Row& row : rows[table]) delta.push_back(&row);
      sql::ColumnBatch batch = sql::ColumnBatch::FromRows(delta);
      BindIndex::BatchProbe probe;
      index.ProbeBatch(1, anchor, batch.Column(anchor.column_index), &probe,
                       nullptr);
      for (const QueryInstance& instance : instances) {
        auto own = probe.per_id.find(instance.instance_id);
        std::set<uint32_t> kept(probe.all_rows.begin(), probe.all_rows.end());
        if (own != probe.per_id.end()) {
          kept.insert(own->second.begin(), own->second.end());
        }
        sql::ExpressionPtr where =
            sql::BindParameters(*statement.where, instance.bindings).value();
        for (uint32_t r = 0; r < delta.size(); ++r) {
          if (kept.contains(r)) continue;
          if (anchor.derived()) ++derived_exclusions;
          // Every combination of the other tables' rows.
          std::vector<std::string> others;
          for (const auto& [name, unused] : rows) {
            if (name != table) others.push_back(name);
          }
          std::map<std::string, const db::Row*> bound = {{table, delta[r]}};
          std::vector<size_t> pick(others.size(), 0);
          for (bool more = true; more;) {
            for (size_t o = 0; o < others.size(); ++o) {
              bound[others[o]] = &rows[others[o]][pick[o]];
            }
            Result<std::optional<bool>> verdict =
                sql::EvalPredicate(*where, JoinRowResolver(db, bound));
            ASSERT_TRUE(verdict.ok());
            EXPECT_NE(*verdict, std::optional<bool>(true))
                << "instance " << instance.instance_id << " excluded by "
                << table << " row " << r << " (" << RowText(*delta[r])
                << ") through " << (anchor.derived() ? "derived" : "own")
                << " anchor on " << anchor.column << ", joined with "
                << JoinedText(bound) << ": " << sql::ExprToSql(*where);
            more = false;
            for (size_t o = 0; o < others.size() && !more; ++o) {
              if (++pick[o] < rows[others[o]].size()) {
                more = true;
              } else {
                pick[o] = 0;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(derived_shapes, 20u);
  EXPECT_GT(derived_exclusions, 200u);
}

}  // namespace
}  // namespace cacheportal::invalidator
