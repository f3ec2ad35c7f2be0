// Delta-join decomposition: a batch that changes both tables of a join
// type is decided by the per-side polls plus the in-process pair term
// (DESIGN.md §10), never by ejecting every instance of the type.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "db/database.h"
#include "invalidator/invalidator.h"
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

void CreateJoinTables(db::Database& db) {
  for (const char* table : {"SmallT", "LargeT"}) {
    ASSERT_TRUE(db.CreateTable(db::TableSchema(
                                   table, {{"id", db::ColumnType::kInt},
                                           {"grp", db::ColumnType::kInt},
                                           {"val", db::ColumnType::kInt}}))
                    .ok());
    ASSERT_TRUE(db.CreateIndex(table, "grp").ok());
  }
}

std::string HeavySql(int grp) {
  return StrCat(
      "SELECT COUNT(*) AS pairs, MAX(LargeT.val) AS best FROM SmallT, "
      "LargeT WHERE SmallT.grp = LargeT.grp AND SmallT.grp = ",
      grp);
}

// One batch deletes the last SmallT row and the last LargeT row of group
// 1. Either side's poll would come back empty: the other side has no row
// of the group left. Only the pair of the two deleted rows shows that the
// heavy page lost its one join pair.
TEST(JoinDeltaTest, DeletingBothSidesOfTheOnlyPairEjectsTheHeavyPage) {
  ManualClock clock;
  db::Database db(&clock);
  CreateJoinTables(db);
  for (const char* sql :
       {"INSERT INTO SmallT VALUES (1, 1, 10)",
        "INSERT INTO SmallT VALUES (2, 2, 20)",
        "INSERT INTO LargeT VALUES (3, 1, 30)",
        "INSERT INTO LargeT VALUES (4, 2, 40)"}) {
    db.ExecuteSql(sql).value();
  }
  sniffer::QiUrlMap map;
  RecordingSink sink;
  Invalidator inv(&db, &map, &clock, {});
  inv.AddSink(&sink);
  map.Add(HeavySql(1), "shop/heavy1?##", "/r", 0);
  map.Add(HeavySql(2), "shop/heavy2?##", "/r", 0);
  ASSERT_TRUE(inv.RunCycle().ok());

  db.ExecuteSql("DELETE FROM SmallT WHERE id = 1").value();
  db.ExecuteSql("DELETE FROM LargeT WHERE id = 3").value();
  ASSERT_TRUE(inv.RunCycle().ok());
  EXPECT_EQ(sink.invalidated, std::set<std::string>{"shop/heavy1?##"});
  EXPECT_EQ(inv.stats().poll_hits, 0u);
  EXPECT_EQ(inv.matcher_stats().delta_join_pairs, 1u);
  EXPECT_EQ(inv.matcher_stats().delta_join_hits, 1u);
}

// ---------------------------------------------------------------------------
// Property: random two-table batches over browse's three page shapes and
// a range join. Every page whose re-executed result changed is ejected.
// ---------------------------------------------------------------------------

constexpr int kGroups = 4;

/// Page n's query, n = kGroups * shape + group: heavy join, light,
/// medium, range join. The range join's `<` term derives no SmallT
/// anchor, so every SmallT tuple reaches every instance.
std::string PageSql(int page) {
  const int grp = page % kGroups;
  switch (page / kGroups) {
    case 0:
      return HeavySql(grp);
    case 1:
      return StrCat("SELECT id, val FROM SmallT WHERE grp = ", grp,
                    " ORDER BY id");
    case 2:
      return StrCat("SELECT id, val FROM LargeT WHERE grp = ", grp,
                    " ORDER BY id");
    default:
      return StrCat(
          "SELECT SmallT.id, LargeT.id FROM SmallT, LargeT WHERE SmallT.val "
          "< LargeT.val AND LargeT.grp = ",
          grp, " ORDER BY SmallT.id, LargeT.id");
  }
}

struct JoinDeltaRun {
  std::vector<std::string> stale;  // "cycle c page p" of each stale page.
  uint64_t ejects = 0;
  MatcherStats matcher;
};

JoinDeltaRun RunJoinDeltaWorld(uint64_t seed, size_t workers) {
  Random rng(seed);
  ManualClock clock;
  db::Database db(&clock);
  CreateJoinTables(db);
  const char* kTables[] = {"SmallT", "LargeT"};
  int next_id = 0;
  // Groups kGroups and kGroups + 1 have no pages; a NULL group joins
  // nothing.
  auto group = [&]() -> std::string {
    if (rng.OneIn(0.15)) return "NULL";
    return StrCat(rng.Uniform(kGroups + 2));
  };
  auto insert = [&](const char* table) {
    db.ExecuteSql(StrCat("INSERT INTO ", table, " VALUES (", next_id++, ", ",
                         group(), ", ", rng.Uniform(10), ")"))
        .value();
  };
  for (int i = 0; i < 6; ++i) insert("SmallT");
  for (int i = 0; i < 10; ++i) insert("LargeT");

  std::vector<std::string> sqls;
  for (int page = 0; page < 4 * kGroups; ++page) {
    sqls.push_back(PageSql(page));
  }
  InvalidatorOptions options;
  options.worker_threads = workers;
  sniffer::QiUrlMap map;
  RecordingSink sink;
  Invalidator inv(&db, &map, &clock, options);
  inv.AddSink(&sink);

  JoinDeltaRun run;
  for (int cycle = 0; cycle < 8; ++cycle) {
    for (size_t page = 0; page < sqls.size(); ++page) {
      map.Add(sqls[page], StrCat("shop/p", page, "?##"), "/r", 0);
    }
    const std::vector<std::string> before = ResultTexts(db, sqls);
    // Both tables change in every batch: each gets one statement, then
    // a few more go to either.
    const int batch = 2 + static_cast<int>(rng.Uniform(4));
    for (int u = 0; u < batch; ++u) {
      const char* table = u < 2 ? kTables[u] : kTables[rng.Uniform(2)];
      const uint64_t id = rng.Uniform(next_id);
      switch (rng.Uniform(5)) {
        case 0:
          insert(table);
          break;
        case 1:
          db.ExecuteSql(StrCat("DELETE FROM ", table, " WHERE id = ", id))
              .value();
          break;
        case 2:
          // Empties a group of this table: the last rows of a join pair.
          db.ExecuteSql(StrCat("DELETE FROM ", table, " WHERE grp = ",
                               rng.Uniform(kGroups)))
              .value();
          break;
        case 3:
          db.ExecuteSql(StrCat("UPDATE ", table, " SET grp = ", group(),
                               " WHERE id = ", id))
              .value();
          break;
        default:
          db.ExecuteSql(StrCat("UPDATE ", table, " SET val = ",
                               rng.Uniform(10), " WHERE id = ", id))
              .value();
          break;
      }
    }
    sink.invalidated.clear();
    EXPECT_TRUE(inv.RunCycle().ok());
    const std::set<int> ejected = PageNumbers(sink.invalidated);
    run.ejects += ejected.size();
    for (int page : ChangedPages(before, ResultTexts(db, sqls))) {
      if (!ejected.contains(page)) {
        run.stale.push_back(StrCat("cycle ", cycle, " page ", page, ": ",
                                   sqls[page]));
      }
    }
  }
  run.matcher = inv.matcher_stats();
  return run;
}

TEST(JoinDeltaPropertyTest, EveryChangedPageIsEjected) {
  uint64_t pairs = 0;
  uint64_t hits = 0;
  for (size_t workers : {1u, 4u}) {
    for (uint64_t seed = 1; seed <= 150; ++seed) {
      SCOPED_TRACE(StrCat("seed ", seed, " workers ", workers));
      JoinDeltaRun run = RunJoinDeltaWorld(seed, workers);
      EXPECT_TRUE(run.stale.empty()) << StrJoin(run.stale, "\n");
      EXPECT_GT(run.ejects, 0u);
      pairs += run.matcher.delta_join_pairs;
      hits += run.matcher.delta_join_hits;
    }
  }
  // The pair term did real work, and decided some instances.
  EXPECT_GT(pairs, 100u);
  EXPECT_GT(hits, 10u);
}

}  // namespace
}  // namespace cacheportal::invalidator
