#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "db/database.h"
#include "server/jdbc.h"
#include "sniffer/mapper.h"
#include "sniffer/qiurl_map.h"
#include "sniffer/query_log.h"
#include "sniffer/query_logger.h"
#include "sniffer/request_log.h"
#include "sniffer/request_logger.h"
#include "qiurl_map_oracle.h"

namespace cacheportal::sniffer {
namespace {

// ---------------------------------------------------------------------
// Logs
// ---------------------------------------------------------------------

TEST(RequestLogTest, OpenCloseLifecycle) {
  RequestLog log;
  uint64_t id = log.Open("servlet", "/cars?m=1", "c=1", "p=1", "key", 100);
  EXPECT_EQ(id, 1u);
  EXPECT_FALSE(log.entries()[0].completed());
  log.Close(id, 250);
  EXPECT_TRUE(log.entries()[0].completed());
  EXPECT_EQ(log.entries()[0].receive_time, 100);
  EXPECT_EQ(log.entries()[0].delivery_time, 250);
}

TEST(RequestLogTest, CloseUnknownIdIgnored) {
  RequestLog log;
  log.Close(42, 100);  // No crash, no effect.
  EXPECT_EQ(log.size(), 0u);
}

TEST(RequestLogTest, ReadSince) {
  RequestLog log;
  for (int i = 0; i < 4; ++i) log.Open("s", "r", "", "", "k", i);
  EXPECT_EQ(log.ReadSince(0).size(), 4u);
  EXPECT_EQ(log.ReadSince(2).size(), 2u);
  EXPECT_EQ(log.ReadSince(9).size(), 0u);
}

TEST(QueryLogTest, AppendAndRead) {
  QueryLog log;
  log.Append("SELECT 1", true, 10, 20);
  log.Append("DELETE FROM t", false, 30, 35);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_TRUE(log.entries()[0].is_select);
  EXPECT_FALSE(log.entries()[1].is_select);
  EXPECT_EQ(log.ReadSince(1).size(), 1u);
}

// ---------------------------------------------------------------------
// Query logger (JDBC wrapper)
// ---------------------------------------------------------------------

TEST(QueryLoggerTest, WrapsDriverAndRecordsTimestamps) {
  db::Database db;
  db.CreateTable(db::TableSchema("T", {{"x", db::ColumnType::kInt}}));

  auto inner = std::make_unique<server::MemoryDbDriver>();
  inner->BindDatabase("d", &db);

  ManualClock clock(1000);
  QueryLog log;
  QueryLoggingDriver wrapper(inner.get(), &log, &clock);

  EXPECT_TRUE(wrapper.AcceptsUrl("jdbc:cacheportal-log:jdbc:cacheportal:d"));
  EXPECT_FALSE(wrapper.AcceptsUrl("jdbc:cacheportal:d"));
  EXPECT_FALSE(wrapper.AcceptsUrl("jdbc:cacheportal-log:jdbc:unknown:d"));

  auto conn = wrapper.Connect("jdbc:cacheportal-log:jdbc:cacheportal:d");
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  ASSERT_TRUE((*conn)->ExecuteUpdate("INSERT INTO T VALUES (7)").ok());
  clock.Advance(5);
  auto rows = (*conn)->ExecuteQuery("SELECT * FROM T");
  ASSERT_TRUE(rows.ok());

  ASSERT_EQ(log.size(), 2u);
  EXPECT_FALSE(log.entries()[0].is_select);
  EXPECT_TRUE(log.entries()[1].is_select);
  EXPECT_EQ(log.entries()[1].sql, "SELECT * FROM T");
  EXPECT_EQ(log.entries()[1].receive_time, 1005);
}

TEST(QueryLoggerTest, WrapConnectionDirectly) {
  db::Database db;
  db.CreateTable(db::TableSchema("T", {{"x", db::ColumnType::kInt}}));
  server::MemoryDbDriver inner;
  inner.BindDatabase("d", &db);
  auto raw = inner.Connect("jdbc:cacheportal:d");
  ASSERT_TRUE(raw.ok());

  ManualClock clock;
  QueryLog log;
  QueryLoggingDriver wrapper(&inner, &log, &clock);
  auto wrapped = wrapper.WrapConnection(raw->get());
  ASSERT_TRUE(wrapped->ExecuteQuery("SELECT * FROM T").ok());
  EXPECT_EQ(log.size(), 1u);
}

// ---------------------------------------------------------------------
// Request logger (servlet wrapper)
// ---------------------------------------------------------------------

TEST(RequestLoggerTest, NarrowToKeysUsesConfiguredParams) {
  server::ServletConfig config;
  config.name = "/cars";
  config.key_get_params = {"model"};
  config.key_cookie_params = {"lang"};

  auto req = http::HttpRequest::Get("http://shop/cars?model=Avalon&uid=7");
  req->cookies["lang"] = "en";
  req->cookies["session"] = "s";

  http::PageId id = RequestLogger::NarrowToKeys(*req, &config);
  EXPECT_EQ(id.get_params().size(), 1u);
  EXPECT_EQ(id.get_params().at("model"), "Avalon");
  EXPECT_EQ(id.cookie_params().size(), 1u);
  EXPECT_TRUE(id.post_params().empty());
}

TEST(RequestLoggerTest, WithoutConfigAllParamsAreKeys) {
  auto req = http::HttpRequest::Get("http://shop/cars?a=1&b=2");
  http::PageId id = RequestLogger::NarrowToKeys(*req, nullptr);
  EXPECT_EQ(id.get_params().size(), 2u);
}

TEST(RequestLoggerTest, LogsAndRewritesNoCacheDirective) {
  ManualClock clock(100);
  RequestLog log;
  RequestLogger logger(&log, &clock);
  server::ServletConfig config;
  config.name = "cars";
  config.key_get_params = {"model"};
  logger.RegisterServlet(config);

  auto req = http::HttpRequest::Get("http://shop/cars?model=Avalon&junk=1");
  uint64_t token = logger.BeforeService("cars", *req);
  clock.Advance(50);

  http::HttpResponse resp = http::HttpResponse::Ok("page");
  http::CacheControl no_cache;
  no_cache.no_cache = true;
  resp.SetCacheControl(no_cache);
  logger.AfterService(token, "cars", *req, &resp);

  // Log entry completed with the narrowed page key.
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.entries()[0].receive_time, 100);
  EXPECT_EQ(log.entries()[0].delivery_time, 150);
  EXPECT_NE(log.entries()[0].page_key.find("model=Avalon"),
            std::string::npos);
  EXPECT_EQ(log.entries()[0].page_key.find("junk"), std::string::npos);

  // no-cache became private owner="cacheportal" (Section 3.1).
  http::CacheControl cc = resp.GetCacheControl();
  EXPECT_FALSE(cc.no_cache);
  EXPECT_TRUE(cc.is_private);
  EXPECT_EQ(cc.owner, http::kCachePortalOwner);
  EXPECT_TRUE(cc.CacheableByCachePortal());
}

TEST(RequestLoggerTest, MissingDirectiveTreatedAsDynamic) {
  ManualClock clock;
  RequestLog log;
  RequestLogger logger(&log, &clock);
  auto req = http::HttpRequest::Get("http://shop/x");
  uint64_t token = logger.BeforeService("x", *req);
  http::HttpResponse resp = http::HttpResponse::Ok("page");
  logger.AfterService(token, "x", *req, &resp);
  EXPECT_TRUE(resp.GetCacheControl().CacheableByCachePortal());
}

TEST(RequestLoggerTest, TemporallySensitiveServletStaysNonCacheable) {
  ManualClock clock;
  RequestLog log;
  RequestLogger logger(&log, &clock);
  logger.SetInvalidationCycle(kMicrosPerSecond);  // 1 s cycle.
  server::ServletConfig config;
  config.name = "ticker";
  config.temporal_sensitivity = 100 * kMicrosPerMilli;  // Needs 100 ms.
  logger.RegisterServlet(config);

  auto req = http::HttpRequest::Get("http://shop/ticker");
  uint64_t token = logger.BeforeService("ticker", *req);
  http::HttpResponse resp = http::HttpResponse::Ok("quote");
  logger.AfterService(token, "ticker", *req, &resp);
  EXPECT_FALSE(resp.GetCacheControl().CacheableByCachePortal());
  EXPECT_TRUE(resp.GetCacheControl().no_cache);
}

TEST(RequestLoggerTest, OracleVetoKeepsNonCacheable) {
  ManualClock clock;
  RequestLog log;
  RequestLogger logger(&log, &clock);
  logger.SetCacheabilityOracle(
      [](const std::string& name) { return name != "blocked"; });

  auto req = http::HttpRequest::Get("http://shop/b");
  uint64_t token = logger.BeforeService("blocked", *req);
  http::HttpResponse resp = http::HttpResponse::Ok("x");
  logger.AfterService(token, "blocked", *req, &resp);
  EXPECT_FALSE(resp.GetCacheControl().CacheableByCachePortal());
}

TEST(RequestLoggerTest, ExplicitNoStoreNeverOverridden) {
  ManualClock clock;
  RequestLog log;
  RequestLogger logger(&log, &clock);
  auto req = http::HttpRequest::Get("http://shop/x");
  uint64_t token = logger.BeforeService("x", *req);
  http::HttpResponse resp = http::HttpResponse::Ok("x");
  http::CacheControl cc;
  cc.no_store = true;
  resp.SetCacheControl(cc);
  logger.AfterService(token, "x", *req, &resp);
  EXPECT_TRUE(resp.GetCacheControl().no_store);
  EXPECT_FALSE(resp.GetCacheControl().CacheableByCachePortal());
}

TEST(RequestLoggerTest, ExplicitlyCacheableResponseUntouched) {
  ManualClock clock;
  RequestLog log;
  RequestLogger logger(&log, &clock);
  auto req = http::HttpRequest::Get("http://shop/x");
  uint64_t token = logger.BeforeService("x", *req);
  http::HttpResponse resp = http::HttpResponse::Ok("x");
  http::CacheControl cc;
  cc.is_public = true;
  cc.max_age_seconds = 300;
  resp.SetCacheControl(cc);
  logger.AfterService(token, "x", *req, &resp);
  EXPECT_EQ(resp.GetCacheControl(), cc);
}

// ---------------------------------------------------------------------
// QI/URL map
// ---------------------------------------------------------------------

TEST(QiUrlMapTest, AddAndLookups) {
  QiUrlMap map;
  map.Add("q1", "page1", "/cars?m=1", 100);
  map.Add("q1", "page2", "/cars?m=2", 100);
  map.Add("q2", "page1", "/cars?m=1", 100);

  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.NumQueries(), 2u);
  EXPECT_EQ(map.NumPages(), 2u);
  EXPECT_EQ(map.PagesForQuery("q1"),
            (std::vector<std::string>{"page1", "page2"}));
  EXPECT_EQ(map.QueriesForPage("page1"),
            (std::vector<std::string>{"q1", "q2"}));
  EXPECT_TRUE(map.PagesForQuery("q9").empty());
}

TEST(QiUrlMapTest, DeduplicatesPairs) {
  QiUrlMap map;
  QiUrlMap::Added a = map.Add("q", "p", "/r", 1);
  QiUrlMap::Added b = map.Add("q", "p", "/r", 2);
  EXPECT_TRUE(a.created);
  EXPECT_FALSE(b.created);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(map.size(), 1u);
}

TEST(QiUrlMapTest, ReadSinceIncremental) {
  QiUrlMap map;
  map.Add("q1", "p1", "/r", 1);
  map.Add("q2", "p2", "/r", 1);
  auto all = map.ReadSince(0);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(map.ReadSince(all[0].id).size(), 1u);
  EXPECT_EQ(map.ReadSince(map.LastId()).size(), 0u);
}

TEST(QiUrlMapTest, RemovePageCleansBothDirections) {
  QiUrlMap map;
  map.Add("q1", "p1", "/r", 1);
  map.Add("q1", "p2", "/r", 1);
  map.Add("q2", "p1", "/r", 1);
  EXPECT_EQ(map.RemovePage("p1"), 2u);
  EXPECT_TRUE(map.QueriesForPage("p1").empty());
  EXPECT_EQ(map.PagesForQuery("q1"), std::vector<std::string>{"p2"});
  EXPECT_TRUE(map.PagesForQuery("q2").empty());
  EXPECT_EQ(map.RemovePage("p1"), 0u);
}

TEST(QiUrlMapTest, OrphanFeedReportsLastPageRemovals) {
  QiUrlMap map;
  map.Add("q1", "p1", "/r", 1);
  map.Add("q1", "p2", "/r", 1);
  map.Add("q2", "p1", "/r", 1);
  map.RemovePage("p1");  // q2 loses its only page; q1 keeps p2.
  QiUrlMap::Orphans orphans = map.TakeOrphans();
  EXPECT_TRUE(orphans.complete);
  EXPECT_EQ(orphans.Texts(), std::vector<std::string>{"q2"});
  // Taking drains the feed.
  EXPECT_TRUE(map.TakeOrphans().queries.empty());

  // Removal order, repeats included: the feed records transitions, and a
  // re-added query can be orphaned again before the consumer looks.
  map.RemovePage("p2");
  map.Add("q1", "p3", "/r", 2);
  map.RemovePage("p3");
  EXPECT_EQ(map.TakeOrphans().Texts(),
            (std::vector<std::string>{"q1", "q1"}));
  // Removing an unknown page orphans nothing.
  EXPECT_EQ(map.RemovePage("nope"), 0u);
  EXPECT_TRUE(map.TakeOrphans().queries.empty());
}

TEST(QiUrlMapTest, OrphanFeedIsBoundedAndReportsOverflow) {
  QiUrlMap map;
  const size_t n = QiUrlMap::kMaxOrphans + 3;
  for (size_t i = 0; i < n; ++i) {
    std::string id = std::to_string(i);
    map.Add("q" + id, "p" + id, "/r", 1);
    map.RemovePage("p" + id);
  }
  QiUrlMap::Orphans orphans = map.TakeOrphans();
  EXPECT_FALSE(orphans.complete);
  EXPECT_EQ(orphans.queries.size(), QiUrlMap::kMaxOrphans);
  // The overflow is reported once; the drained feed starts complete.
  orphans = map.TakeOrphans();
  EXPECT_TRUE(orphans.complete);
  EXPECT_TRUE(orphans.queries.empty());
}

TEST(QiUrlMapTest, MovesCarryTheOrphanFeed) {
  QiUrlMap source;
  source.Add("q1", "p1", "/r", 1);
  source.Add("q2", "p2", "/r", 1);
  source.RemovePage("p1");
  QiUrlMap moved(std::move(source));
  EXPECT_EQ(moved.TakeOrphans().Texts(), std::vector<std::string>{"q1"});

  moved.RemovePage("p2");
  QiUrlMap assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.TakeOrphans().Texts(), std::vector<std::string>{"q2"});
  EXPECT_TRUE(assigned.TakeOrphans().queries.empty());
}

// ---------------------------------------------------------------------
// The id-keyed map against the string-keyed one it replaced
// ---------------------------------------------------------------------

/// Every read both maps answer, compared field by field.
void ExpectSameReads(const QiUrlMap& map, const testing::OracleQiUrlMap& oracle,
                     const std::vector<std::string>& queries,
                     const std::vector<std::string>& pages) {
  EXPECT_EQ(map.size(), oracle.size());
  EXPECT_EQ(map.NumQueries(), oracle.NumQueries());
  EXPECT_EQ(map.NumPages(), oracle.NumPages());
  EXPECT_EQ(map.LastId(), oracle.LastId());
  EXPECT_EQ(map.epoch(), oracle.epoch());
  for (const std::string& query : queries) {
    EXPECT_EQ(map.PagesForQuery(query), oracle.PagesForQuery(query)) << query;
    EXPECT_EQ(map.NumPagesForQuery(query), oracle.NumPagesForQuery(query));
  }
  for (const std::string& page : pages) {
    EXPECT_EQ(map.QueriesForPage(page), oracle.QueriesForPage(page)) << page;
  }
}

void ExpectSameEntries(const std::vector<QiUrlEntry>& got,
                       const std::vector<QiUrlEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].query_sql, want[i].query_sql);
    EXPECT_EQ(got[i].page_key, want[i].page_key);
    EXPECT_EQ(got[i].request_string, want[i].request_string);
    EXPECT_EQ(got[i].timestamp, want[i].timestamp);
  }
}

TEST(QiUrlMapDifferentialTest, SeededOperationsMatchTheStringKeyedOracle) {
  // Texts chosen so that id order and text order disagree: ids are
  // minted in first-use order, which the seeds shuffle.
  std::vector<std::string> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(StrCat("SELECT * FROM T WHERE x = ", (i * 7) % 12));
  }
  std::vector<std::string> pages;
  for (int i = 0; i < 15; ++i) pages.push_back(StrCat("shop/p?k=", (i * 4) % 15, "##"));
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Random rng(seed);
    QiUrlMap map;
    testing::OracleQiUrlMap oracle;
    for (int step = 0; step < 300; ++step) {
      uint64_t op = rng.Uniform(100);
      if (op < 50) {
        const std::string& query = queries[rng.Uniform(queries.size())];
        const std::string& page = pages[rng.Uniform(pages.size())];
        std::string request = StrCat("/r?step=", step);
        size_t before = oracle.size();
        uint64_t want = oracle.Add(query, page, request, step);
        QiUrlMap::Added got = map.Add(query, page, request, step);
        EXPECT_EQ(got.id, want);
        EXPECT_EQ(got.created, oracle.size() > before);
      } else if (op < 75) {
        const std::string& page = pages[rng.Uniform(pages.size())];
        EXPECT_EQ(map.RemovePage(page), oracle.RemovePage(page));
      } else if (op < 85) {
        QiUrlMap::Orphans got = map.TakeOrphans();
        testing::OracleQiUrlMap::Orphans want = oracle.TakeOrphans();
        EXPECT_EQ(got.Texts(), want.queries);
        EXPECT_EQ(got.complete, want.complete);
      } else if (op < 95) {
        uint64_t after = rng.Uniform(oracle.LastId() + 2);
        ExpectSameEntries(map.ReadSince(after), oracle.ReadSince(after));
        std::vector<QiUrlRow> rows = map.ReadRowsSince(after);
        std::vector<QiUrlEntry> entries = oracle.ReadSince(after);
        ASSERT_EQ(rows.size(), entries.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          EXPECT_EQ(rows[i].id, entries[i].id);
          EXPECT_EQ(map.ids().queries.Text(rows[i].query),
                    entries[i].query_sql);
          EXPECT_EQ(map.ids().pages.Text(rows[i].page), entries[i].page_key);
        }
      } else {
        std::string bytes = map.Serialize();
        ASSERT_EQ(bytes, oracle.Serialize());
        Result<QiUrlMap> restored = QiUrlMap::Deserialize(bytes);
        Result<testing::OracleQiUrlMap> restored_oracle =
            testing::OracleQiUrlMap::Deserialize(bytes);
        ASSERT_TRUE(restored.ok());
        ASSERT_TRUE(restored_oracle.ok());
        map = std::move(*restored);
        oracle = std::move(*restored_oracle);
        EXPECT_EQ(map.Serialize(), bytes);
      }
      ExpectSameReads(map, oracle, queries, pages);
    }
  }
}

TEST(QiUrlMapConcurrencyTest, AddRacesRemovePage) {
  // The sniffer adds while the cycle ejects and drains the orphan feed:
  // the row set stays consistent both ways round, every orphan keeps
  // its text while handed out, and once everything is removed no id is
  // left referenced.
  constexpr int kPages = 32;
  const auto query = [](int i) { return StrCat("SELECT * FROM T WHERE x = ", i % 8); };
  const auto page = [](int i) { return StrCat("shop/p?k=", i, "##"); };
  QiUrlMap map;
  std::atomic<bool> done{false};
  std::thread adder([&] {
    for (int round = 0; round < 100; ++round) {
      for (int i = 0; i < kPages; ++i) map.Add(query(i), page(i), "/r", round);
    }
    done = true;
  });
  size_t orphans_seen = 0;
  while (!done) {
    for (int i = 0; i < kPages; i += 3) map.RemovePage(page(i));
    QiUrlMap::Orphans orphans = map.TakeOrphans();
    for (const std::string& text : orphans.Texts()) {
      EXPECT_EQ(text.rfind("SELECT * FROM T WHERE x = ", 0), 0u) << text;
      ++orphans_seen;
    }
  }
  adder.join();
  size_t rows = 0;
  for (int q = 0; q < 8; ++q) {
    for (const std::string& key : map.PagesForQuery(query(q))) {
      ++rows;
      std::vector<std::string> back = map.QueriesForPage(key);
      EXPECT_NE(std::find(back.begin(), back.end(), query(q)), back.end());
    }
  }
  EXPECT_EQ(rows, map.size());
  for (int i = 0; i < kPages; ++i) map.RemovePage(page(i));
  map.TakeOrphans();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.ids().queries.live(), 0u);
  EXPECT_EQ(map.ids().pages.live(), 0u);
  (void)orphans_seen;
}

// ---------------------------------------------------------------------
// Id lifetime
// ---------------------------------------------------------------------

TEST(QiUrlMapIdTest, TextIsFreedWithTheLastReferenceAndSlotsAreReclaimed) {
  QiUrlMap map;
  IdInterner& ids = map.ids();
  map.Add("q1", "p1", "/r", 1);
  map.Add("q1", "p2", "/r", 1);
  QueryId q1 = *ids.queries.Find("q1");
  EXPECT_EQ(ids.queries.live(), 1u);
  EXPECT_EQ(ids.pages.live(), 2u);
  map.RemovePage("p1");
  EXPECT_EQ(ids.pages.live(), 1u);  // p1's text is gone; q1 keeps p2.
  EXPECT_FALSE(ids.pages.Find("p1").has_value());
  map.RemovePage("p2");
  {
    // The orphan feed still names q1: its text stays readable.
    QiUrlMap::Orphans orphans = map.TakeOrphans();
    ASSERT_EQ(orphans.queries, std::vector<QueryId>{q1});
    ids.Reclaim();
    map.Add("q2", "p3", "/r", 2);
    EXPECT_NE(*ids.queries.Find("q2"), q1);  // Not rebound while named.
    EXPECT_EQ(orphans.Texts(), std::vector<std::string>{"q1"});
  }
  // The last reference went with `orphans`.
  EXPECT_FALSE(ids.queries.Find("q1").has_value());
  EXPECT_EQ(ids.queries.live(), 1u);

  // Churn through many distinct texts: with the cycle's Reclaim between
  // rounds, the slot tables follow the live ids, not the ids ever seen.
  size_t query_slots = ids.queries.capacity();
  size_t page_slots = ids.pages.capacity();
  for (int i = 0; i < 1000; ++i) {
    std::string page = StrCat("churn-", i);
    map.Add(StrCat("SELECT ", i), page, "/r", 3);
    map.RemovePage(page);
    map.TakeOrphans();
    ids.Reclaim();
  }
  EXPECT_LE(ids.queries.capacity(), query_slots + 1);
  EXPECT_LE(ids.pages.capacity(), page_slots + 1);
  EXPECT_EQ(ids.queries.live(), 1u);
  EXPECT_EQ(ids.pages.live(), 1u);
}

// ---------------------------------------------------------------------
// Request-to-query mapper
// ---------------------------------------------------------------------

TEST(MapperTest, JoinsOnTimeIntervals) {
  RequestLog requests;
  QueryLog queries;
  QiUrlMap map;
  RequestToQueryMapper mapper(&requests, &queries, &map);

  // Request A [100, 200] issues q1 [120, 140].
  uint64_t a = requests.Open("s", "/a", "", "", "pageA", 100);
  queries.Append("q1", true, 120, 140);
  requests.Close(a, 200);

  // Request B [300, 400] issues q2 [310, 390].
  uint64_t b = requests.Open("s", "/b", "", "", "pageB", 300);
  queries.Append("q2", true, 310, 390);
  requests.Close(b, 400);

  EXPECT_EQ(mapper.Run(), 2u);
  EXPECT_EQ(map.PagesForQuery("q1"), std::vector<std::string>{"pageA"});
  EXPECT_EQ(map.PagesForQuery("q2"), std::vector<std::string>{"pageB"});
}

TEST(MapperTest, OverlappingRequestsShareQueries) {
  RequestLog requests;
  QueryLog queries;
  QiUrlMap map;
  RequestToQueryMapper mapper(&requests, &queries, &map);

  uint64_t a = requests.Open("s", "/a", "", "", "pageA", 100);
  uint64_t b = requests.Open("s", "/b", "", "", "pageB", 110);
  queries.Append("q", true, 120, 130);
  requests.Close(a, 200);
  requests.Close(b, 210);

  // The time-interval join attributes q to both (conservative).
  EXPECT_EQ(mapper.Run(), 2u);
  EXPECT_EQ(map.PagesForQuery("q").size(), 2u);
}

TEST(MapperTest, QueriesOutsideIntervalExcluded) {
  RequestLog requests;
  QueryLog queries;
  QiUrlMap map;
  RequestToQueryMapper mapper(&requests, &queries, &map);

  uint64_t a = requests.Open("s", "/a", "", "", "pageA", 100);
  queries.Append("before", true, 50, 90);
  queries.Append("late_delivery", true, 150, 250);  // Ends after request.
  requests.Close(a, 200);

  EXPECT_EQ(mapper.Run(), 0u);
}

TEST(MapperTest, NonSelectsIgnored) {
  RequestLog requests;
  QueryLog queries;
  QiUrlMap map;
  RequestToQueryMapper mapper(&requests, &queries, &map);
  uint64_t a = requests.Open("s", "/a", "", "", "pageA", 100);
  queries.Append("INSERT ...", false, 120, 130);
  requests.Close(a, 200);
  EXPECT_EQ(mapper.Run(), 0u);
}

TEST(MapperTest, IncompleteRequestsDeferred) {
  RequestLog requests;
  QueryLog queries;
  QiUrlMap map;
  RequestToQueryMapper mapper(&requests, &queries, &map);

  uint64_t a = requests.Open("s", "/a", "", "", "pageA", 100);
  queries.Append("q", true, 120, 130);
  EXPECT_EQ(mapper.Run(), 0u);  // Still in flight.
  requests.Close(a, 200);
  EXPECT_EQ(mapper.Run(), 1u);  // Picked up on the next run.
  EXPECT_EQ(mapper.Run(), 0u);  // Idempotent.
  EXPECT_EQ(mapper.requests_processed(), 1u);
}

TEST(MapperTest, LaterRequestCompletingFirstIsMappedOnce) {
  RequestLog requests;
  QueryLog queries;
  QiUrlMap map;
  RequestToQueryMapper mapper(&requests, &queries, &map);

  // A [100, 400] is still in flight when B [200, 300] completes.
  uint64_t a = requests.Open("s", "/a", "", "", "pageA", 100);
  uint64_t b = requests.Open("s", "/b", "", "", "pageB", 200);
  queries.Append("qa", true, 110, 120);
  queries.Append("qb", true, 210, 220);
  requests.Close(b, 300);
  EXPECT_EQ(mapper.Run(), 1u);
  EXPECT_EQ(mapper.requests_processed(), 1u);
  EXPECT_EQ(map.PagesForQuery("qb"), std::vector<std::string>{"pageB"});

  // A completes: it maps both queries inside its interval; B is not
  // processed again.
  requests.Close(a, 400);
  EXPECT_EQ(mapper.Run(), 2u);
  EXPECT_EQ(mapper.requests_processed(), 2u);
  EXPECT_EQ(map.PagesForQuery("qa"), std::vector<std::string>{"pageA"});
  EXPECT_EQ(map.PagesForQuery("qb"),
            (std::vector<std::string>{"pageA", "pageB"}));
  EXPECT_EQ(mapper.Run(), 0u);
  EXPECT_EQ(mapper.requests_processed(), 2u);
}

TEST(MapperTest, InFlightRequestIsPickedUpAfterLaterOnes) {
  RequestLog requests;
  QueryLog queries;
  QiUrlMap map;
  RequestToQueryMapper mapper(&requests, &queries, &map);

  uint64_t a = requests.Open("s", "/a", "", "", "pageA", 100);
  queries.Append("qa", true, 110, 120);
  uint64_t b = requests.Open("s", "/b", "", "", "pageB", 500);
  queries.Append("qb", true, 510, 520);
  requests.Close(b, 600);
  uint64_t c = requests.Open("s", "/c", "", "", "pageC", 700);
  queries.Append("qc", true, 710, 720);
  requests.Close(c, 800);
  EXPECT_EQ(mapper.Run(), 2u);  // B and C; A is in flight.
  EXPECT_EQ(mapper.requests_processed(), 2u);

  // More traffic behind the stuck request, then it completes.
  uint64_t d = requests.Open("s", "/d", "", "", "pageD", 900);
  queries.Append("qd", true, 910, 920);
  requests.Close(d, 1000);
  EXPECT_EQ(mapper.Run(), 1u);  // D only.
  EXPECT_EQ(mapper.requests_processed(), 3u);
  requests.Close(a, 1100);
  // A's interval now covers every query so far; each pair is new.
  EXPECT_EQ(mapper.Run(), 4u);
  EXPECT_EQ(mapper.requests_processed(), 4u);
  EXPECT_EQ(map.PagesForQuery("qa"), std::vector<std::string>{"pageA"});
  EXPECT_EQ(map.PagesForQuery("qd"),
            (std::vector<std::string>{"pageA", "pageD"}));
}

TEST(MapperTest, RepeatedRunsWithNothingNewAddNothing) {
  RequestLog requests;
  QueryLog queries;
  QiUrlMap map;
  RequestToQueryMapper mapper(&requests, &queries, &map);
  EXPECT_EQ(mapper.Run(), 0u);
  EXPECT_EQ(mapper.requests_processed(), 0u);
  for (int i = 0; i < 5; ++i) {
    Micros t = 1000 * (i + 1);
    uint64_t id = requests.Open("s", "/p", "", "", "page" + std::to_string(i),
                                t);
    queries.Append("q" + std::to_string(i), true, t + 10, t + 20);
    requests.Close(id, t + 100);
  }
  EXPECT_EQ(mapper.Run(), 5u);
  EXPECT_EQ(mapper.requests_processed(), 5u);
  size_t rows = map.size();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(mapper.Run(), 0u);
    EXPECT_EQ(mapper.requests_processed(), 5u);
    EXPECT_EQ(map.size(), rows);
  }
}

}  // namespace
}  // namespace cacheportal::sniffer
