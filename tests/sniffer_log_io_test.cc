#include <gtest/gtest.h>

#include "sniffer/log_io.h"

#include "sniffer/mapper.h"

namespace cacheportal::sniffer {
namespace {

TEST(LogFieldEscapeTest, RoundTripsControlCharacters) {
  for (const std::string original :
       {std::string("plain"), std::string("with\ttab"),
        std::string("with\nnewline"), std::string("100%"),
        std::string("%09 literal"), std::string("\t\n\r%"),
        std::string("")}) {
    EXPECT_EQ(UnescapeLogField(EscapeLogField(original)), original);
  }
}

TEST(LogFieldEscapeTest, EscapedFormHasNoSeparators) {
  std::string escaped = EscapeLogField("a\tb\nc");
  EXPECT_EQ(escaped.find('\t'), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
}

TEST(RequestLogIoTest, RoundTrip) {
  RequestLog log;
  uint64_t a = log.Open("cars", "/cars?model=A", "session=s1", "qty=2",
                        "shop/cars?model=A##", 100);
  log.Close(a, 250);
  log.Open("weird\tname", "/p?x=a b", "", "", "key\nwith newline", 300);

  std::string text = SerializeRequestLog(log.entries());
  auto parsed = ParseRequestLog(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].id, 1u);
  EXPECT_EQ((*parsed)[0].servlet_name, "cars");
  EXPECT_EQ((*parsed)[0].page_key, "shop/cars?model=A##");
  EXPECT_EQ((*parsed)[0].receive_time, 100);
  EXPECT_EQ((*parsed)[0].delivery_time, 250);
  EXPECT_TRUE((*parsed)[0].completed());
  EXPECT_EQ((*parsed)[1].servlet_name, "weird\tname");
  EXPECT_EQ((*parsed)[1].page_key, "key\nwith newline");
  EXPECT_FALSE((*parsed)[1].completed());
}

TEST(QueryLogIoTest, RoundTrip) {
  QueryLog log;
  log.Append("SELECT * FROM Car WHERE maker = 'O''Brien'", true, 10, 20);
  log.Append("DELETE FROM Car\nWHERE price > 100", false, 30, 35);

  std::string text = SerializeQueryLog(log.entries());
  auto parsed = ParseQueryLog(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].sql, "SELECT * FROM Car WHERE maker = 'O''Brien'");
  EXPECT_TRUE((*parsed)[0].is_select);
  EXPECT_EQ((*parsed)[1].sql, "DELETE FROM Car\nWHERE price > 100");
  EXPECT_FALSE((*parsed)[1].is_select);
  EXPECT_EQ((*parsed)[1].receive_time, 30);
}

TEST(LogIoTest, EmptyLogsSerializeToEmpty) {
  EXPECT_EQ(SerializeRequestLog({}), "");
  EXPECT_EQ(SerializeQueryLog({}), "");
  EXPECT_TRUE(ParseRequestLog("")->empty());
  EXPECT_TRUE(ParseQueryLog("")->empty());
}

TEST(LogIoTest, MalformedLinesRejected) {
  EXPECT_FALSE(ParseRequestLog("garbage line").ok());
  EXPECT_FALSE(ParseRequestLog("Q\t1\tS\t1\t2\tsql").ok());  // Wrong tag.
  EXPECT_FALSE(ParseQueryLog("Q\t1\tX\t1\t2\tsql").ok());    // Bad kind.
  EXPECT_FALSE(ParseQueryLog("Q\t1\tS\t1").ok());            // Short.
}

TEST(LogIoTest, ShippedLogsDriveTheMapper) {
  // The deployment flow of Figure 7: logs produced on the server side,
  // shipped as text, re-materialized on the invalidator machine, joined.
  RequestLog server_requests;
  QueryLog server_queries;
  uint64_t id = server_requests.Open("s", "/p", "", "", "page-key", 100);
  server_queries.Append("SELECT * FROM T", true, 120, 150);
  server_requests.Close(id, 200);

  std::string shipped_requests =
      SerializeRequestLog(server_requests.entries());
  std::string shipped_queries = SerializeQueryLog(server_queries.entries());

  // Invalidator side.
  auto remote_requests = ParseRequestLog(shipped_requests);
  auto remote_queries = ParseQueryLog(shipped_queries);
  ASSERT_TRUE(remote_requests.ok());
  ASSERT_TRUE(remote_queries.ok());

  RequestLog rebuilt_requests;
  for (const RequestLogEntry& e : *remote_requests) {
    uint64_t nid = rebuilt_requests.Open(e.servlet_name, e.request_string,
                                         e.cookie_string, e.post_string,
                                         e.page_key, e.receive_time);
    if (e.completed()) rebuilt_requests.Close(nid, e.delivery_time);
  }
  QueryLog rebuilt_queries;
  for (const QueryLogEntry& e : *remote_queries) {
    rebuilt_queries.Append(e.sql, e.is_select, e.receive_time,
                           e.delivery_time);
  }

  QiUrlMap map;
  RequestToQueryMapper mapper(&rebuilt_requests, &rebuilt_queries, &map);
  EXPECT_EQ(mapper.Run(), 1u);
  EXPECT_EQ(map.PagesForQuery("SELECT * FROM T"),
            std::vector<std::string>{"page-key"});
}

TEST(QiUrlMapIoTest, SerializeDeserializeRoundTrip) {
  QiUrlMap map;
  map.Add("SELECT * FROM Car WHERE maker = 'O''Brien'",
          "shop/cars?maker=O%27Brien##", "/cars", 100);
  map.Add("SELECT 1", "shop/one?##", "/one", 200);
  map.Add("SELECT 1", "shop/two?##", "/two", 300);

  auto restored = QiUrlMap::Deserialize(map.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->size(), 3u);
  EXPECT_EQ(restored->NumQueries(), 2u);
  EXPECT_EQ(restored->NumPages(), 3u);
  EXPECT_EQ(restored->PagesForQuery("SELECT 1").size(), 2u);
  EXPECT_EQ(
      restored->QueriesForPage("shop/cars?maker=O%27Brien##").size(), 1u);
}

TEST(QiUrlMapIoTest, EmptyAndMalformed) {
  QiUrlMap empty;
  EXPECT_EQ(empty.Serialize(), "");
  EXPECT_TRUE(QiUrlMap::Deserialize("")->size() == 0);
  EXPECT_FALSE(QiUrlMap::Deserialize("garbage").ok());
  EXPECT_FALSE(QiUrlMap::Deserialize("M\t1\tq").ok());
}

/// Regression: Deserialize used to re-assign row IDs densely from 1,
/// silently shifting every row under a consumer's ReadSince cursor — the
/// cursor could then replay rows it had already consumed or, worse, skip
/// rows it had never seen. IDs (and the ID counter) must restore
/// verbatim.
TEST(QiUrlMapIoTest, DeserializePreservesRowIdsAndCursors) {
  QiUrlMap map;
  map.Add("SELECT 1", "page-1", "/r", 100);  // id 1.
  map.Add("SELECT 2", "page-2", "/r", 200);  // id 2.
  map.Add("SELECT 3", "page-3", "/r", 300);  // id 3.
  // Remove the middle row: the surviving IDs {1, 3} are now sparse, the
  // exact shape dense re-numbering destroyed.
  ASSERT_EQ(map.RemovePage("page-2"), 1u);

  // A consumer consumed everything up to id 1; its cursor is 1.
  const uint64_t cursor = 1;
  ASSERT_EQ(map.ReadSince(cursor).size(), 1u);

  auto restored = QiUrlMap::Deserialize(map.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  // The old cursor is still exact against the restored map: the consumed
  // row stays below it (no replay), the unconsumed row above it (no
  // skip).
  std::vector<QiUrlEntry> pending = restored->ReadSince(cursor);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, 3u);
  EXPECT_EQ(pending[0].query_sql, "SELECT 3");
  EXPECT_EQ(restored->LastId(), map.LastId());

  // The ID counter restored too: a new row extends the sequence instead
  // of colliding with (or shadowing) a consumed ID.
  uint64_t next = restored->Add("SELECT 4", "page-4", "/r", 400).id;
  EXPECT_EQ(next, 4u);
  EXPECT_EQ(restored->ReadSince(3).size(), 1u);
}

TEST(QiUrlMapIoTest, DeserializeRejectsBadAndDuplicateIds) {
  // A zero ID would hide under every cursor; duplicate IDs (or duplicate
  // (query, page) pairs under different IDs) corrupt the scan order.
  EXPECT_FALSE(QiUrlMap::Deserialize("M\t0\tq\tp\tr\t10\n").ok());
  EXPECT_FALSE(QiUrlMap::Deserialize("M\tabc\tq\tp\tr\t10\n").ok());
  EXPECT_FALSE(
      QiUrlMap::Deserialize(
          "M\t1\tq\tp\tr\t10\nM\t1\tq2\tp2\tr\t20\n")
          .ok());
  EXPECT_FALSE(
      QiUrlMap::Deserialize(
          "M\t1\tq\tp\tr\t10\nM\t2\tq\tp\tr\t20\n")
          .ok());
}

TEST(QiUrlMapTest, EpochCountsRowSetMutationsOnly) {
  QiUrlMap map;
  uint64_t e0 = map.epoch();
  map.Add("SELECT 1", "p1", "/r", 100);
  EXPECT_GT(map.epoch(), e0);  // New row.
  uint64_t e1 = map.epoch();
  map.Add("SELECT 1", "p1", "/r", 999);  // Dedup: timestamp refresh only.
  EXPECT_EQ(map.epoch(), e1);
  EXPECT_EQ(map.RemovePage("absent"), 0u);  // No row removed.
  EXPECT_EQ(map.epoch(), e1);
  EXPECT_EQ(map.RemovePage("p1"), 1u);
  EXPECT_GT(map.epoch(), e1);
}

}  // namespace
}  // namespace cacheportal::sniffer
