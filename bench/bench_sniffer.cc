// Sniffer overhead benchmark, backing the paper's claim (Section 2.4)
// that the sniffer is never the bottleneck: per-request logging and
// request-to-query mapping cost versus the cost of actually generating a
// page (executing its query). Also scales the mapper over growing logs,
// and the QI/URL map's refresh and eject paths over growing maps.

#include <benchmark/benchmark.h>

#include "common/clock.h"
#include "common/strings.h"
#include "db/database.h"
#include "sniffer/mapper.h"
#include "sniffer/qiurl_map.h"
#include "sniffer/request_logger.h"

namespace {

using namespace cacheportal;

/// Per-request cost of the request logger (open + close + key narrowing).
void BM_RequestLogging(benchmark::State& state) {
  ManualClock clock;
  sniffer::RequestLog log;
  sniffer::RequestLogger logger(&log, &clock);
  server::ServletConfig config;
  config.name = "cars";
  config.key_get_params = {"model"};
  logger.RegisterServlet(config);
  auto req =
      http::HttpRequest::Get("http://shop/cars?model=Avalon&session=xyz");
  http::HttpResponse resp = http::HttpResponse::Ok("page");
  for (auto _ : state) {
    uint64_t token = logger.BeforeService("cars", *req);
    clock.Advance(10);
    logger.AfterService(token, "cars", *req, &resp);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestLogging);

/// Page generation cost for comparison: one indexed select on a table of
/// state.range(0) rows.
void BM_PageGeneration(benchmark::State& state) {
  db::Database db;
  db.CreateTable(db::TableSchema("Car", {{"model", db::ColumnType::kString},
                                         {"price", db::ColumnType::kInt}}))
      .ok();
  for (int i = 0; i < state.range(0); ++i) {
    db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('m", i, "', ", i * 7, ")"))
        .value();
  }
  for (auto _ : state) {
    auto result = db.ExecuteSql("SELECT * FROM Car WHERE price < 5000");
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageGeneration)->Arg(500)->Arg(2500);

/// Mapper throughput: N completed requests each with one query.
void BM_MapperRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sniffer::RequestLog requests;
    sniffer::QueryLog queries;
    sniffer::QiUrlMap map;
    sniffer::RequestToQueryMapper mapper(&requests, &queries, &map);
    for (int i = 0; i < n; ++i) {
      Micros t = i * 100;
      uint64_t id = requests.Open("s", StrCat("/p", i), "", "",
                                  StrCat("page", i), t);
      queries.Append(StrCat("SELECT * FROM T WHERE x = ", i), true, t + 10,
                     t + 40);
      requests.Close(id, t + 60);
    }
    state.ResumeTiming();
    size_t added = mapper.Run();
    benchmark::DoNotOptimize(added);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MapperRun)->Arg(100)->Arg(1000)->Arg(10000);

/// QI/URL map insertion with dedup.
void BM_QiUrlMapAdd(benchmark::State& state) {
  sniffer::QiUrlMap map;
  int i = 0;
  for (auto _ : state) {
    map.Add(StrCat("SELECT * FROM T WHERE x = ", i % 1000),
            StrCat("page", i % 1000), "/r", i);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QiUrlMapAdd);

/// perfbench many_pages' shapes: one light page per group, built from one
/// single-table query.
std::string GroupSql(int group) {
  return StrCat("SELECT id, grp, val FROM SmallT WHERE grp = ", group);
}
std::string GroupPage(int group) {
  return StrCat("site/light?grp=", group, "##");
}

/// A map holding `rows` (query, page) rows, one per group.
void FillMap(sniffer::QiUrlMap* map, int rows) {
  for (int g = 0; g < rows; ++g) map->Add(GroupSql(g), GroupPage(g), "/r", 0);
}

/// The mapper's steady state on many_pages: a sync's 100 missed
/// requests rebuild pages whose (query, page) rows the map already holds,
/// so every Add is a timestamp refresh, against maps of 10^3..10^5 rows.
/// BM_MapperRun only ever maps into an empty map.
void BM_MapperRefreshVsMapSize(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  constexpr int kRequests = 100;
  sniffer::QiUrlMap map;
  FillMap(&map, rows);
  Micros t = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sniffer::RequestLog requests;
    sniffer::QueryLog queries;
    sniffer::RequestToQueryMapper mapper(&requests, &queries, &map);
    for (int i = 0; i < kRequests; ++i) {
      int group = static_cast<int>((t / 100 * 7919) % rows);
      uint64_t id =
          requests.Open("light", "/light", "", "", GroupPage(group), t);
      queries.Append(GroupSql(group), true, t + 10, t + 40);
      requests.Close(id, t + 60);
      t += 100;
    }
    state.ResumeTiming();
    size_t added = mapper.Run();
    benchmark::DoNotOptimize(added);
  }
  state.SetItemsProcessed(state.iterations() * kRequests);
  state.counters["rows"] = static_cast<double>(map.size());
}
BENCHMARK(BM_MapperRefreshVsMapSize)
    ->RangeMultiplier(10)
    ->Range(1000, 100000)
    ->ArgName("rows")
    ->Unit(benchmark::kMicrosecond);

/// Delivery's RemovePage plus the orphan feed drain, 100 pages per
/// iteration out of a map of 10^3..10^5 rows; the pages come back
/// untimed so the map keeps its size.
void BM_QiUrlMapRemovePageVsMapSize(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  constexpr int kPages = 100;
  sniffer::QiUrlMap map;
  FillMap(&map, rows);
  int next = 0;
  for (auto _ : state) {
    for (int k = 0; k < kPages; ++k) {
      map.RemovePage(GroupPage((next + k) % rows));
    }
    benchmark::DoNotOptimize(map.TakeOrphans());
    state.PauseTiming();
    for (int k = 0; k < kPages; ++k) {
      int group = (next + k) % rows;
      map.Add(GroupSql(group), GroupPage(group), "/r", 0);
    }
    next = (next + kPages) % rows;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kPages);
}
BENCHMARK(BM_QiUrlMapRemovePageVsMapSize)
    ->RangeMultiplier(10)
    ->Range(1000, 100000)
    ->ArgName("rows")
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
