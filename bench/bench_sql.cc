// Microbenchmarks of the SQL substrate: lexing, parsing, canonical
// printing, query-type extraction (the sniffer/registration hot path),
// condition folding (the invalidator hot path), and the executor's
// access paths on PaperSite's statements.

#include <benchmark/benchmark.h>

#include "common/strings.h"
#include "db/database.h"
#include "sql/analyzer.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/template.h"

namespace {

using namespace cacheportal;

const char* kQueries[] = {
    "SELECT * FROM Car WHERE price < 20000",
    "SELECT Car.maker, Car.model, Car.price, Mileage.EPA FROM Car, Mileage "
    "WHERE Car.model = Mileage.model AND Car.price < 20000",
    "SELECT maker, COUNT(*) AS n FROM Car WHERE price BETWEEN 1000 AND "
    "30000 GROUP BY maker ORDER BY n DESC LIMIT 10",
    "SELECT * FROM Car WHERE maker IN ('Toyota', 'Honda', 'Ford') AND "
    "(price < 20000 OR model LIKE 'C%') AND model IS NOT NULL",
};

void BM_Lex(benchmark::State& state) {
  const std::string sql = kQueries[state.range(0)];
  for (auto _ : state) {
    auto tokens = sql::Lexer::Tokenize(sql);
    benchmark::DoNotOptimize(tokens);
  }
}
BENCHMARK(BM_Lex)->DenseRange(0, 3);

void BM_Parse(benchmark::State& state) {
  const std::string sql = kQueries[state.range(0)];
  for (auto _ : state) {
    auto stmt = sql::Parser::Parse(sql);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_Parse)->DenseRange(0, 3);

void BM_Print(benchmark::State& state) {
  auto stmt = sql::Parser::Parse(kQueries[state.range(0)]).value();
  for (auto _ : state) {
    std::string text = sql::StatementToSql(*stmt);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_Print)->DenseRange(0, 3);

void BM_ExtractTemplate(benchmark::State& state) {
  auto select = sql::Parser::ParseSelect(kQueries[state.range(0)]).value();
  for (auto _ : state) {
    auto tmpl = sql::ExtractTemplate(*select);
    benchmark::DoNotOptimize(tmpl);
  }
}
BENCHMARK(BM_ExtractTemplate)->DenseRange(0, 3);

void BM_SubstituteAndFold(benchmark::State& state) {
  auto select = sql::Parser::ParseSelect(kQueries[1]).value();
  auto substituter = [](const std::string& table, const std::string& column)
      -> std::optional<sql::Value> {
    if (table != "Car") return std::nullopt;
    if (column == "model") return sql::Value::String("Avalon");
    if (column == "price") return sql::Value::Int(15000);
    if (column == "maker") return sql::Value::String("Toyota");
    return std::nullopt;
  };
  for (auto _ : state) {
    auto substituted = sql::SubstituteColumns(*select->where, substituter);
    auto folded = sql::FoldConstants(*substituted);
    benchmark::DoNotOptimize(folded);
  }
}
BENCHMARK(BM_SubstituteAndFold);

/// PaperSite's tables (id, grp, val; `grp` indexed) at one site size.
struct Site {
  int groups;
  int small_rows;
  int large_rows;
};
constexpr Site kSites[] = {
    {100, 500, 2500},        // perfbench `browse` / `write_heavy`.
    {10000, 20000, 50000},   // perfbench `many_pages`.
};

/// The executor on the three statements that dominate perfbench's `db`
/// layer, each at both site sizes. Statements are parsed once, so the
/// time is the executor's:
///  - shape 0: the heavy page, `SmallT ⋈ LargeT` on `grp` for one group
///    (an index nested-loop join);
///  - shape 1: a consolidated poll, 64 disjuncts `(grp = g AND grp = Gi)`
///    over SmallT (an index union);
///  - shape 2: a delete by the unindexed `id` (a full scan by column slot;
///    the row is re-inserted untimed).
/// `rows-touched` is Table::rows_scanned() per iteration.
void BM_ExecutorAccessPaths(benchmark::State& state) {
  const int shape = static_cast<int>(state.range(0));
  const Site site = kSites[state.range(1)];
  db::Database db;
  for (const char* table : {"SmallT", "LargeT"}) {
    db.CreateTable(db::TableSchema(table, {{"id", db::ColumnType::kInt},
                                           {"grp", db::ColumnType::kInt},
                                           {"val", db::ColumnType::kInt}}))
        .ok();
    db.CreateIndex(table, "grp").ok();
  }
  for (int i = 0; i < site.small_rows; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO SmallT VALUES (", i, ", ",
                         i % site.groups, ", ", i, ")"))
        .value();
  }
  for (int i = 0; i < site.large_rows; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO LargeT VALUES (", i, ", ",
                         i % site.groups, ", ", i, ")"))
        .value();
  }
  const int g = site.groups / 2;
  std::string text;
  switch (shape) {
    case 0:
      text = StrCat(
          "SELECT COUNT(*) AS pairs, MAX(LargeT.val) AS best FROM SmallT, "
          "LargeT WHERE SmallT.grp = LargeT.grp AND SmallT.grp = ",
          g);
      break;
    case 1:
      text = "SELECT * FROM SmallT WHERE ";
      for (int i = 0; i < 64; ++i) {
        text += StrCat(i > 0 ? " OR " : "", "(SmallT.grp = ", g,
                       " AND SmallT.grp = ", (g + i) % site.groups, ")");
      }
      break;
    default:
      text = StrCat("DELETE FROM LargeT WHERE id = ", site.large_rows / 2);
      break;
  }
  sql::StatementPtr stmt = sql::Parser::Parse(text).value();
  const db::Table* touched = db.FindTable(shape == 1 ? "SmallT" : "LargeT");
  const uint64_t before = touched->rows_scanned();
  const std::string reinsert =
      StrCat("INSERT INTO LargeT VALUES (", site.large_rows / 2, ", ",
             (site.large_rows / 2) % site.groups, ", 0)");
  for (auto _ : state) {
    if (shape == 2) {
      auto n =
          db.ExecuteDelete(static_cast<const sql::DeleteStatement&>(*stmt));
      benchmark::DoNotOptimize(n);
      state.PauseTiming();
      db.ExecuteSql(reinsert).value();
      state.ResumeTiming();
    } else {
      auto result =
          db.ExecuteQuery(static_cast<const sql::SelectStatement&>(*stmt));
      benchmark::DoNotOptimize(result);
    }
  }
  state.counters["rows-touched"] = benchmark::Counter(
      static_cast<double>(touched->rows_scanned() - before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExecutorAccessPaths)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->ArgNames({"shape", "site"})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
