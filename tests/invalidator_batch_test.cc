// Columnar batch impact analysis: ProbeBatch against a brute-force 3VL
// oracle, the NaN bind-index regression, the differential sweep against
// pinned outputs and the re-executing baseline, and consolidated-poll
// accounting across chunk sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "db/database.h"
#include "invalidator/baseline.h"
#include "invalidator/bind_index.h"
#include "invalidator/invalidator.h"
#include "invalidator/registry.h"
#include "invalidator/type_matcher.h"
#include "pinned_run.h"
#include "server/jdbc.h"
#include "sniffer/qiurl_map.h"
#include "sql/column_batch.h"
#include "sql/eval.h"
#include "sql/template.h"

namespace cacheportal::invalidator {
namespace {

using sql::Value;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

class RecordingSink : public InvalidationSink {
 public:
  Status SendInvalidation(const http::HttpRequest&,
                          const std::string& cache_key) override {
    invalidated.insert(cache_key);
    return Status::OK();
  }
  std::set<std::string> invalidated;
};

/// A polling target whose every query fails, for exercising the
/// conservative degradation path.
class FailingConnection : public server::Connection {
 public:
  Result<db::QueryResult> ExecuteQuery(const std::string&) override {
    return Status::Internal("injected poll failure");
  }
  Result<int64_t> ExecuteUpdate(const std::string&) override {
    return Status::Internal("injected poll failure");
  }
};

// ---------------------------------------------------------------------------
// ProbeBatch vs a brute-force oracle: for every row and instance, the
// instance's bound anchor conjunct is evaluated on the row's cell under
// 3VL. The probe must keep every (row, instance) pair the conjunct does
// not make definitely FALSE (soundness), and keep exactly those pairs
// wherever neither the cell nor a bind is NULL, boolean or NaN — for
// every anchor relation, on both the kernel path (few index entries) and
// the sorted-merge path (many entries), across the full value zoo:
// NULL, booleans, strings, duplicates, ±inf, -0.0, and NaN.
// ---------------------------------------------------------------------------

/// Compiles `sql` as the template of a fresh query type against `db`.
TypeMatcher CompileType(const db::Database& db, uint64_t type_id,
                        const std::string& sql, QueryType* type) {
  type->type_id = type_id;
  type->name = StrCat("type", type_id);
  type->tmpl = sql::ExtractTemplateFromSql(sql).value();
  return TypeMatcher::Compile(*type, db);
}

/// An instance of a hand-compiled type. AddInstance reads only the IDs
/// and the bindings, so no parsed statement is needed — and bindings can
/// hold values SQL text cannot spell (NaN, ±inf, -0.0).
QueryInstance MakeInstance(uint64_t instance_id, uint64_t type_id,
                           std::vector<Value> bindings) {
  QueryInstance instance;
  instance.instance_id = instance_id;
  instance.type_id = type_id;
  instance.sql = StrCat("instance-", instance_id);
  instance.bindings = std::move(bindings);
  return instance;
}

Value RandomValue(Random& rng) {
  switch (rng.Uniform(12)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng.OneIn(0.5));
    case 2:
    case 3:
      return Value::String(StrCat("s", rng.Uniform(5)));
    case 4:
      return Value::Double(kInf);
    case 5:
      return Value::Double(-kInf);
    case 6:
      return Value::Double(kNaN);
    case 7:
      return Value::Double(-0.0);
    case 8:
      return Value::Double(static_cast<double>(rng.Uniform(8)) - 3.5);
    default:
      return Value::Int(static_cast<int64_t>(rng.Uniform(8)) - 4);
  }
}

/// Resolves every column reference to one cell (the templates below read
/// only the anchored column).
class CellResolver : public sql::ColumnResolver {
 public:
  explicit CellResolver(const Value& cell) : cell_(cell) {}
  std::optional<Value> Resolve(const std::string&,
                               const std::string&) const override {
    return cell_;
  }

 private:
  const Value& cell_;
};

/// A value the index decides exactly: not NULL, boolean or NaN.
bool Decidable(const Value& v) {
  return !v.is_null() && !v.is_bool() &&
         !(v.is_numeric() && std::isnan(v.NumericAsDouble()));
}

/// True when `rows` ascends strictly (sorted, no duplicates).
bool AscendingUnique(const std::vector<uint32_t>& rows) {
  return std::adjacent_find(rows.begin(), rows.end(),
                            std::greater_equal<uint32_t>()) == rows.end();
}

TEST(ProbeBatchPropertyTest, AgreesWithThreeValuedEvaluationOfTheAnchor) {
  const struct {
    const char* sql;
    size_t operands;
  } kCases[] = {
      {"SELECT * FROM T WHERE c = 1", 1},
      {"SELECT * FROM T WHERE c < 1", 1},
      {"SELECT * FROM T WHERE c <= 1", 1},
      {"SELECT * FROM T WHERE c > 1", 1},
      {"SELECT * FROM T WHERE c >= 1", 1},
      {"SELECT * FROM T WHERE c BETWEEN 1 AND 2", 2},
      {"SELECT * FROM T WHERE c IN (1, 2, 3)", 3},
  };
  /// One instance: its id, bindings, and bound statement, whose WHERE is
  /// exactly the anchor conjunct.
  struct Bound {
    uint64_t id = 0;
    std::vector<Value> bindings;
    std::unique_ptr<sql::SelectStatement> statement;
  };
  struct Case {
    uint64_t type_id = 0;
    TypeMatcher matcher;
    std::vector<Bound> instances;
  };
  uint64_t decided_pairs = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(StrCat("seed=", seed));
    Random rng(seed);
    ManualClock clock;
    db::Database db(&clock);
    ASSERT_TRUE(
        db.CreateTable(db::TableSchema("T", {{"c", db::ColumnType::kInt},
                                             {"pad", db::ColumnType::kString}}))
            .ok());

    BindIndex index;
    std::vector<Case> cases;
    uint64_t next_instance = 1;
    for (const auto& c : kCases) {
      QueryType type;
      const uint64_t type_id = cases.size() + 1;
      Case entry{type_id, CompileType(db, type_id, c.sql, &type), {}};
      ASSERT_TRUE(entry.matcher.handled()) << c.sql;
      // 3 entries stays on the per-entry kernel path, 12 crosses the
      // sorted-merge threshold.
      size_t count = rng.OneIn(0.5) ? 3 : 12;
      for (size_t i = 0; i < count; ++i) {
        Bound bound;
        bound.id = next_instance++;
        for (size_t k = 0; k < c.operands; ++k) {
          bound.bindings.push_back(RandomValue(rng));
        }
        bound.statement =
            sql::InstantiateTemplate(type.tmpl, bound.bindings).value();
        ASSERT_NE(bound.statement->where, nullptr);
        index.AddInstance(entry.matcher,
                          MakeInstance(bound.id, type_id, bound.bindings));
        entry.instances.push_back(std::move(bound));
      }
      cases.push_back(std::move(entry));
    }

    size_t num_rows = 1 + rng.Uniform(60);
    std::vector<db::Row> rows;
    rows.reserve(num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      rows.push_back({RandomValue(rng), Value::String("pad")});
    }
    std::vector<const db::Row*> row_ptrs;
    for (const db::Row& row : rows) row_ptrs.push_back(&row);
    sql::ColumnBatch batch = sql::ColumnBatch::FromRows(row_ptrs);

    for (const Case& entry : cases) {
      SCOPED_TRACE(StrCat("type=", entry.type_id));
      const CompiledAnchor* anchor = entry.matcher.AnchorFor("t");
      ASSERT_NE(anchor, nullptr);

      BindIndex::BatchProbe got;
      MatcherStats stats;
      index.ProbeBatch(entry.type_id, *anchor,
                       batch.Column(anchor->column_index), &got, &stats);
      EXPECT_TRUE(AscendingUnique(got.all_rows));
      const std::set<uint32_t> all(got.all_rows.begin(), got.all_rows.end());

      for (const Bound& bound : entry.instances) {
        std::set<uint32_t> own;
        auto own_it = got.per_id.find(bound.id);
        if (own_it != got.per_id.end()) {
          EXPECT_FALSE(own_it->second.empty()) << "instance " << bound.id;
          EXPECT_TRUE(AscendingUnique(own_it->second));
          own.insert(own_it->second.begin(), own_it->second.end());
        }
        const bool binds_decidable = std::all_of(
            bound.bindings.begin(), bound.bindings.end(), Decidable);
        for (uint32_t ti = 0; ti < rows.size(); ++ti) {
          const Value& cell = rows[ti][anchor->column_index];
          Result<std::optional<bool>> verdict = sql::EvalPredicate(
              *bound.statement->where, CellResolver(cell));
          const bool maybe_true =
              !verdict.ok() || !verdict->has_value() || **verdict;
          const bool candidate = all.contains(ti) || own.contains(ti);
          if (maybe_true) {
            EXPECT_TRUE(candidate)
                << "unsound exclusion: instance " << bound.id << " row "
                << ti << " cell " << cell.ToSqlLiteral();
          }
          if (binds_decidable && Decidable(cell)) {
            ++decided_pairs;
            EXPECT_EQ(candidate, maybe_true)
                << "instance " << bound.id << " row " << ti << " cell "
                << cell.ToSqlLiteral();
          }
        }
      }
    }
  }
  EXPECT_GT(decided_pairs, 0u);
}

// ---------------------------------------------------------------------------
// Non-finite bind regression (the std::map strict-weak-ordering bug): a
// NaN bind value must never become a sorted-map or hash key — it routes
// to the always-candidate lists — and a NaN tuple value probes as "all
// candidates". ±inf keys order and hash fine and index normally.
// ---------------------------------------------------------------------------

class NaNBindTest : public ::testing::Test {
 protected:
  NaNBindTest() : db_(&clock_) {}
  void SetUp() override {
    ASSERT_TRUE(
        db_.CreateTable(db::TableSchema("T", {{"c", db::ColumnType::kInt}}))
            .ok());
  }

  /// Probes a one-row batch holding `tuple`.
  BindIndex::BatchProbe ProbeRow(const BindIndex& index, uint64_t type_id,
                                 const CompiledAnchor& anchor,
                                 const Value& tuple) {
    const db::Row row = {tuple};
    sql::ColumnBatch batch = sql::ColumnBatch::FromRows({&row});
    BindIndex::BatchProbe probe;
    index.ProbeBatch(type_id, anchor, batch.Column(anchor.column_index),
                     &probe, nullptr);
    return probe;
  }

  /// The candidate ids for a one-row batch holding `tuple`, ascending.
  std::vector<uint64_t> ProbeIds(const BindIndex& index, uint64_t type_id,
                                 const CompiledAnchor& anchor,
                                 const Value& tuple) {
    BindIndex::BatchProbe probe = ProbeRow(index, type_id, anchor, tuple);
    EXPECT_TRUE(probe.all_rows.empty());
    std::vector<uint64_t> ids;
    for (const auto& [id, rows] : probe.per_id) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  ManualClock clock_;
  db::Database db_;
};

TEST_F(NaNBindTest, RangeNaNBindIsAlwaysCandidateAndMapStaysOrdered) {
  QueryType type;
  TypeMatcher matcher = CompileType(db_, 1, "SELECT * FROM T WHERE c < 10",
                                    &type);
  ASSERT_TRUE(matcher.handled());
  const CompiledAnchor& anchor = *matcher.AnchorFor("t");

  BindIndex index;
  // Interleave the NaN bind between ordinary keys: before the fix it
  // landed inside range_num and silently broke the map's ordering.
  index.AddInstance(matcher, MakeInstance(1, 1, {Value::Int(10)}));
  index.AddInstance(matcher, MakeInstance(2, 1, {Value::Double(kNaN)}));
  index.AddInstance(matcher, MakeInstance(3, 1, {Value::Int(20)}));
  index.AddInstance(matcher, MakeInstance(4, 1, {Value::Int(30)}));
  index.AddInstance(matcher, MakeInstance(5, 1, {Value::Double(kInf)}));

  // c < bind survives for binds > 15: instances 3, 4, the +inf bind 5 —
  // and the NaN bind 2, which no comparison can definitely exclude.
  EXPECT_EQ(ProbeIds(index, 1, anchor, Value::Int(15)),
            (std::vector<uint64_t>{2, 3, 4, 5}));
  // Far right of every finite key: only +inf and NaN remain.
  EXPECT_EQ(ProbeIds(index, 1, anchor, Value::Int(1000)),
            (std::vector<uint64_t>{2, 5}));
  // A NaN TUPLE value is unordered against every key: all candidates.
  EXPECT_EQ(ProbeRow(index, 1, anchor, Value::Double(kNaN)).all_rows,
            (std::vector<uint32_t>{0}));

  // The always-routing must be fully removable (postings recorded).
  index.RemoveInstance(2);
  EXPECT_FALSE(index.ContainsInstance(2));
  EXPECT_EQ(ProbeIds(index, 1, anchor, Value::Int(1000)),
            (std::vector<uint64_t>{5}));
}

TEST_F(NaNBindTest, EqInAndBetweenNaNBindsRouteToAlwaysLists) {
  BindIndex index;
  QueryType eq_type, in_type, between_type;
  TypeMatcher eq = CompileType(db_, 1, "SELECT * FROM T WHERE c = 1",
                               &eq_type);
  TypeMatcher in = CompileType(db_, 2, "SELECT * FROM T WHERE c IN (1, 2)",
                               &in_type);
  TypeMatcher between = CompileType(
      db_, 3, "SELECT * FROM T WHERE c BETWEEN 1 AND 2", &between_type);
  ASSERT_TRUE(eq.handled() && in.handled() && between.handled());

  index.AddInstance(eq, MakeInstance(1, 1, {Value::Double(kNaN)}));
  index.AddInstance(eq, MakeInstance(2, 1, {Value::Int(7)}));
  // A NaN IN item taints the whole list (Value::Compare folds NaN
  // "equal" to every numeric, so no miss is definite).
  index.AddInstance(in, MakeInstance(3, 2,
                                     {Value::Int(1), Value::Double(kNaN)}));
  index.AddInstance(in, MakeInstance(4, 2, {Value::Int(1), Value::Int(2)}));
  // One NaN BETWEEN bound de-indexes the pair.
  index.AddInstance(between,
                    MakeInstance(5, 3, {Value::Double(kNaN), Value::Int(9)}));
  index.AddInstance(between,
                    MakeInstance(6, 3, {Value::Int(1), Value::Int(9)}));

  const CompiledAnchor& eq_anchor = *eq.AnchorFor("t");
  const CompiledAnchor& in_anchor = *in.AnchorFor("t");
  const CompiledAnchor& between_anchor = *between.AnchorFor("t");

  // Equality: tuple 8 misses bind 7 but can never exclude the NaN bind.
  EXPECT_EQ(ProbeIds(index, 1, eq_anchor, Value::Int(8)),
            (std::vector<uint64_t>{1}));
  // For STRING tuples every numeric-bind instance is an always
  // candidate (cross-class comparisons fold NULL), and the NaN bind
  // sits on both always lists — so both survive.
  EXPECT_EQ(ProbeIds(index, 1, eq_anchor, Value::String("x")),
            (std::vector<uint64_t>{1, 2}));
  // IN: tuple 5 is in neither list, but the NaN-tainted member stays.
  EXPECT_EQ(ProbeIds(index, 2, in_anchor, Value::Int(5)),
            (std::vector<uint64_t>{3}));
  // BETWEEN: tuple 20 is outside [1, 9]; the NaN-bounded pair stays.
  EXPECT_EQ(ProbeIds(index, 3, between_anchor, Value::Int(20)),
            (std::vector<uint64_t>{5}));
}

// Ints beyond ±2^53 compare exactly against each other but widen to tied
// keys: 2^53 < 2^53 + 1 is TRUE, and both keys are 2^53. Such binds and
// tuple values must never be excluded through the key.
TEST_F(NaNBindTest, IntsBeyondTwoTo53AreNeverExcludedThroughTiedKeys) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  QueryType lt_type, gt_type;
  TypeMatcher lt = CompileType(db_, 1, "SELECT * FROM T WHERE c < 1",
                               &lt_type);
  TypeMatcher gt = CompileType(db_, 2, "SELECT * FROM T WHERE c > 1",
                               &gt_type);
  BindIndex index;
  index.AddInstance(lt, MakeInstance(1, 1, {Value::Int(kTwo53 + 1)}));
  index.AddInstance(lt, MakeInstance(2, 1, {Value::Int(5)}));
  index.AddInstance(gt, MakeInstance(3, 2, {Value::Int(kTwo53)}));

  // 2^53 < 2^53 + 1: the lossy bind is an always candidate.
  EXPECT_EQ(ProbeIds(index, 1, *lt.AnchorFor("t"), Value::Int(kTwo53)),
            (std::vector<uint64_t>{1}));
  // 2^53 + 1 > 2^53: the lossy tuple value reaches every instance.
  BindIndex::BatchProbe probe =
      ProbeRow(index, 2, *gt.AnchorFor("t"), Value::Int(kTwo53 + 1));
  EXPECT_EQ(probe.all_rows, std::vector<uint32_t>{0});
  // Doubles and ints within ±2^53 keep exact keys and stay indexed.
  EXPECT_TRUE(ProbeIds(index, 2, *gt.AnchorFor("t"),
                       Value::Double(9007199254740992.0))
                  .empty());
}

// ---------------------------------------------------------------------------
// Differential sweep: the columnar pipeline must produce byte-identical
// ejected pages, cycle summaries, and StatsReport() at every worker
// count, equal to the outputs pinned below
// (pinned_run.h), and eject a superset of what the re-executing
// BaselineInvalidator finds stale in every round.
// ---------------------------------------------------------------------------

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

struct MatrixResult {
  std::vector<std::set<std::string>> cycle_invalidated;
  std::vector<std::string> cycle_reports;
  std::vector<std::set<int>> changed;  // Per round: pages whose query
                                       // result the round's updates changed.
  std::string stats_report;
};

MatrixResult RunBatchScenario(uint64_t seed, size_t workers) {
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
  options.max_polls_per_cycle = 3;  // Budget pressure: condemnations.
  options.polling_cache_capacity = 8;
  Invalidator inv(&db, &map, &clock, options);
  EXPECT_TRUE(inv.CreateJoinIndex("Mileage", "model").ok());
  RecordingSink sink;
  inv.AddSink(&sink);

  // Twelve instances of the maker-equality type push its bucket past
  // the kernel/merge threshold; the other shapes cover interval, IN,
  // BETWEEN, join, and a type the compiler cannot anchor (stays on the
  // interpreted path alongside the batched types).
  std::vector<std::string> sqls;
  for (int i = 0; i < 12; ++i) {
    sqls.push_back(StrCat("SELECT * FROM Car WHERE maker = '",
                          makers[rng.Uniform(4)], "'"));
  }
  for (int i = 0; i < 4; ++i) {
    sqls.push_back(StrCat("SELECT * FROM Car WHERE price < ",
                          4000 + rng.Uniform(26000)));
    sqls.push_back(StrCat("SELECT * FROM Car WHERE price BETWEEN ",
                          2000 + rng.Uniform(8000), " AND ",
                          15000 + rng.Uniform(15000)));
    sqls.push_back(StrCat("SELECT * FROM Car WHERE model IN ('",
                          models[rng.Uniform(4)], "', '",
                          models[rng.Uniform(4)], "')"));
    sqls.push_back(
        StrCat("SELECT Car.model FROM Car, Mileage WHERE Car.model = "
               "Mileage.model AND Car.price < ",
               6000 + rng.Uniform(20000)));
    sqls.push_back(
        StrCat("SELECT * FROM Mileage WHERE EPA > ", 18 + rng.Uniform(14)));
  }
  // De-duplicate: identical SQL re-registers the same instance.
  std::sort(sqls.begin(), sqls.end());
  sqls.erase(std::unique(sqls.begin(), sqls.end()), sqls.end());

  auto recache = [&map, &sqls]() {
    for (size_t i = 0; i < sqls.size(); ++i) {
      map.Add(sqls[i], StrCat("shop/p", i, "?##"), "/r", 0);
    }
  };
  recache();
  inv.RunCycle().value();  // Register the pages; the log is quiet.
  BaselineInvalidator baseline(&db, &map);

  MatrixResult result;
  for (int round = 0; round < 6; ++round) {
    // Let the baseline snapshot the (re-)cached instances BEFORE the
    // updates, so its diff covers exactly this round's changes.
    baseline.RunCycle().value();
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
    BaselineInvalidator::CycleResult truth = baseline.RunCycle().value();
    sink.invalidated.clear();
    CycleReport report = inv.RunCycle().value();
    for (const std::string& page : truth.stale_pages) {
      EXPECT_TRUE(sink.invalidated.contains(page))
          << "round " << round << ": STALE RETENTION of '" << page << "'";
    }
    result.cycle_invalidated.push_back(sink.invalidated);
    result.cycle_reports.push_back(ReportKey(report));
    result.changed.push_back(ChangedPages(before, ResultTexts(db, sqls)));
    recache();
    inv.RunCycle().value();  // Consume the re-cached pages.
  }
  result.stats_report = inv.StatsReport();
  return result;
}

// The per-tuple probe path's outputs, seeds 1-11, at workers=1: per-round ejects and ReportKey()s. Re-recorded when
// delta-join decomposition replaced the multi-table guard; the ejects
// that dropped out are kept below.
const PinnedRun kScalarRuns[] = {
    {1,
     {{1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19, 20, 21, 22},
      {16, 17, 18, 19, 20, 21, 22},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 19, 20, 21, 22},
      {}, {}, {0, 3, 4, 7, 8, 9, 10, 12, 13, 14, 15, 22}},
     {"3/0/23/19/0/4/0/19/normal", "1/0/23/7/3/0/1/7/normal",
      "13/0/23/20/0/4/0/20/normal", "0/0/0/0/0/0/0/0/normal",
      "0/0/0/0/0/0/0/0/normal", "2/0/23/12/0/1/0/12/normal"},
     0x31bb4f4a5dc1e7f7},
    {2,
     {{0, 2, 3, 4, 5, 6, 7, 12, 13, 22, 23}, {}, {16, 23},
      {2, 4, 7, 8, 9, 10, 11, 16, 17, 18, 19, 20, 21, 22, 23},
      {3, 6, 7, 8, 9, 10, 11, 16, 17, 18, 19, 20, 21, 22, 23},
      {0, 1, 4, 5, 6, 7, 12, 13, 14, 22, 23}},
     {"7/0/24/11/0/2/0/11/normal", "0/0/0/0/0/0/0/0/normal",
      "1/0/24/2/3/0/1/2/normal", "3/0/24/15/3/4/1/15/normal",
      "2/0/24/15/3/4/1/15/normal", "3/0/24/11/0/2/0/11/normal"},
     0x71a63c3d54bffca0},
    {3,
     {{1, 8, 9, 10, 11, 12, 20, 21, 22, 23}, {16, 17, 18, 19, 20, 21, 22, 23},
      {1, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 21, 22, 23},
      {0, 4, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 18, 20, 21, 22, 23},
      {0, 1, 3, 4, 5, 6, 10, 12}, {1, 4, 6, 7, 10, 12, 15, 20, 21, 22, 23}},
     {"1/0/24/10/0/4/0/10/normal", "2/0/24/8/3/0/1/8/normal",
      "2/0/24/16/0/4/0/16/normal", "3/0/24/18/0/4/0/18/normal",
      "4/0/24/8/0/0/0/8/normal", "3/0/24/11/3/0/1/11/normal"},
     0x04290bcee6be674f},
    {4,
     {{16, 17, 18, 19, 20, 21, 22, 23},
      {0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 20, 21, 23},
      {16, 17, 18, 19, 20, 21, 22, 23}, {16, 17, 18, 20, 21, 22, 23},
      {0, 4, 7, 10, 12, 13, 15}, {1, 4, 7, 9, 10, 12, 13, 14, 15}},
     {"3/0/24/8/3/0/1/8/normal", "4/0/24/16/0/3/0/16/normal",
      "2/0/24/8/3/0/1/8/normal", "1/0/24/7/3/0/1/7/normal",
      "2/0/24/7/0/0/0/7/normal", "1/0/24/9/0/2/0/9/normal"},
     0xcc5858fae80d9a53},
    {5,
     {{15, 16, 17, 18, 19, 20, 21, 22}, {15, 16, 17, 18, 19, 20, 21, 22},
      {15, 16, 17, 18, 19, 20, 21, 22}, {15, 16, 17, 18, 19, 20, 21, 22},
      {2, 8, 9, 10, 11, 12, 13, 14, 20, 21}, {}},
     {"1/0/23/8/3/0/1/8/normal", "2/0/23/8/3/0/1/8/normal",
      "2/0/23/8/3/0/1/8/normal", "1/0/23/8/3/0/1/8/normal",
      "1/0/23/10/0/2/0/10/normal", "0/0/0/0/0/0/0/0/normal"},
     0x7a47c441c8577ce8},
    {6,
     {{0, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 20, 21, 22},
      {0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 14, 15}, {}, {},
      {1, 5, 6, 7, 8, 9, 10, 11, 16, 17, 18, 19, 20, 21, 22},
      {3, 4, 7, 9, 10, 12, 13, 14, 15}},
     {"2/0/23/14/0/4/0/14/normal", "8/0/23/13/0/0/0/13/normal",
      "0/0/0/0/0/0/0/0/normal", "0/0/0/0/0/0/0/0/normal",
      "5/0/23/15/0/4/0/15/normal", "2/0/23/9/0/2/0/9/normal"},
     0x55811dfccf64c184},
    {7,
     {{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 20, 21, 22, 23},
      {1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 20, 21, 22, 23},
      {0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 21, 22, 23},
      {3, 11, 12, 16, 17, 18, 20, 21, 22, 23},
      {2, 4, 8, 9, 10, 11, 12, 20, 21, 22, 23},
      {16, 17, 18, 19, 20, 21, 22, 23}},
     {"2/0/24/18/0/4/0/18/normal", "2/0/24/18/0/4/0/18/normal",
      "10/0/24/18/0/4/0/18/normal", "2/0/24/10/3/0/1/10/normal",
      "1/0/24/11/0/4/0/11/normal", "2/0/24/8/3/0/1/8/normal"},
     0x3177714ee715b364},
    {8,
     {{2, 4, 10, 13, 15, 16, 17, 18, 19, 20, 21, 22, 23},
      {3, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23},
      {3, 4, 5, 6, 7, 13, 15, 16, 17, 18, 22, 23}, {16, 17, 18, 22, 23}, {},
      {3, 5, 6, 7, 10, 12, 13, 15}},
     {"2/0/24/13/3/0/1/13/normal", "3/0/24/17/2/0/0/17/normal",
      "3/0/24/12/3/0/1/12/normal", "1/0/24/5/3/0/1/5/normal",
      "0/0/0/0/0/0/0/0/normal", "2/0/24/8/0/0/0/8/normal"},
     0x734e1e9ba29571bd},
    {9,
     {{16, 20, 21, 22, 23}, {0, 1, 2, 4, 5, 6, 7, 15, 16, 20, 21, 23},
      {0, 1, 2, 4, 5, 6, 7, 8, 10, 11, 12, 13, 15, 20, 21, 23}, {},
      {16, 17, 18, 19, 20, 21, 22, 23}, {16, 17, 18, 19, 20, 21, 22, 23}},
     {"1/0/24/5/3/0/1/5/normal", "6/0/24/12/3/0/1/12/normal",
      "3/0/24/16/0/3/0/16/normal", "0/0/0/0/0/0/0/0/normal",
      "1/0/24/8/3/0/1/8/normal", "1/0/24/8/3/0/1/8/normal"},
     0xd45110c40caf9ea8},
    {10,
     {{1, 3, 4, 5, 9, 10}, {}, {5, 9, 10},
      {2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21},
      {14, 15, 16, 17, 18, 19, 20, 21}, {14, 15, 16, 17, 18, 19, 20, 21}},
     {"1/0/22/6/0/0/0/6/normal", "0/0/0/0/0/0/0/0/normal",
      "1/0/22/3/0/0/0/3/normal", "2/0/22/20/0/4/0/20/normal",
      "1/0/22/8/3/0/1/8/normal", "4/0/22/8/3/0/1/8/normal"},
     0x0a43fc84d8e13014},
    {11,
     {{0, 1, 2, 3, 5, 6, 8, 11, 12, 20, 21, 22},
      {3, 7, 8, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20, 21, 22},
      {15, 16, 17, 18, 19, 20, 21, 22}, {15, 16, 17, 18, 19, 20, 21, 22},
      {15, 16, 17, 18, 19, 20, 21, 22}, {3, 8, 11, 12, 13, 14, 19, 20, 21, 22}},
     {"6/0/23/12/0/3/0/12/normal", "2/0/23/15/0/4/0/15/normal",
      "4/0/23/8/3/0/1/8/normal", "1/0/23/8/3/0/1/8/normal",
      "4/0/23/8/3/0/1/8/normal", "1/0/23/10/0/4/0/10/normal"},
     0xb80d455052ec081d},
};

// Ejects the literal above held before delta-join decomposition replaced
// the multi-table guard: two-table batches no longer eject these pages.
// Each was false, which the test proves by re-execution.
const std::vector<DroppedEjects> kGuardOnlyEjects = {
    {8, 2, {20, 21}}, {9, 1, {22}},
};

// Seed 1's full final StatsReport(), so a report mismatch is readable.
constexpr char kSeed1Report[] = R"(invalidator: cycles=13 updates=19 checks=92 affected=45 unaffected=34 polls=3 idx-answered=9 poll-hits=3 conservative=1 emergency-flushes=0 pages-invalidated=58 messages-sent=58 send-failures=0
  strategy: exact=5 compiled-batch=1 interpret=0 poll=0
  strategy-demotions: 'multi-table FROM'=1
  type 'discovered-5': instances=8 checks=12 affected=5 polls=0 inval-ratio=0.416667 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-2': instances=14 checks=16 affected=10 polls=0 inval-ratio=0.625 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-1': instances=11 checks=16 affected=7 polls=0 inval-ratio=0.4375 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-4': instances=16 checks=16 affected=12 polls=0 inval-ratio=0.75 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-3': instances=15 checks=16 affected=11 polls=0 inval-ratio=0.6875 avg-time-us=0 max-time-us=0 tier=exact
  type 'discovered-6': instances=17 checks=16 affected=9 polls=4 inval-ratio=0.5625 avg-time-us=0 max-time-us=0 tier=compiled-batch
)";

class BatchDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchDifferentialTest, ReproducesPinnedRunsAcrossTheMatrix) {
  const PinnedRun& pinned = kScalarRuns[GetParam() - 1];
  ASSERT_EQ(pinned.seed, GetParam());
  size_t total = 0;
  for (const auto& cycle : pinned.ejected) total += cycle.size();
  EXPECT_GT(total, 0u);

  for (size_t workers : {1u, 4u}) {
    SCOPED_TRACE(StrCat("workers=", workers));
    MatrixResult got = RunBatchScenario(GetParam(), workers);
    ExpectReproduces(pinned, got.cycle_invalidated, got.cycle_reports,
                     got.stats_report);
    ExpectDroppedEjectsWereFalse(pinned, kGuardOnlyEjects, got.changed);
    if (GetParam() == 1) {
      EXPECT_EQ(got.stats_report, kSeed1Report);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferentialTest,
                         ::testing::Range<uint64_t>(1, 12));

// ---------------------------------------------------------------------------
// Consolidated-poll accounting: polls_issued and the per-member failure
// degradation must be identical across every consolidated_poll_chunk
// value — including the last partial chunk, single-member buckets, and
// chunk=0 (unlimited) — with the serial (consolidation-off) path as the
// oracle. Asserted on the full StatsReport string.
// ---------------------------------------------------------------------------

struct ChunkResult {
  std::string stats_report;
  std::set<std::string> ejected;
};

ChunkResult RunChunkScenario(bool consolidate, size_t chunk, bool fail_polls) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  db.ExecuteSql("INSERT INTO Mileage VALUES ('Avalon', 25)").value();

  sniffer::QiUrlMap map;
  InvalidatorOptions options;
  options.consolidate_polls = consolidate;
  options.consolidated_poll_chunk = chunk;
  Invalidator inv(&db, &map, &clock, options);
  RecordingSink sink;
  inv.AddSink(&sink);
  FailingConnection failing;
  if (fail_polls) inv.SetPollingConnection(&failing);

  // A ten-member bucket (EPA thresholds straddling the lone row at 25:
  // hits for 30..100, misses for 10 and 20), plus a single-member bucket
  // of a second type, which must keep the exact per-query path.
  for (int t = 10; t <= 100; t += 10) {
    map.Add(StrCat("SELECT Car.model FROM Car, Mileage WHERE Car.model = "
                   "Mileage.model AND Mileage.EPA < ",
                   t),
            StrCat("shop/epa", t, "?##"), "/r", 0);
  }
  map.Add("SELECT Car.maker FROM Car, Mileage WHERE Car.model = "
          "Mileage.model AND Mileage.EPA > 99",
          "shop/single?##", "/r", 0);
  db.ExecuteSql("INSERT INTO Car VALUES ('Toyota', 'Avalon', 15000)").value();
  inv.RunCycle().value();

  ChunkResult result;
  result.stats_report = inv.StatsReport();
  result.ejected = sink.invalidated;
  return result;
}

TEST(PollAccountingTest, ChunkSizeNeverChangesStatsReportOrEjections) {
  for (bool fail_polls : {false, true}) {
    SCOPED_TRACE(StrCat("fail_polls=", fail_polls));
    ChunkResult oracle =
        RunChunkScenario(/*consolidate=*/false, 64, fail_polls);
    EXPECT_FALSE(oracle.ejected.empty());
    // chunk=1 (degenerate single-member statements), 2, 4 (last chunk
    // partial: 10 = 4+4+2), 10 (exact bucket size), 64 (one statement),
    // 0 (unlimited).
    for (size_t chunk : {1u, 2u, 4u, 10u, 64u, 0u}) {
      SCOPED_TRACE(StrCat("chunk=", chunk));
      ChunkResult got = RunChunkScenario(/*consolidate=*/true, chunk,
                                         fail_polls);
      EXPECT_EQ(got.stats_report, oracle.stats_report);
      EXPECT_EQ(got.ejected, oracle.ejected);
    }
  }
}

// ---------------------------------------------------------------------------
// Large-world smoke: a single-table equality world at smoke scale (see
// CACHEPORTAL_SMOKE_INSTANCES; the benchmark suite drives the same shape
// to 10^6) — with the exact tier off (analysis of the probed candidates)
// and on (row-image verdicts on the same candidates), the cycle must eject
// exactly the touched pages and produce identical summaries.
// ---------------------------------------------------------------------------

TEST(BatchSmokeTest, LargeEqualityWorldEjectsExactlyTheTouchedPages) {
  size_t instances = 20000;
  if (const char* env = std::getenv("CACHEPORTAL_SMOKE_INSTANCES")) {
    instances = static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  std::set<std::string> ejected[2];
  std::string reports[2];
  for (int pass = 0; pass < 2; ++pass) {
    const bool exact = pass == 1;
    SCOPED_TRACE(StrCat("exact_strategy=", exact));
    ManualClock clock;
    db::Database db(&clock);
    ASSERT_TRUE(
        db.CreateTable(db::TableSchema("Item", {{"k", db::ColumnType::kInt},
                                                {"v", db::ColumnType::kInt}}))
            .ok());
    sniffer::QiUrlMap map;
    InvalidatorOptions options;
    options.exact_strategy = exact;
    Invalidator inv(&db, &map, &clock, options);
    RecordingSink sink;
    inv.AddSink(&sink);
    for (size_t i = 0; i < instances; ++i) {
      map.Add(StrCat("SELECT * FROM Item WHERE k = ", i),
              StrCat("item/", i, "?##"), "/r", 0);
    }
    inv.RunCycle().value();
    // Touch a sample of keys spread across the world, plus misses.
    Random rng(7);
    std::set<std::string> expect;
    for (int u = 0; u < 32; ++u) {
      size_t k = rng.Uniform(instances + 100);  // Some beyond every key.
      db.ExecuteSql(StrCat("INSERT INTO Item VALUES (", k, ", 1)")).value();
      if (k < instances) expect.insert(StrCat("item/", k, "?##"));
    }
    CycleReport report = inv.RunCycle().value();
    EXPECT_EQ(sink.invalidated, expect);
    ejected[pass] = sink.invalidated;
    reports[pass] = ReportKey(report);
    EXPECT_GT(inv.matcher_stats().batch_probes, 0u);
    EXPECT_GT(inv.matcher_stats().fast_path_instances, 0u);
  }
  EXPECT_EQ(ejected[0], ejected[1]);
  EXPECT_EQ(reports[0], reports[1]);
}

}  // namespace
}  // namespace cacheportal::invalidator
