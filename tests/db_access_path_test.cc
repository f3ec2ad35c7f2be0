// The access-path chooser (db/access_path.h) against the full scan.
//
// The differential suite feeds one seeded statement stream into two
// databases, one with random indexes and one with none, and requires the
// same rows in the same order from every SELECT and the same table
// contents after every DELETE and UPDATE. Single-table SELECTs are also
// checked against a row-by-row evaluation that bypasses the executor.
// The path tests pin which rows each path touches through
// Table::rows_scanned().

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "common/strings.h"
#include "db/database.h"
#include "sql/analyzer.h"
#include "sql/eval.h"
#include "sql/parser.h"

namespace cacheportal::db {
namespace {

using sql::Value;

/// Type-tagged text of a value: tells 5 from 5.0, and renders NaN (which
/// operator== never calls equal to itself).
std::string Render(const Value& v) {
  return StrCat(static_cast<int>(v.type()), ":", v.ToSqlLiteral());
}

std::string Render(const Row& row) {
  std::string out;
  for (const Value& v : row) out += Render(v) + "|";
  return out;
}

std::vector<std::string> Render(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(Render(row));
  return out;
}

/// Every stored row with its RowId, in RowId order.
std::vector<std::string> Contents(const Database& db,
                                  const std::string& table) {
  std::vector<std::string> out;
  for (const auto& [id, row] : db.FindTable(table)->rows()) {
    out.push_back(StrCat(id, "=", Render(row)));
  }
  return out;
}

/// Parses `sql`, binds `$i` to `params[i-1]` everywhere, and runs it.
/// DML reports its affected count as the single result cell.
Result<QueryResult> RunBound(Database* db, const std::string& sql,
                             const std::vector<Value>& params) {
  CACHEPORTAL_ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                               sql::Parser::Parse(sql));
  auto bind = [&](sql::ExpressionPtr* expr) -> Status {
    if (*expr == nullptr) return Status::OK();
    CACHEPORTAL_ASSIGN_OR_RETURN(*expr, sql::BindParameters(**expr, params));
    return Status::OK();
  };
  auto affected = [](int64_t n) {
    QueryResult r;
    r.columns = {"affected"};
    r.rows = {{Value::Int(n)}};
    return r;
  };
  switch (stmt->kind()) {
    case sql::StatementKind::kSelect: {
      auto& select = static_cast<sql::SelectStatement&>(*stmt);
      CACHEPORTAL_RETURN_NOT_OK(bind(&select.where));
      return db->ExecuteQuery(select);
    }
    case sql::StatementKind::kInsert: {
      auto& insert = static_cast<sql::InsertStatement&>(*stmt);
      for (sql::ExpressionPtr& v : insert.values) {
        CACHEPORTAL_RETURN_NOT_OK(bind(&v));
      }
      CACHEPORTAL_ASSIGN_OR_RETURN(int64_t n, db->ExecuteInsert(insert));
      return affected(n);
    }
    case sql::StatementKind::kDelete: {
      auto& del = static_cast<sql::DeleteStatement&>(*stmt);
      CACHEPORTAL_RETURN_NOT_OK(bind(&del.where));
      CACHEPORTAL_ASSIGN_OR_RETURN(int64_t n, db->ExecuteDelete(del));
      return affected(n);
    }
    case sql::StatementKind::kUpdate: {
      auto& update = static_cast<sql::UpdateStatement&>(*stmt);
      CACHEPORTAL_RETURN_NOT_OK(bind(&update.where));
      for (auto& [column, expr] : update.assignments) {
        CACHEPORTAL_RETURN_NOT_OK(bind(&expr));
      }
      CACHEPORTAL_ASSIGN_OR_RETURN(int64_t n, db->ExecuteUpdate(update));
      return affected(n);
    }
    default:
      return db->ExecuteSql(sql);
  }
}

/// Resolves columns of one stored row, for the reference evaluation.
class RowResolver : public sql::ColumnResolver {
 public:
  RowResolver(const TableSchema& schema, const Row& row)
      : schema_(schema), row_(row) {}

  std::optional<Value> Resolve(const std::string& table,
                               const std::string& column) const override {
    if (!table.empty() && table != schema_.name()) return std::nullopt;
    std::optional<size_t> idx = schema_.ColumnIndex(column);
    if (!idx.has_value()) return std::nullopt;
    return row_[*idx];
  }

 private:
  const TableSchema& schema_;
  const Row& row_;
};

/// `SELECT * FROM t WHERE ...` decided row by row with sql::EvalPredicate,
/// independently of the executor: the rows, in RowId order, whose WHERE
/// is TRUE.
std::vector<Row> ReferenceSelect(const Database& db, const std::string& sql,
                                 const std::vector<Value>& params) {
  auto select = sql::Parser::ParseSelect(sql).value();
  const Table* table = db.FindTable(select->from[0].table);
  sql::ExpressionPtr where;
  if (select->where != nullptr) {
    where = sql::BindParameters(*select->where, params).value();
  }
  std::vector<Row> rows;
  for (const auto& [id, row] : table->rows()) {
    if (where != nullptr) {
      auto t = sql::EvalPredicate(*where, RowResolver(table->schema(), row));
      EXPECT_TRUE(t.ok()) << sql;
      if (!t.ok() || !t->has_value() || !**t) continue;
    }
    rows.push_back(row);
  }
  return rows;
}

// ---------------------------------------------------------------------
// Differential suite
// ---------------------------------------------------------------------

const char* const kTables[] = {"T1", "T2", "T3"};
const char* const kColumns[] = {"id", "a", "b", "s"};  // INT, INT, DOUBLE, TEXT

/// One seeded stream of statements with bound values.
class StatementGen {
 public:
  explicit StatementGen(uint64_t seed) : rng_(seed) {}

  struct Statement {
    std::string sql;
    std::vector<Value> params;
  };

  Statement Next(int step) {
    Statement st;
    params_ = &st.params;
    int roll = Pick(100);
    if (step < 30 || roll < 35) {
      std::string t = kTables[Pick(3)];
      st.sql = StrCat("INSERT INTO ", t, " VALUES (", Param(Value::Int(step)),
                      ", ", Param(CellFor(1)), ", ", Param(CellFor(2)), ", ",
                      Param(CellFor(3)), ")");
    } else if (roll < 45) {
      std::string t = kTables[Pick(3)];
      st.sql = StrCat("DELETE FROM ", t, " WHERE ", Predicate(t));
    } else if (roll < 57) {
      std::string t = kTables[Pick(3)];
      int col = 1 + Pick(3);
      st.sql = StrCat("UPDATE ", t, " SET ", kColumns[col], " = ",
                      Param(CellFor(col)));
      if (Pick(4) != 0) st.sql += StrCat(" WHERE ", Predicate(t));
    } else if (roll < 75) {
      std::string t = kTables[Pick(3)];
      st.sql = StrCat("SELECT * FROM ", t);
      if (Pick(8) != 0) st.sql += StrCat(" WHERE ", Predicate(t));
    } else if (roll < 90) {
      st.sql = Join(2);
    } else {
      st.sql = Join(3);
    }
    return st;
  }

 private:
  int Pick(int n) { return static_cast<int>(rng_() % n); }

  std::string Param(Value v) {
    params_->push_back(std::move(v));
    return StrCat("$", params_->size());
  }

  /// A storable value for column `col` (1: INT, 2: DOUBLE, 3: TEXT).
  Value CellFor(int col) {
    if (Pick(8) == 0) return Value::Null();
    switch (col) {
      case 1:
        return Value::Int(Pick(4));
      case 2: {
        static const double kDoubles[] = {
            0.0, -0.0, 1.0, 2.0, 2.5, std::numeric_limits<double>::quiet_NaN()};
        if (Pick(3) == 0) return Value::Int(Pick(4));
        return Value::Double(kDoubles[Pick(6)]);
      }
      default:
        return Value::String(std::string(1, static_cast<char>('x' + Pick(3))));
    }
  }

  /// A comparand of any type.
  Value Probe() {
    switch (Pick(10)) {
      case 0:
        return Value::Null();
      case 1:
        return Value::Double(std::numeric_limits<double>::quiet_NaN());
      case 2:
        return Value::Double(-0.0);
      case 3:
        return Value::Double(2.0);
      case 4:
        return Value::Double(2.5);
      case 5:
        return Value::String(Pick(2) == 0 ? "x" : "y");
      default:
        return Value::Int(Pick(4));
    }
  }

  std::string Column(const std::string& t, int col) {
    return StrCat(t, ".", kColumns[col]);
  }

  /// An equality the index can serve: `col = v` or `col IN (...)`.
  std::string Equality(const std::string& t) {
    std::string c = Column(t, Pick(4));
    if (Pick(3) == 0) {
      return StrCat(c, " IN (", Param(Probe()), ", ", Param(Probe()), ", ",
                    Param(Probe()), ")");
    }
    return StrCat(c, " = ", Param(Probe()));
  }

  /// A comparison no index serves.
  std::string Unindexable(const std::string& t) {
    static const char* const kOps[] = {"<", "<=", ">", ">=", "<>"};
    switch (Pick(3)) {
      case 0:
        return StrCat(Column(t, Pick(4)), " ", kOps[Pick(5)], " ",
                      Param(Probe()));
      case 1:
        return StrCat(Column(t, Pick(4)), " IS NULL");
      default:
        // Arithmetic on the numeric columns only (strings would error).
        return StrCat(Column(t, 1 + Pick(2)), " + 0 = ", Param(Probe()));
    }
  }

  std::string Predicate(const std::string& t) {
    switch (Pick(6)) {
      case 0:
        return Equality(t);
      case 1:
        return StrCat(Equality(t), " AND ", Unindexable(t));
      case 2: {
        // Every disjunct carries an indexable equality: an index union.
        std::string out =
            StrCat("(", Equality(t), " AND ", Unindexable(t), ")");
        for (int n = 1 + Pick(3); n > 0; --n) {
          out += StrCat(" OR ", Pick(2) == 0 ? Equality(t)
                                             : StrCat("(", Unindexable(t),
                                                      " AND ", Equality(t),
                                                      ")"));
        }
        return out;
      }
      case 3:
        // One disjunct no index serves: must scan.
        return StrCat("(", Equality(t), " OR ", Unindexable(t), ")");
      case 4:
        return Unindexable(t);
      default:
        return StrCat(Unindexable(t), " AND ", Equality(t));
    }
  }

  /// A 2- or 3-table join with equi-join terms over any of the id/a/b
  /// columns (so INT = DOUBLE keys occur) and optional filters.
  std::string Join(int n) {
    static const char* const kAlias[] = {"X", "Y", "Z"};
    std::string from;
    std::vector<std::string> where;
    for (int i = 0; i < n; ++i) {
      from += StrCat(i > 0 ? ", " : "", kTables[Pick(3)], " ", kAlias[i]);
      if (i > 0) {
        int other = Pick(i);
        if (Pick(6) == 0) {
          // No equi-join term: a nested loop.
          where.push_back(StrCat(Column(kAlias[other], 1), " < ",
                                 Column(kAlias[i], 1)));
        } else {
          where.push_back(StrCat(Column(kAlias[other], Pick(3)), " = ",
                                 Column(kAlias[i], Pick(3))));
        }
      }
      if (Pick(3) == 0) where.push_back(Predicate(kAlias[i]));
    }
    std::string items;
    if (Pick(4) == 0) {
      items = StrCat("COUNT(*) AS n, MAX(", kAlias[n - 1], ".b) AS m");
    } else {
      for (int i = 0; i < n; ++i) {
        items += StrCat(i > 0 ? ", " : "", kAlias[i], ".id, ", kAlias[i], ".b");
      }
    }
    std::string sql = StrCat("SELECT ", items, " FROM ", from);
    for (size_t i = 0; i < where.size(); ++i) {
      sql += StrCat(i == 0 ? " WHERE " : " AND ", where[i]);
    }
    return sql;
  }

  std::mt19937_64 rng_;
  std::vector<Value>* params_ = nullptr;
};

Status CreateTables(Database* db) {
  for (const char* t : kTables) {
    CACHEPORTAL_RETURN_NOT_OK(db->CreateTable(
        TableSchema(t, {{"id", ColumnType::kInt},
                        {"a", ColumnType::kInt},
                        {"b", ColumnType::kDouble},
                        {"s", ColumnType::kString}})));
  }
  return Status::OK();
}

class AccessPathDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AccessPathDifferentialTest, IndexedMatchesScanInOrder) {
  const uint64_t seed = GetParam();
  std::mt19937_64 pick(seed * 7919);
  Database indexed, plain;
  ASSERT_TRUE(CreateTables(&indexed).ok());
  ASSERT_TRUE(CreateTables(&plain).ok());
  // Half the chosen indexes exist from the start; the rest are built over
  // populated tables.
  std::vector<std::pair<std::string, std::string>> late;
  for (const char* t : kTables) {
    for (const char* c : kColumns) {
      if (pick() % 2 == 0) continue;
      if (pick() % 2 == 0) {
        ASSERT_TRUE(indexed.CreateIndex(t, c).ok());
      } else {
        late.emplace_back(t, c);
      }
    }
  }

  StatementGen gen(seed);
  size_t selects = 0, nonempty = 0;
  for (int step = 0; step < 1500; ++step) {
    if (step == 60) {
      for (const auto& [t, c] : late) {
        ASSERT_TRUE(indexed.CreateIndex(t, c).ok());
      }
    }
    StatementGen::Statement st = gen.Next(step);
    SCOPED_TRACE(StrCat("seed ", seed, " step ", step, ": ", st.sql));
    Result<QueryResult> a = RunBound(&indexed, st.sql, st.params);
    Result<QueryResult> b = RunBound(&plain, st.sql, st.params);
    ASSERT_EQ(a.ok(), b.ok()) << (a.ok() ? b : a).status().ToString();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_EQ(Render(a->rows), Render(b->rows));
    if (st.sql.starts_with("SELECT * FROM")) {
      // Single-table selects also meet a reference that bypasses the
      // executor, so a defect both databases share shows too.
      EXPECT_EQ(Render(a->rows),
                Render(ReferenceSelect(plain, st.sql, st.params)));
    }
    if (st.sql.starts_with("SELECT")) {
      ++selects;
      if (!a->rows.empty()) ++nonempty;
    } else {
      for (const char* t : kTables) {
        ASSERT_EQ(Contents(indexed, t), Contents(plain, t)) << t;
      }
    }
  }
  // The stream must exercise the paths, not return empty sets throughout.
  EXPECT_GT(selects, 500u);
  EXPECT_GT(nonempty, selects / 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccessPathDifferentialTest,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------
// Numeric keys and row order (regressions)
// ---------------------------------------------------------------------

class AccessPathTest : public ::testing::Test {
 protected:
  QueryResult Exec(const std::string& sql) {
    auto result = db_.ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  Result<QueryResult> Query(const std::string& sql,
                            const std::vector<Value>& params) {
    return RunBound(&db_, sql, params);
  }

  uint64_t Scanned(const std::string& table) {
    return db_.FindTable(table)->rows_scanned();
  }

  Database db_;
};

TEST_F(AccessPathTest, IndexedDoubleColumnEqualsIntLiteral) {
  Exec("CREATE TABLE T (id INT, price DOUBLE)");
  Exec("INSERT INTO T VALUES (1, 5.0)");
  Exec("INSERT INTO T VALUES (2, 5.5)");
  EXPECT_EQ(Exec("SELECT id FROM T WHERE price = 5").rows.size(), 1u);
  Exec("CREATE INDEX ON T (price)");
  QueryResult r = Exec("SELECT id FROM T WHERE price = 5");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Int(1));
  EXPECT_EQ(Exec("SELECT id FROM T WHERE price = 5.5").rows.size(), 1u);
  EXPECT_EQ(Exec("DELETE FROM T WHERE price = 5").rows[0][0], Value::Int(1));
}

TEST_F(AccessPathTest, IntColumnJoinsDoubleColumn) {
  Exec("CREATE TABLE A (id INT, k INT)");
  Exec("CREATE TABLE B (id INT, k DOUBLE)");
  Exec("INSERT INTO A VALUES (1, 5)");
  Exec("INSERT INTO B VALUES (10, 5.0)");
  // Hash join, and the nested loop the arithmetic forces.
  EXPECT_EQ(Exec("SELECT * FROM A, B WHERE A.k = B.k").rows.size(), 1u);
  EXPECT_EQ(Exec("SELECT * FROM A, B WHERE A.k + 0 = B.k").rows.size(), 1u);
  // Index nested-loop join (one outer row, two inner rows).
  Exec("INSERT INTO B VALUES (11, 6.0)");
  Exec("CREATE INDEX ON B (k)");
  EXPECT_EQ(Exec("SELECT * FROM A, B WHERE A.k = B.k").rows.size(), 1u);
}

TEST_F(AccessPathTest, NaNCellsAndProbesAnswerLikeTheScan) {
  // Value::Compare calls NaN equal to every number, so the scan's `=`
  // matches a NaN cell against any numeric probe.
  Exec("CREATE TABLE T (id INT, b DOUBLE)");
  ASSERT_TRUE(Query("INSERT INTO T VALUES (1, $1)",
                    {Value::Double(std::nan(""))})
                  .ok());
  Exec("INSERT INTO T VALUES (2, 3.0)");
  Exec("INSERT INTO T VALUES (3, 4)");
  auto count = [&](const Value& probe) {
    auto r = Query("SELECT id FROM T WHERE b = $1", {probe});
    EXPECT_TRUE(r.ok());
    return r.ok() ? r->rows.size() : 0;
  };
  const Value nan = Value::Double(std::nan(""));
  size_t scan_three = count(Value::Int(3));
  size_t scan_nan = count(nan);
  Exec("CREATE INDEX ON T (b)");
  EXPECT_EQ(count(Value::Int(3)), scan_three);
  EXPECT_EQ(scan_three, 2u);  // The NaN cell and 3.0.
  uint64_t before = Scanned("T");
  EXPECT_EQ(count(nan), scan_nan);
  EXPECT_EQ(Scanned("T") - before, 3u);  // A NaN probe scans.
}

/// The order fixture: A(1,k=5), A(2,k=6); B rows 10..15 whose k
/// alternates 5 and 6.
class JoinOrderTest : public AccessPathTest {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE A (id INT, k INT)");
    Exec("CREATE TABLE B (id INT, k INT)");
    Exec("INSERT INTO A VALUES (1, 5)");
    Exec("INSERT INTO A VALUES (2, 6)");
    for (int id = 10; id <= 15; ++id) {
      Exec(StrCat("INSERT INTO B VALUES (", id, ", ", id % 2 == 0 ? 5 : 6,
                  ")"));
    }
  }

  std::vector<std::pair<int64_t, int64_t>> Pairs(const std::string& where) {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (const Row& row :
         Exec(StrCat("SELECT A.id, B.id FROM A, B WHERE ", where)).rows) {
      out.emplace_back(row[0].AsInt(), row[1].AsInt());
    }
    return out;
  }

  const std::vector<std::pair<int64_t, int64_t>> kNestedLoopOrder = {
      {1, 10}, {1, 12}, {1, 14}, {2, 11}, {2, 13}, {2, 15}};
};

TEST_F(JoinOrderTest, EveryPathEmitsNestedLoopOrder) {
  EXPECT_EQ(Pairs("A.k + 0 = B.k"), kNestedLoopOrder);  // Nested loop.
  EXPECT_EQ(Pairs("A.k = B.k"), kNestedLoopOrder);      // Hash join.
  Exec("CREATE INDEX ON B (k)");
  uint64_t before = Scanned("B");
  EXPECT_EQ(Pairs("A.k = B.k"), kNestedLoopOrder);  // Index nested loop.
  EXPECT_EQ(Scanned("B") - before, 6u);             // Matched rows only.
}

// ---------------------------------------------------------------------
// Rows touched per path
// ---------------------------------------------------------------------

/// PaperSite's tables at browse sizes: 100 groups, 500 / 2,500 rows.
class PathCostTest : public AccessPathTest {
 protected:
  void SetUp() override {
    for (const char* t : {"SmallT", "LargeT"}) {
      Exec(StrCat("CREATE TABLE ", t, " (id INT, grp INT, val INT)"));
      Exec(StrCat("CREATE INDEX ON ", t, " (grp)"));
    }
    for (int i = 0; i < 500; ++i) {
      Exec(StrCat("INSERT INTO SmallT VALUES (", i, ", ", i % 100, ", ", i,
                  ")"));
    }
    for (int i = 0; i < 2500; ++i) {
      Exec(StrCat("INSERT INTO LargeT VALUES (", i, ", ", i % 100, ", ", i,
                  ")"));
    }
  }
};

TEST_F(PathCostTest, IndexSeekTouchesTheBucket) {
  uint64_t before = Scanned("LargeT");
  EXPECT_EQ(Exec("SELECT id FROM LargeT WHERE grp = 7").rows.size(), 25u);
  EXPECT_EQ(Scanned("LargeT") - before, 25u);
}

TEST_F(PathCostTest, IndexUnionTouchesTheBuckets) {
  uint64_t before = Scanned("SmallT");
  EXPECT_EQ(Exec("SELECT id FROM SmallT WHERE grp IN (1, 2, 3)").rows.size(),
            15u);
  EXPECT_EQ(Scanned("SmallT") - before, 15u);
  // The consolidated poll's shape: every disjunct carries an equality.
  std::string poll = "SELECT * FROM SmallT WHERE ";
  for (int g = 0; g < 64; ++g) {
    poll += StrCat(g > 0 ? " OR " : "", "(SmallT.grp = 9 AND SmallT.grp = ", g,
                   ")");
  }
  before = Scanned("SmallT");
  EXPECT_EQ(Exec(poll).rows.size(), 5u);
  EXPECT_LE(Scanned("SmallT") - before, 5u);
}

TEST_F(PathCostTest, UnindexableDisjunctScans) {
  uint64_t before = Scanned("SmallT");
  EXPECT_EQ(
      Exec("SELECT id FROM SmallT WHERE grp = 1 OR val < 3").rows.size(), 7u);
  EXPECT_EQ(Scanned("SmallT") - before, 500u);
}

TEST_F(PathCostTest, HeavyJoinTouchesOuterAndMatchedRowsOnly) {
  uint64_t small = Scanned("SmallT"), large = Scanned("LargeT");
  QueryResult r = Exec(
      "SELECT COUNT(*) AS pairs, MAX(LargeT.val) AS best FROM SmallT, "
      "LargeT WHERE SmallT.grp = LargeT.grp AND SmallT.grp = 42");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Int(5 * 25));
  EXPECT_EQ(r.rows[0][1], Value::Int(2442));
  const uint64_t outer = 5, matched = 25;
  EXPECT_EQ(Scanned("SmallT") - small, outer);
  // One probe per outer row, each touching its group's 25 rows.
  EXPECT_LE(Scanned("LargeT") - large, outer * matched);
}

TEST_F(PathCostTest, HashJoinWithoutInnerIndexScansInnerOnce) {
  Exec("CREATE TABLE G (grp INT)");
  Exec("INSERT INTO G VALUES (3)");
  uint64_t before = Scanned("SmallT");
  // SmallT.val carries no index: the inner side is scanned once.
  EXPECT_EQ(Exec("SELECT SmallT.id FROM G, SmallT WHERE G.grp = SmallT.val")
                .rows.size(),
            1u);
  EXPECT_EQ(Scanned("SmallT") - before, 500u);
}

TEST_F(PathCostTest, DmlWhereUsesTheChooser) {
  uint64_t before = Scanned("LargeT");
  EXPECT_EQ(Exec("DELETE FROM LargeT WHERE grp = 5").rows[0][0],
            Value::Int(25));
  EXPECT_EQ(Scanned("LargeT") - before, 25u);
  before = Scanned("LargeT");
  EXPECT_EQ(Exec("UPDATE LargeT SET grp = 5 WHERE grp = 6").rows[0][0],
            Value::Int(25));
  EXPECT_EQ(Scanned("LargeT") - before, 25u);
  EXPECT_EQ(Exec("SELECT id FROM LargeT WHERE grp = 5").rows.size(), 25u);
  EXPECT_TRUE(Exec("SELECT id FROM LargeT WHERE grp = 6").rows.empty());
  // `id` carries no index: a delete by id scans, comparing by slot.
  before = Scanned("LargeT");
  EXPECT_EQ(Exec("DELETE FROM LargeT WHERE id = 7").rows[0][0],
            Value::Int(1));
  EXPECT_EQ(Scanned("LargeT") - before, 2475u);
}

}  // namespace
}  // namespace cacheportal::db
