#include "db/database.h"

#include <algorithm>

#include "common/strings.h"
#include "db/access_path.h"
#include "db/executor.h"
#include "sql/analyzer.h"
#include "sql/eval.h"
#include "sql/parser.h"

namespace cacheportal::db {

namespace {

/// The rows of `table` a DML WHERE selects, through the access-path
/// chooser; all rows when `where` is null.
Result<std::vector<RowRef>> MatchingRows(const Table& table,
                                         const sql::Expression* where) {
  std::vector<const sql::Expression*> conjuncts;
  if (where != nullptr) conjuncts = sql::SplitConjuncts(*where);
  return TableAccess(&table, table.schema().name(), conjuncts).Select();
}

}  // namespace

std::string QueryResult::ToString() const {
  std::vector<size_t> widths(columns.size(), 0);
  auto cell = [](const sql::Value& v) { return v.ToString(); };
  for (size_t i = 0; i < columns.size(); ++i) widths[i] = columns[i].size();
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], cell(row[i]).size());
    }
  }
  std::string out;
  auto append_row = [&](const std::vector<std::string>& cells) {
    out += "|";
    for (size_t i = 0; i < cells.size(); ++i) {
      out += " ";
      out += cells[i];
      out.append(widths[i] > cells[i].size() ? widths[i] - cells[i].size() : 0,
                 ' ');
      out += " |";
    }
    out += "\n";
  };
  append_row(columns);
  out += "|";
  for (size_t i = 0; i < columns.size(); ++i) {
    out.append(widths[i] + 2, '-');
    out += "|";
  }
  out += "\n";
  for (const Row& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const sql::Value& v : row) cells.push_back(cell(v));
    append_row(cells);
  }
  return out;
}

Database::Database(const Clock* clock) : clock_(clock) {
  if (clock_ == nullptr) {
    owned_clock_ = std::make_unique<SystemClock>();
    clock_ = owned_clock_.get();
  }
}

Status Database::CreateTable(TableSchema schema) {
  std::string key = AsciiToLower(schema.name());
  if (tables_.contains(key)) {
    return Status::AlreadyExists(StrCat("table ", schema.name()));
  }
  order_.push_back(schema.name());
  tables_.emplace(std::move(key), std::make_unique<Table>(std::move(schema)));
  return Status::OK();
}

Table* Database::FindTable(const std::string& name) {
  auto it = tables_.find(AsciiToLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::FindTable(const std::string& name) const {
  auto it = tables_.find(AsciiToLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::TableNames() const { return order_; }

Status Database::CreateIndex(const std::string& table,
                             const std::string& column) {
  Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound(StrCat("table ", table));
  return t->CreateIndex(column);
}

Result<QueryResult> Database::ExecuteSql(const std::string& sql_text) {
  CACHEPORTAL_ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                               sql::Parser::Parse(sql_text));
  switch (stmt->kind()) {
    case sql::StatementKind::kSelect:
      return ExecuteQuery(static_cast<const sql::SelectStatement&>(*stmt));
    case sql::StatementKind::kInsert: {
      CACHEPORTAL_ASSIGN_OR_RETURN(
          int64_t n,
          ExecuteInsert(static_cast<const sql::InsertStatement&>(*stmt)));
      QueryResult r;
      r.columns = {"affected"};
      r.rows = {{sql::Value::Int(n)}};
      return r;
    }
    case sql::StatementKind::kDelete: {
      CACHEPORTAL_ASSIGN_OR_RETURN(
          int64_t n,
          ExecuteDelete(static_cast<const sql::DeleteStatement&>(*stmt)));
      QueryResult r;
      r.columns = {"affected"};
      r.rows = {{sql::Value::Int(n)}};
      return r;
    }
    case sql::StatementKind::kUpdate: {
      CACHEPORTAL_ASSIGN_OR_RETURN(
          int64_t n,
          ExecuteUpdate(static_cast<const sql::UpdateStatement&>(*stmt)));
      QueryResult r;
      r.columns = {"affected"};
      r.rows = {{sql::Value::Int(n)}};
      return r;
    }
    case sql::StatementKind::kCreateTable: {
      const auto& create =
          static_cast<const sql::CreateTableStatement&>(*stmt);
      std::vector<ColumnDef> columns;
      columns.reserve(create.columns.size());
      for (const sql::ColumnSpec& spec : create.columns) {
        ColumnType type = spec.type == "INT"      ? ColumnType::kInt
                          : spec.type == "DOUBLE" ? ColumnType::kDouble
                                                  : ColumnType::kString;
        columns.push_back(ColumnDef{spec.name, type});
      }
      CACHEPORTAL_RETURN_NOT_OK(
          CreateTable(TableSchema(create.table, std::move(columns))));
      QueryResult r;
      r.columns = {"created"};
      r.rows = {{sql::Value::String(create.table)}};
      return r;
    }
    case sql::StatementKind::kCreateIndex: {
      const auto& create =
          static_cast<const sql::CreateIndexStatement&>(*stmt);
      CACHEPORTAL_RETURN_NOT_OK(CreateIndex(create.table, create.column));
      QueryResult r;
      r.columns = {"indexed"};
      r.rows = {{sql::Value::String(create.table + "." + create.column)}};
      return r;
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<QueryResult> Database::ExecuteQuery(
    const sql::SelectStatement& stmt) const {
  queries_executed_.fetch_add(1, std::memory_order_relaxed);
  Executor executor(this);
  return executor.Execute(stmt);
}

Result<int64_t> Database::ExecuteInsert(const sql::InsertStatement& stmt) {
  Table* table = FindTable(stmt.table);
  if (table == nullptr) return Status::NotFound(StrCat("table ", stmt.table));
  const TableSchema& schema = table->schema();

  // Evaluate value expressions (must be constant).
  sql::EmptyResolver no_columns;
  std::vector<sql::Value> values;
  values.reserve(stmt.values.size());
  for (const auto& expr : stmt.values) {
    CACHEPORTAL_ASSIGN_OR_RETURN(sql::Value v,
                                 sql::EvalExpr(*expr, no_columns));
    values.push_back(std::move(v));
  }

  Row row;
  if (stmt.columns.empty()) {
    row = std::move(values);
  } else {
    if (stmt.columns.size() != values.size()) {
      return Status::InvalidArgument(
          "INSERT column list and VALUES arity differ");
    }
    row.assign(schema.num_columns(), sql::Value::Null());
    for (size_t i = 0; i < stmt.columns.size(); ++i) {
      std::optional<size_t> idx = schema.ColumnIndex(stmt.columns[i]);
      if (!idx.has_value()) {
        return Status::NotFound(StrCat("column ", stmt.columns[i],
                                       " in table ", stmt.table));
      }
      row[*idx] = std::move(values[i]);
    }
  }
  Row logged = row;
  CACHEPORTAL_ASSIGN_OR_RETURN(RowId id, table->Insert(std::move(row)));
  (void)id;
  update_log_.Append(clock_->NowMicros(), schema.name(), UpdateOp::kInsert,
                     std::move(logged));
  ++dml_executed_;
  return 1;
}

Result<int64_t> Database::ExecuteDelete(const sql::DeleteStatement& stmt) {
  Table* table = FindTable(stmt.table);
  if (table == nullptr) return Status::NotFound(StrCat("table ", stmt.table));
  const TableSchema& schema = table->schema();

  CACHEPORTAL_ASSIGN_OR_RETURN(std::vector<RowRef> hits,
                               MatchingRows(*table, stmt.where.get()));
  Micros now = clock_->NowMicros();
  for (const RowRef& hit : hits) {
    Row row = *hit.row;  // Deleting frees only this hit's row.
    CACHEPORTAL_RETURN_NOT_OK(table->Delete(hit.id));
    update_log_.Append(now, schema.name(), UpdateOp::kDelete, std::move(row));
  }
  ++dml_executed_;
  return static_cast<int64_t>(hits.size());
}

Result<int64_t> Database::ExecuteUpdate(const sql::UpdateStatement& stmt) {
  Table* table = FindTable(stmt.table);
  if (table == nullptr) return Status::NotFound(StrCat("table ", stmt.table));
  const TableSchema& schema = table->schema();

  // Pre-resolve assignment targets.
  std::vector<size_t> target_cols;
  target_cols.reserve(stmt.assignments.size());
  for (const auto& [col, expr] : stmt.assignments) {
    std::optional<size_t> idx = schema.ColumnIndex(col);
    if (!idx.has_value()) {
      return Status::NotFound(StrCat("column ", col, " in table ",
                                     stmt.table));
    }
    target_cols.push_back(*idx);
  }

  CACHEPORTAL_ASSIGN_OR_RETURN(std::vector<RowRef> hits,
                               MatchingRows(*table, stmt.where.get()));
  std::vector<std::pair<RowId, Row>> changes;  // id -> new image.
  changes.reserve(hits.size());
  for (const RowRef& hit : hits) {
    TableRowResolver resolver(schema, schema.name(), *hit.row);
    Row updated = *hit.row;
    for (size_t i = 0; i < stmt.assignments.size(); ++i) {
      CACHEPORTAL_ASSIGN_OR_RETURN(
          sql::Value v,
          sql::EvalExpr(*stmt.assignments[i].second, resolver));
      updated[target_cols[i]] = std::move(v);
    }
    changes.emplace_back(hit.id, std::move(updated));
  }
  Micros now = clock_->NowMicros();
  for (auto& [id, new_row] : changes) {
    CACHEPORTAL_ASSIGN_OR_RETURN(Row old_row, table->Get(id));
    CACHEPORTAL_RETURN_NOT_OK(table->Update(id, new_row));
    // Logged as delete(old) + insert(new), the paper's Δ⁻/Δ⁺ formulation,
    // pair-stamped because the row was updated in place (RowId stable).
    update_log_.AppendUpdate(now, schema.name(), std::move(old_row),
                             std::move(new_row));
  }
  ++dml_executed_;
  return static_cast<int64_t>(changes.size());
}

}  // namespace cacheportal::db
