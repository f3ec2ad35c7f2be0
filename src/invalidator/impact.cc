#include "invalidator/impact.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/strings.h"
#include "sql/analyzer.h"

namespace cacheportal::invalidator {

namespace {

using sql::Expression;
using sql::ExpressionPtr;
using sql::FoldResult;

/// Builds `left OR right` (null-tolerant).
ExpressionPtr DisjoinExprs(ExpressionPtr left, ExpressionPtr right) {
  if (left == nullptr) return right;
  if (right == nullptr) return left;
  return std::make_unique<sql::BinaryExpr>(sql::BinaryOp::kOr,
                                           std::move(left), std::move(right));
}

/// Substitutes `tuple`'s values for the columns of FROM entry `alias`.
sql::ColumnSubstituter TupleSubstituter(const std::string& alias,
                                        const db::TableSchema& schema,
                                        const db::Row& tuple) {
  return [&alias, &schema, &tuple](const std::string& tbl,
                                   const std::string& col)
             -> std::optional<sql::Value> {
    if (!EqualsIgnoreCase(tbl, alias)) return std::nullopt;
    std::optional<size_t> idx = schema.ColumnIndex(col);
    if (!idx.has_value() || *idx >= tuple.size()) return std::nullopt;
    return tuple[*idx];
  };
}

/// Builds the polling query for a residual condition: SELECT 1 FROM the
/// FROM entries still referenced by the residual WHERE residual LIMIT 1.
std::unique_ptr<sql::SelectStatement> BuildPollingQuery(
    const sql::SelectStatement& query, const std::string& removed_alias,
    ExpressionPtr residual) {
  auto poll = std::make_unique<sql::SelectStatement>();
  sql::SelectItem item;
  item.expr = std::make_unique<sql::LiteralExpr>(sql::Value::Int(1));
  item.alias = "hit";
  poll->items.push_back(std::move(item));

  // Keep FROM entries referenced by the residual; if the residual
  // references nothing (shouldn't happen), keep all but the removed one.
  std::set<std::string> referenced;
  if (residual != nullptr) {
    for (const std::string& t : sql::CollectTables(*residual)) {
      referenced.insert(AsciiToLower(t));
    }
  }
  for (const sql::TableRef& ref : query.from) {
    if (EqualsIgnoreCase(ref.EffectiveName(), removed_alias)) continue;
    if (referenced.empty() ||
        referenced.contains(AsciiToLower(ref.EffectiveName()))) {
      poll->from.push_back(ref);
    }
  }
  poll->where = std::move(residual);
  poll->limit = 1;
  return poll;
}

}  // namespace

ExpressionPtr ImpactAnalyzer::Qualify(const sql::SelectStatement& query,
                                      const Expression& where) const {
  auto owner_of =
      [&](const std::string& column) -> std::optional<std::string> {
    std::optional<std::string> owner;
    for (const sql::TableRef& ref : query.from) {
      const db::Table* t = database_->FindTable(ref.table);
      if (t == nullptr) continue;
      if (t->schema().ColumnIndex(column).has_value()) {
        if (owner.has_value()) return std::nullopt;  // Ambiguous.
        owner = ref.EffectiveName();
      }
    }
    return owner;
  };
  return sql::QualifyColumns(where, owner_of);
}

Result<ImpactResult> ImpactAnalyzer::AnalyzeTuple(
    const sql::SelectStatement& query, const std::string& table,
    const db::Row& tuple) const {
  return AnalyzeDelta(query, table, {tuple});
}

Result<ImpactResult> ImpactAnalyzer::AnalyzeDelta(
    const sql::SelectStatement& query, const std::string& table,
    const std::vector<db::Row>& tuples) const {
  std::vector<const db::Row*> view;
  view.reserve(tuples.size());
  for (const db::Row& tuple : tuples) view.push_back(&tuple);
  return AnalyzeDelta(query, table, view);
}

Result<ImpactResult> ImpactAnalyzer::AnalyzeDelta(
    const sql::SelectStatement& query, const std::string& table,
    const std::vector<const db::Row*>& tuples) const {
  ImpactResult result;
  if (tuples.empty()) return result;  // kUnaffected.

  // FROM occurrences of the updated table.
  std::vector<const sql::TableRef*> occurrences;
  for (const sql::TableRef& ref : query.from) {
    if (EqualsIgnoreCase(ref.table, table)) occurrences.push_back(&ref);
  }
  if (occurrences.empty()) return result;  // kUnaffected.

  const db::Table* updated = database_->FindTable(table);
  if (updated == nullptr) {
    return Status::NotFound(StrCat("table ", table));
  }
  const db::TableSchema& schema = updated->schema();
  for (const db::Row* tuple : tuples) {
    CACHEPORTAL_RETURN_NOT_OK(schema.ValidateRow(*tuple));
  }

  // A query without a WHERE clause returns every tuple: any insert or
  // delete on a FROM table affects it (for single-table queries exactly;
  // for products, conservatively).
  if (query.where == nullptr) {
    result.kind = ImpactKind::kAffected;
    return result;
  }

  // Qualify unqualified columns so substitution is by (alias, column).
  ExpressionPtr qualified = Qualify(query, *query.where);

  // Per-occurrence, per-tuple substitution. Verdicts combine as:
  // any TRUE -> affected outright; any residual -> needs polling (residuals
  // are OR-ed per occurrence); all FALSE/NULL -> unaffected.
  ExpressionPtr combined_residual;
  std::string residual_alias;
  for (const sql::TableRef* occ : occurrences) {
    for (const db::Row* tuple : tuples) {
      ExpressionPtr substituted = sql::SubstituteColumns(
          *qualified, TupleSubstituter(occ->EffectiveName(), schema, *tuple));
      sql::FoldResult folded = sql::FoldConstants(*substituted);
      switch (folded.outcome) {
        case sql::FoldOutcome::kTrue:
          result.kind = ImpactKind::kAffected;
          return result;
        case sql::FoldOutcome::kFalse:
        case sql::FoldOutcome::kNull:
          continue;  // This tuple cannot satisfy the condition.
        case sql::FoldOutcome::kResidual:
          if (!combined_residual) residual_alias = occ->EffectiveName();
          if (EqualsIgnoreCase(residual_alias, occ->EffectiveName())) {
            combined_residual = DisjoinExprs(std::move(combined_residual),
                                             std::move(folded.residual));
          } else {
            // Residuals against different aliases cannot share one
            // polling query; be conservative.
            result.kind = ImpactKind::kAffected;
            return result;
          }
          break;
      }
    }
  }

  if (combined_residual == nullptr) return result;  // kUnaffected.

  result.kind = ImpactKind::kNeedsPolling;
  result.polling_query = BuildPollingQuery(query, residual_alias,
                                           std::move(combined_residual));
  return result;
}

Result<ImpactAnalyzer::DeltaJoinResult> ImpactAnalyzer::AnalyzeDeltaJoin(
    const sql::SelectStatement& query, const TableTuples& r,
    const std::vector<uint32_t>& r_rows, const TableTuples& s,
    const std::vector<uint32_t>& s_rows) const {
  DeltaJoinResult result;
  if (query.where == nullptr) {  // Every pair is in the result.
    result.affected = !r_rows.empty() && !s_rows.empty();
    return result;
  }
  // The FROM entry and schema of each side.
  const sql::TableRef* refs[2] = {nullptr, nullptr};
  const db::TableSchema* schemas[2] = {nullptr, nullptr};
  for (int k = 0; k < 2; ++k) {
    const std::string& name = (k == 0 ? r : s).table;
    for (const sql::TableRef& ref : query.from) {
      if (EqualsIgnoreCase(ref.table, name)) refs[k] = &ref;
    }
    const db::Table* table = database_->FindTable(name);
    if (refs[k] == nullptr || table == nullptr) {
      return Status::NotFound(StrCat("table ", name));
    }
    schemas[k] = &table->schema();
  }

  // Both row lists ascend, so each side's deletions are its tail.
  const auto s_deletes =
      std::lower_bound(s_rows.begin(), s_rows.end(), s.inserts);
  ExpressionPtr qualified = Qualify(query, *query.where);
  for (uint32_t i : r_rows) {
    // An inserted r pairs only with deleted s.
    const auto first = i >= r.inserts ? s_rows.begin() : s_deletes;
    if (first == s_rows.end()) continue;
    FoldResult with_r = sql::FoldConstants(*sql::SubstituteColumns(
        *qualified,
        TupleSubstituter(refs[0]->EffectiveName(), *schemas[0], *r.tuples[i])));
    if (with_r.outcome == sql::FoldOutcome::kFalse ||
        with_r.outcome == sql::FoldOutcome::kNull) {
      continue;  // No s can complete r.
    }
    for (auto j = first; j != s_rows.end(); ++j) {
      ++result.pairs;
      if (with_r.outcome == sql::FoldOutcome::kTrue) {
        result.affected = true;
        return result;
      }
      FoldResult with_s = sql::FoldConstants(*sql::SubstituteColumns(
          *with_r.residual, TupleSubstituter(refs[1]->EffectiveName(),
                                             *schemas[1], *s.tuples[*j])));
      if (with_s.outcome == sql::FoldOutcome::kTrue ||
          with_s.outcome == sql::FoldOutcome::kResidual) {
        result.affected = true;
        return result;
      }
    }
  }
  return result;
}

}  // namespace cacheportal::invalidator
