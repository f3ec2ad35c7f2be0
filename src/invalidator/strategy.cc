#include "invalidator/strategy.h"

#include <optional>
#include <set>
#include <vector>

#include "common/strings.h"
#include "sql/analyzer.h"
#include "sql/eval.h"

namespace cacheportal::invalidator {

namespace {

/// Resolves column references of a single-table statement against one row
/// image. Accepts unqualified references and qualifiers naming either the
/// real table or the statement's FROM alias (both ignore-case), mirroring
/// the executor's SingleTableResolver plus alias awareness.
class RowImageResolver : public sql::ColumnResolver {
 public:
  RowImageResolver(const db::TableSchema& schema, const std::string& alias,
                   const db::Row& row)
      : schema_(schema), alias_(alias), row_(row) {}

  std::optional<sql::Value> Resolve(const std::string& table,
                                    const std::string& column) const override {
    if (!table.empty() && !EqualsIgnoreCase(table, schema_.name()) &&
        !EqualsIgnoreCase(table, alias_)) {
      return std::nullopt;
    }
    std::optional<size_t> idx = schema_.ColumnIndex(column);
    if (!idx.has_value() || *idx >= row_.size()) return std::nullopt;
    return row_[*idx];
  }

 private:
  const db::TableSchema& schema_;
  const std::string& alias_;
  const db::Row& row_;
};

/// WHERE satisfaction of one row image under 3VL; absent WHERE is TRUE.
/// Evaluation errors (malformed row, type confusion) report satisfied so
/// the caller ejects conservatively instead of failing the cycle.
bool RowSatisfiesWhere(const sql::SelectStatement& statement,
                       const db::TableSchema& schema, const db::Row& row) {
  if (statement.where == nullptr) return true;
  RowImageResolver resolver(
      schema, statement.from.empty() ? std::string() : statement.from[0].alias,
      row);
  Result<std::optional<bool>> verdict =
      sql::EvalPredicate(*statement.where, resolver);
  if (!verdict.ok()) return true;
  return verdict->has_value() && **verdict;
}

/// Schema indexes of the columns the result's bytes depend on: every
/// column the select items and ORDER BY read, or all columns when any
/// item is `*`. Returns nullopt when a reference does not resolve (the
/// caller then treats every column as relevant).
std::optional<std::set<size_t>> RelevantColumns(
    const sql::SelectStatement& statement, const db::TableSchema& schema) {
  std::set<size_t> relevant;
  auto add_refs = [&](const sql::Expression& expr) -> bool {
    for (const sql::ColumnRefExpr* ref : sql::CollectColumnRefs(expr)) {
      std::optional<size_t> idx = schema.ColumnIndex(ref->column());
      if (!idx.has_value()) return false;
      relevant.insert(*idx);
    }
    return true;
  };
  for (const sql::SelectItem& item : statement.items) {
    if (item.star) {
      for (size_t i = 0; i < schema.num_columns(); ++i) relevant.insert(i);
      continue;
    }
    if (item.expr != nullptr && !add_refs(*item.expr)) return std::nullopt;
  }
  for (const sql::OrderByItem& item : statement.order_by) {
    if (item.expr != nullptr && !add_refs(*item.expr)) return std::nullopt;
  }
  return relevant;
}

}  // namespace

const char* StrategyTierName(StrategyTier tier) {
  switch (tier) {
    case StrategyTier::kExact:
      return "exact";
    case StrategyTier::kCompiledBatch:
      return "compiled-batch";
    case StrategyTier::kInterpret:
      return "interpret";
    case StrategyTier::kPoll:
      return "poll";
  }
  return "unknown";
}

TierDecision DecideTier(const QueryType& type, const db::Database& database,
                        bool exact_strategy, bool matcher_handled,
                        const std::string& matcher_fallback) {
  TierDecision decision;
  const sql::SelectStatement* statement = type.tmpl.statement.get();
  if (statement == nullptr) {
    decision.tier = StrategyTier::kInterpret;
    decision.reason = "no template";
    return decision;
  }

  sql::TemplateShape shape = sql::ClassifyTemplateShape(*statement);
  std::string demotion = shape.blocker;

  if (demotion.empty()) {
    // Shape-eligible; exactness additionally needs every column reference
    // to resolve against the live schema (a dangling reference would make
    // image evaluation silently wrong rather than conservative).
    const db::Table* table = statement->from.empty()
                                 ? nullptr
                                 : database.FindTable(statement->from[0].table);
    if (table == nullptr) {
      demotion = "unknown table";
    } else {
      const db::TableSchema& schema = table->schema();
      const std::string& alias = statement->from[0].alias;
      auto refs_resolve = [&](const sql::Expression& expr) {
        for (const sql::ColumnRefExpr* ref : sql::CollectColumnRefs(expr)) {
          if (!ref->table().empty() &&
              !EqualsIgnoreCase(ref->table(), schema.name()) &&
              !EqualsIgnoreCase(ref->table(), alias)) {
            return false;
          }
          if (!schema.ColumnIndex(ref->column()).has_value()) return false;
        }
        return true;
      };
      bool resolved = statement->where == nullptr || refs_resolve(*statement->where);
      for (const sql::SelectItem& item : statement->items) {
        if (!resolved) break;
        if (item.expr != nullptr) resolved = refs_resolve(*item.expr);
      }
      for (const sql::OrderByItem& item : statement->order_by) {
        if (!resolved) break;
        if (item.expr != nullptr) resolved = refs_resolve(*item.expr);
      }
      if (!resolved) {
        demotion = "unresolved column";
      } else if (exact_strategy) {
        decision.tier = StrategyTier::kExact;
        return decision;
      } else {
        demotion = "exact tier disabled";
      }
    }
  }

  if (matcher_handled) {
    decision.tier = StrategyTier::kCompiledBatch;
    decision.reason = demotion;
    return decision;
  }

  // Unanchored path. Multi-table shapes (including self-joins) are the
  // ones whose interpreted analysis residualizes on essentially every
  // relevant delta, so their steady state is the polling tier. The shape
  // blocker names WHY the template left the exact tier; the matcher's
  // fallback string only fills in when the shape itself was eligible.
  decision.tier = (statement->from.size() > 1 || shape.self_join)
                      ? StrategyTier::kPoll
                      : StrategyTier::kInterpret;
  decision.reason = !demotion.empty() ? demotion : matcher_fallback;
  return decision;
}

bool ExactInstanceAffected(const sql::SelectStatement& statement,
                           const db::TableSchema& schema,
                           const db::TableDelta& delta) {
  if (delta.empty()) return false;

  std::vector<bool> paired_insert(delta.inserts.size(), false);
  std::vector<bool> paired_delete(delta.deletes.size(), false);
  for (const auto& [d_idx, i_idx] : delta.update_pairs) {
    if (d_idx < paired_delete.size()) paired_delete[d_idx] = true;
    if (i_idx < paired_insert.size()) paired_insert[i_idx] = true;
  }

  // Unpaired Δ⁺/Δ⁻ rows: membership enters or leaves iff WHERE is TRUE.
  for (size_t i = 0; i < delta.inserts.size(); ++i) {
    if (paired_insert[i]) continue;
    if (RowSatisfiesWhere(statement, schema, delta.inserts[i])) return true;
  }
  for (size_t i = 0; i < delta.deletes.size(); ++i) {
    if (paired_delete[i]) continue;
    if (RowSatisfiesWhere(statement, schema, delta.deletes[i])) return true;
  }

  if (delta.update_pairs.empty()) return false;

  std::optional<std::set<size_t>> relevant = RelevantColumns(statement, schema);
  for (const auto& [d_idx, i_idx] : delta.update_pairs) {
    if (d_idx >= delta.deletes.size() || i_idx >= delta.inserts.size()) {
      return true;  // Malformed pairing: eject conservatively.
    }
    const db::Row& old_row = delta.deletes[d_idx];
    const db::Row& new_row = delta.inserts[i_idx];
    bool old_in = RowSatisfiesWhere(statement, schema, old_row);
    bool new_in = RowSatisfiesWhere(statement, schema, new_row);
    if (old_in != new_in) return true;
    if (!old_in) continue;  // Never in the result: invisible change.
    // In the result before and after (same scan position — the pair
    // token guarantees an in-place update): only a change to a column
    // the result reads can alter its bytes.
    if (!relevant.has_value()) return true;
    if (old_row.size() != new_row.size()) return true;
    for (size_t col : *relevant) {
      if (col >= old_row.size() || !(old_row[col] == new_row[col])) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace cacheportal::invalidator
