#include "invalidator/type_matcher.h"

#include <optional>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "sql/analyzer.h"
#include "sql/ast.h"

namespace cacheportal::invalidator {

namespace {

/// A column reference resolved against the template's FROM list and the
/// database schemas.
struct ResolvedColumn {
  std::string table_lower;
  std::string column;
  size_t column_index = 0;
  db::ColumnType type = db::ColumnType::kInt;
};

/// Anchor preference: cheaper/tighter probes win when several conjuncts
/// constrain the same table. Ties keep the first conjunct seen.
int AnchorRank(AnchorRel rel) {
  switch (rel) {
    case AnchorRel::kEq:
      return 0;
    case AnchorRel::kIn:
      return 1;
    case AnchorRel::kBetween:
      return 2;
    case AnchorRel::kLt:
    case AnchorRel::kLtEq:
    case AnchorRel::kGt:
    case AnchorRel::kGtEq:
      return 3;
  }
  return 3;
}

bool IsEquality(AnchorRel rel) {
  return rel == AnchorRel::kEq || rel == AnchorRel::kIn;
}

std::optional<AnchorOperand> OperandFrom(const sql::Expression& expr) {
  if (expr.kind() == sql::ExprKind::kParameter) {
    int ordinal = static_cast<const sql::ParameterExpr&>(expr).ordinal();
    if (ordinal <= 0) return std::nullopt;  // Anonymous `?` placeholder.
    AnchorOperand operand;
    operand.ordinal = ordinal;
    return operand;
  }
  if (expr.kind() == sql::ExprKind::kLiteral) {
    AnchorOperand operand;
    operand.constant = static_cast<const sql::LiteralExpr&>(expr).value();
    return operand;
  }
  return std::nullopt;
}

std::optional<AnchorRel> RelFrom(sql::BinaryOp op, bool column_on_left) {
  switch (op) {
    case sql::BinaryOp::kEq:
      return AnchorRel::kEq;
    case sql::BinaryOp::kLt:
      return column_on_left ? AnchorRel::kLt : AnchorRel::kGt;
    case sql::BinaryOp::kLtEq:
      return column_on_left ? AnchorRel::kLtEq : AnchorRel::kGtEq;
    case sql::BinaryOp::kGt:
      return column_on_left ? AnchorRel::kGt : AnchorRel::kLt;
    case sql::BinaryOp::kGtEq:
      return column_on_left ? AnchorRel::kGtEq : AnchorRel::kLtEq;
    default:
      // <> and LIKE fold FALSE on matches the index cannot enumerate;
      // leave them to the interpreted path.
      return std::nullopt;
  }
}

}  // namespace

sql::Value TypeMatcher::OperandValue(const AnchorOperand& operand,
                                     const std::vector<sql::Value>& bindings) {
  if (operand.ordinal <= 0) return operand.constant;
  size_t index = static_cast<size_t>(operand.ordinal) - 1;
  if (index >= bindings.size()) return sql::Value::Null();
  return bindings[index];
}

const CompiledAnchor* TypeMatcher::AnchorFor(
    const std::string& table_lower) const {
  auto it = anchors_.find(table_lower);
  return it == anchors_.end() ? nullptr : &it->second;
}

TypeMatcher TypeMatcher::Compile(const QueryType& type,
                                 const db::Database& database) {
  TypeMatcher matcher;
  const sql::SelectStatement* stmt = type.tmpl.statement.get();
  if (stmt == nullptr) {
    matcher.fallback_reason_ = "type has no template statement";
    return matcher;
  }
  if (stmt->where == nullptr) {
    // Every update to a FROM table affects such a query; there is nothing
    // to index (the analyzer decides it in O(1) anyway).
    matcher.fallback_reason_ = "template has no WHERE clause";
    return matcher;
  }

  std::map<std::string, int> occurrences;
  for (const sql::TableRef& ref : stmt->from) {
    ++occurrences[AsciiToLower(ref.table)];
  }

  // Mirror ImpactAnalyzer's qualification exactly: the compiled anchors
  // must describe the same predicate the analyzer evaluates. Schemas are
  // immutable and the FROM tables exist by the time the first instance
  // registers, so resolving once here equals resolving per analysis.
  auto owner_of =
      [&](const std::string& column) -> std::optional<std::string> {
    std::optional<std::string> owner;
    for (const sql::TableRef& ref : stmt->from) {
      const db::Table* t = database.FindTable(ref.table);
      if (t == nullptr) continue;
      if (t->schema().ColumnIndex(column).has_value()) {
        if (owner.has_value()) return std::nullopt;  // Ambiguous.
        owner = ref.EffectiveName();
      }
    }
    return owner;
  };
  sql::ExpressionPtr qualified = sql::QualifyColumns(*stmt->where, owner_of);

  auto resolve =
      [&](const sql::Expression& expr) -> std::optional<ResolvedColumn> {
    if (expr.kind() != sql::ExprKind::kColumnRef) return std::nullopt;
    const auto& col = static_cast<const sql::ColumnRefExpr&>(expr);
    if (col.table().empty()) return std::nullopt;  // Unresolvably ambiguous.
    for (const sql::TableRef& ref : stmt->from) {
      if (!EqualsIgnoreCase(col.table(), ref.EffectiveName())) continue;
      std::string table_lower = AsciiToLower(ref.table);
      if (occurrences[table_lower] != 1) return std::nullopt;
      const db::Table* t = database.FindTable(ref.table);
      if (t == nullptr) return std::nullopt;
      std::optional<size_t> index = t->schema().ColumnIndex(col.column());
      if (!index.has_value()) return std::nullopt;
      ResolvedColumn resolved;
      resolved.table_lower = std::move(table_lower);
      resolved.column = col.column();
      resolved.column_index = *index;
      resolved.type = t->schema().columns()[*index].type;
      return resolved;
    }
    return std::nullopt;
  };

  auto consider = [&matcher](const ResolvedColumn& column, AnchorRel rel,
                             std::vector<AnchorOperand> operands) {
    CompiledAnchor anchor;
    anchor.table_lower = column.table_lower;
    anchor.column = column.column;
    anchor.column_index = column.column_index;
    anchor.rel = rel;
    anchor.operands = std::move(operands);
    anchor.postings_table_lower = anchor.table_lower;
    auto it = matcher.anchors_.find(anchor.table_lower);
    if (it == matcher.anchors_.end()) {
      matcher.anchors_.emplace(anchor.table_lower, std::move(anchor));
    } else if (AnchorRank(rel) < AnchorRank(it->second.rel)) {
      it->second = std::move(anchor);
    }
  };

  std::vector<std::pair<ResolvedColumn, ResolvedColumn>> joins;
  for (const sql::Expression* conjunct : sql::SplitConjuncts(*qualified)) {
    switch (conjunct->kind()) {
      case sql::ExprKind::kBinary: {
        const auto& bin = static_cast<const sql::BinaryExpr&>(*conjunct);
        if (!sql::IsComparisonOp(bin.op())) break;
        std::optional<ResolvedColumn> left = resolve(bin.left());
        std::optional<ResolvedColumn> right = resolve(bin.right());
        if (left.has_value() && right.has_value()) {
          if (bin.op() == sql::BinaryOp::kEq &&
              left->table_lower != right->table_lower) {
            joins.emplace_back(std::move(*left), std::move(*right));
          }
          break;
        }
        bool column_on_left = left.has_value();
        const std::optional<ResolvedColumn>& column =
            column_on_left ? left : right;
        if (!column.has_value()) break;
        std::optional<AnchorOperand> operand =
            OperandFrom(column_on_left ? bin.right() : bin.left());
        if (!operand.has_value()) break;
        std::optional<AnchorRel> rel = RelFrom(bin.op(), column_on_left);
        if (!rel.has_value()) break;
        consider(*column, *rel, {std::move(*operand)});
        break;
      }
      case sql::ExprKind::kInList: {
        const auto& in = static_cast<const sql::InListExpr&>(*conjunct);
        if (in.negated()) break;
        std::optional<ResolvedColumn> column = resolve(in.operand());
        if (!column.has_value()) break;
        std::vector<AnchorOperand> operands;
        operands.reserve(in.items().size());
        bool all_simple = !in.items().empty();
        for (const sql::ExpressionPtr& item : in.items()) {
          std::optional<AnchorOperand> operand = OperandFrom(*item);
          if (!operand.has_value()) {
            all_simple = false;
            break;
          }
          operands.push_back(std::move(*operand));
        }
        if (!all_simple) break;
        consider(*column, AnchorRel::kIn, std::move(operands));
        break;
      }
      case sql::ExprKind::kBetween: {
        const auto& between = static_cast<const sql::BetweenExpr&>(*conjunct);
        if (between.negated()) break;
        std::optional<ResolvedColumn> column = resolve(between.operand());
        if (!column.has_value()) break;
        std::optional<AnchorOperand> low = OperandFrom(between.low());
        std::optional<AnchorOperand> high = OperandFrom(between.high());
        if (!low.has_value() || !high.has_value()) break;
        consider(*column, AnchorRel::kBetween,
                 {std::move(*low), std::move(*high)});
        break;
      }
      default:
        break;
    }
  }

  if (matcher.anchors_.empty()) {
    matcher.fallback_reason_ = "no indexable conjunct in template WHERE";
    return matcher;
  }

  // ---- Close the own anchors over the join terms' equivalence classes.
  // Union-find over the columns the join terms mention yields every class
  // at once, so a chain A.x = B.x AND B.x = C.x reaches its fixpoint in
  // one pass (see the class comment for why the derivation is sound).
  std::vector<ResolvedColumn> columns;
  std::vector<size_t> parent;
  auto node_of = [&](const ResolvedColumn& column) {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i].table_lower == column.table_lower &&
          columns[i].column_index == column.column_index) {
        return i;
      }
    }
    columns.push_back(column);
    parent.push_back(parent.size());
    return columns.size() - 1;
  };
  auto root_of = [&](size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  for (const auto& [left, right] : joins) {
    parent[root_of(node_of(left))] = root_of(node_of(right));
  }

  std::map<std::string, CompiledAnchor> derived;  // By target table.
  for (size_t target = 0; target < columns.size(); ++target) {
    const ResolvedColumn& column = columns[target];
    auto own = matcher.anchors_.find(column.table_lower);
    if (own != matcher.anchors_.end() && IsEquality(own->second.rel)) {
      continue;  // An own `=` or IN anchor wins.
    }
    const CompiledAnchor* source = nullptr;
    bool nan_free = true;
    for (size_t other = 0; other < columns.size(); ++other) {
      if (other == target || root_of(other) != root_of(target)) continue;
      if (columns[other].type == db::ColumnType::kDouble) {
        nan_free = false;
        break;
      }
      if (columns[other].table_lower == column.table_lower) continue;
      auto it = matcher.anchors_.find(columns[other].table_lower);
      if (it == matcher.anchors_.end() || !IsEquality(it->second.rel) ||
          it->second.column_index != columns[other].column_index) {
        continue;
      }
      if (source == nullptr ||
          AnchorRank(it->second.rel) < AnchorRank(source->rel)) {
        source = &it->second;
      }
    }
    if (!nan_free || source == nullptr) continue;
    auto pending = derived.find(column.table_lower);
    if (pending != derived.end() &&
        AnchorRank(pending->second.rel) <= AnchorRank(source->rel)) {
      continue;
    }
    CompiledAnchor anchor = *source;
    anchor.table_lower = column.table_lower;
    anchor.column = column.column;
    anchor.column_index = column.column_index;
    derived.insert_or_assign(column.table_lower, std::move(anchor));
  }
  for (auto& [table_lower, anchor] : derived) {
    matcher.anchors_.insert_or_assign(table_lower, std::move(anchor));
  }
  return matcher;
}

}  // namespace cacheportal::invalidator
