#include "sql/template.h"

#include <algorithm>

#include "sql/analyzer.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace cacheportal::sql {

namespace {

/// Rewrites `expr`, turning literals into parameters and renumbering any
/// existing parameters, appending to `bindings` (existing parameters bind
/// a NULL placeholder since their value is unknown).
ExpressionPtr Parameterize(const Expression& expr, int* next_ordinal,
                           std::vector<Value>* bindings) {
  switch (expr.kind()) {
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(expr).value();
      // NULL / boolean literals shape the predicate itself (IS NULL
      // rewrites, constant guards); keep them structural.
      if (v.is_null() || v.is_bool()) return expr.Clone();
      bindings->push_back(v);
      return std::make_unique<ParameterExpr>((*next_ordinal)++);
    }
    case ExprKind::kParameter: {
      bindings->push_back(Value::Null());
      return std::make_unique<ParameterExpr>((*next_ordinal)++);
    }
    case ExprKind::kColumnRef:
      return expr.Clone();
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      // A negative number is one literal to whoever wrote it: `c = -1`
      // binds -1 into the type of `c = 1`, the value unary minus
      // evaluates to. `- col` and `-(1 + 2)` stay structural.
      if (u.op() == UnaryOp::kNeg &&
          u.operand().kind() == ExprKind::kLiteral) {
        const Value& v = static_cast<const LiteralExpr&>(u.operand()).value();
        if (v.is_int() || v.is_double()) {
          bindings->push_back(v.is_int() ? Value::Int(-v.AsInt())
                                         : Value::Double(-v.AsDouble()));
          return std::make_unique<ParameterExpr>((*next_ordinal)++);
        }
      }
      return std::make_unique<UnaryExpr>(
          u.op(), Parameterize(u.operand(), next_ordinal, bindings));
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      ExpressionPtr left = Parameterize(b.left(), next_ordinal, bindings);
      ExpressionPtr right = Parameterize(b.right(), next_ordinal, bindings);
      return std::make_unique<BinaryExpr>(b.op(), std::move(left),
                                          std::move(right));
    }
    case ExprKind::kFunctionCall: {
      const auto& f = static_cast<const FunctionCallExpr&>(expr);
      std::vector<ExpressionPtr> args;
      args.reserve(f.args().size());
      for (const auto& a : f.args()) {
        args.push_back(Parameterize(*a, next_ordinal, bindings));
      }
      return std::make_unique<FunctionCallExpr>(f.name(), std::move(args),
                                                f.star());
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      ExpressionPtr operand =
          Parameterize(in.operand(), next_ordinal, bindings);
      std::vector<ExpressionPtr> items;
      items.reserve(in.items().size());
      for (const auto& item : in.items()) {
        items.push_back(Parameterize(*item, next_ordinal, bindings));
      }
      return std::make_unique<InListExpr>(std::move(operand),
                                          std::move(items), in.negated());
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(expr);
      ExpressionPtr operand =
          Parameterize(bt.operand(), next_ordinal, bindings);
      ExpressionPtr low = Parameterize(bt.low(), next_ordinal, bindings);
      ExpressionPtr high = Parameterize(bt.high(), next_ordinal, bindings);
      return std::make_unique<BetweenExpr>(std::move(operand), std::move(low),
                                           std::move(high), bt.negated());
    }
    case ExprKind::kIsNull: {
      const auto& n = static_cast<const IsNullExpr&>(expr);
      return std::make_unique<IsNullExpr>(
          Parameterize(n.operand(), next_ordinal, bindings), n.negated());
    }
  }
  return expr.Clone();
}

}  // namespace

QueryTemplate QueryTemplate::Clone() const {
  QueryTemplate out;
  out.statement = statement ? statement->Clone() : nullptr;
  out.canonical_text = canonical_text;
  out.type_id = type_id;
  out.bindings = bindings;
  return out;
}

uint64_t HashQueryText(const std::string& text) {
  uint64_t hash = 1469598103934665603ULL;  // FNV offset basis.
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;  // FNV prime.
  }
  return hash;
}

Result<QueryTemplate> ExtractTemplate(const SelectStatement& instance) {
  QueryTemplate tmpl;
  tmpl.statement = instance.Clone();
  int next_ordinal = 1;
  if (tmpl.statement->where != nullptr) {
    tmpl.statement->where =
        Parameterize(*tmpl.statement->where, &next_ordinal, &tmpl.bindings);
  }
  tmpl.canonical_text = StatementToSql(*tmpl.statement);
  tmpl.type_id = HashQueryText(tmpl.canonical_text);
  return tmpl;
}

Result<QueryTemplate> ExtractTemplateFromSql(const std::string& sql) {
  CACHEPORTAL_ASSIGN_OR_RETURN(auto select, Parser::ParseSelect(sql));
  return ExtractTemplate(*select);
}

namespace {

int MaxParameterOrdinal(const Expression& expr) {
  int max_ordinal = 0;
  switch (expr.kind()) {
    case ExprKind::kParameter:
      max_ordinal = static_cast<const ParameterExpr&>(expr).ordinal();
      break;
    case ExprKind::kUnary:
      max_ordinal =
          MaxParameterOrdinal(static_cast<const UnaryExpr&>(expr).operand());
      break;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      max_ordinal = std::max(MaxParameterOrdinal(b.left()),
                             MaxParameterOrdinal(b.right()));
      break;
    }
    case ExprKind::kFunctionCall:
      for (const auto& a : static_cast<const FunctionCallExpr&>(expr).args()) {
        max_ordinal = std::max(max_ordinal, MaxParameterOrdinal(*a));
      }
      break;
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      max_ordinal = MaxParameterOrdinal(in.operand());
      for (const auto& item : in.items()) {
        max_ordinal = std::max(max_ordinal, MaxParameterOrdinal(*item));
      }
      break;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(expr);
      max_ordinal = std::max({MaxParameterOrdinal(bt.operand()),
                              MaxParameterOrdinal(bt.low()),
                              MaxParameterOrdinal(bt.high())});
      break;
    }
    case ExprKind::kIsNull:
      max_ordinal =
          MaxParameterOrdinal(static_cast<const IsNullExpr&>(expr).operand());
      break;
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
      break;
  }
  return max_ordinal;
}

}  // namespace

size_t ParameterSlotCount(const QueryTemplate& tmpl) {
  if (tmpl.statement == nullptr || tmpl.statement->where == nullptr) return 0;
  int max_ordinal = MaxParameterOrdinal(*tmpl.statement->where);
  return max_ordinal < 0 ? 0 : static_cast<size_t>(max_ordinal);
}

Result<std::unique_ptr<SelectStatement>> InstantiateTemplate(
    const QueryTemplate& tmpl, const std::vector<Value>& bindings) {
  if (tmpl.statement == nullptr) {
    return Status::InvalidArgument("template has no statement");
  }
  auto out = tmpl.statement->Clone();
  if (out->where != nullptr) {
    CACHEPORTAL_ASSIGN_OR_RETURN(out->where,
                                 BindParameters(*out->where, bindings));
  }
  return out;
}

}  // namespace cacheportal::sql
