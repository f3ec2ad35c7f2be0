#include "db/executor.h"

#include <algorithm>

#include "common/strings.h"
#include "db/access_path.h"
#include "sql/analyzer.h"
#include "sql/eval.h"
#include "sql/printer.h"

namespace cacheportal::db {

namespace {

using sql::ColumnRefExpr;
using sql::Expression;
using sql::ExpressionPtr;
using sql::ExprKind;
using sql::Value;

/// One table bound into the FROM clause.
struct BoundTable {
  std::string effective_name;  // Alias if present, else table name.
  const Table* table = nullptr;
};

/// The (tuple position, column index) a column reference names: a
/// qualified one in the first table so named, an unqualified one in the
/// only table that has the column. std::nullopt if none (or ambiguous).
std::optional<std::pair<size_t, size_t>> SlotOf(
    const std::vector<BoundTable>& tables, const std::string& table,
    const std::string& column) {
  std::optional<std::pair<size_t, size_t>> found;
  for (size_t t = 0; t < tables.size(); ++t) {
    if (!table.empty() && !EqualsIgnoreCase(tables[t].effective_name, table)) {
      continue;
    }
    std::optional<size_t> idx = tables[t].table->schema().ColumnIndex(column);
    if (!table.empty()) {
      if (!idx.has_value()) return std::nullopt;
      return std::make_pair(t, *idx);
    }
    if (!idx.has_value()) continue;
    if (found.has_value()) return std::nullopt;  // Ambiguous.
    found = std::make_pair(t, *idx);
  }
  return found;
}

/// Resolves column references against a tuple (db::Tuple). A reference to
/// a table not joined yet (a nullptr entry) does not resolve.
class TupleResolver : public sql::ColumnResolver {
 public:
  TupleResolver(const std::vector<BoundTable>& tables, Tuple tuple)
      : tables_(tables), tuple_(tuple) {}

  std::optional<Value> Resolve(const std::string& table,
                               const std::string& column) const override {
    auto slot = SlotOf(tables_, table, column);
    if (!slot.has_value() || tuple_[slot->first] == nullptr) {
      return std::nullopt;
    }
    return (*tuple_[slot->first])[slot->second];
  }

 private:
  const std::vector<BoundTable>& tables_;
  Tuple tuple_;
};

/// An expression evaluated per tuple: a column reference bound to its slot
/// once per statement, anything else through a TupleResolver.
struct BoundExpr {
  const Expression* expr = nullptr;
  std::optional<std::pair<size_t, size_t>> slot;

  Result<Value> Eval(const std::vector<BoundTable>& tables,
                     Tuple tuple) const {
    if (slot.has_value()) return (*tuple[slot->first])[slot->second];
    return sql::EvalExpr(*expr, TupleResolver(tables, tuple));
  }
};

/// The set of bound-table positions a conjunct references. Unqualified
/// columns are attributed to the unique owning table (error if ambiguous).
Result<std::vector<size_t>> ConjunctTables(
    const Expression& conjunct, const std::vector<BoundTable>& tables) {
  std::vector<size_t> used;
  for (const ColumnRefExpr* ref : sql::CollectColumnRefs(conjunct)) {
    int found = -1;
    if (!ref->table().empty()) {
      for (size_t i = 0; i < tables.size(); ++i) {
        if (EqualsIgnoreCase(tables[i].effective_name, ref->table())) {
          found = static_cast<int>(i);
          break;
        }
      }
      if (found < 0) {
        return Status::InvalidArgument(
            StrCat("unknown table in reference ", ref->FullName()));
      }
    } else {
      for (size_t i = 0; i < tables.size(); ++i) {
        if (tables[i].table->schema().ColumnIndex(ref->column()).has_value()) {
          if (found >= 0) {
            return Status::InvalidArgument(
                StrCat("ambiguous column ", ref->column()));
          }
          found = static_cast<int>(i);
        }
      }
      if (found < 0) {
        return Status::InvalidArgument(
            StrCat("unknown column ", ref->column()));
      }
    }
    if (std::find(used.begin(), used.end(), static_cast<size_t>(found)) ==
        used.end()) {
      used.push_back(static_cast<size_t>(found));
    }
  }
  return used;
}

/// Detects an equi-join conjunct `a.x = b.y` between the table being added
/// (`added`) and any already-joined table.
struct EquiJoin {
  // The already-joined side: table position and column index.
  size_t outer_table = 0;
  size_t outer_col = 0;
  // Column index within the added table.
  size_t inner_col = 0;
};

std::optional<EquiJoin> AsEquiJoin(const Expression& conjunct,
                                   const std::vector<BoundTable>& tables,
                                   size_t added,
                                   const std::vector<bool>& joined) {
  if (conjunct.kind() != ExprKind::kBinary) return std::nullopt;
  const auto& bin = static_cast<const sql::BinaryExpr&>(conjunct);
  if (bin.op() != sql::BinaryOp::kEq) return std::nullopt;
  if (bin.left().kind() != ExprKind::kColumnRef ||
      bin.right().kind() != ExprKind::kColumnRef) {
    return std::nullopt;
  }
  auto locate = [&](const ColumnRefExpr& ref)
      -> std::optional<std::pair<size_t, size_t>> {  // (table pos, col idx)
    for (size_t i = 0; i < tables.size(); ++i) {
      if (!ref.table().empty() &&
          !EqualsIgnoreCase(tables[i].effective_name, ref.table())) {
        continue;
      }
      std::optional<size_t> idx =
          tables[i].table->schema().ColumnIndex(ref.column());
      if (idx.has_value()) return std::make_pair(i, *idx);
      if (!ref.table().empty()) return std::nullopt;
    }
    return std::nullopt;
  };
  auto l = locate(static_cast<const ColumnRefExpr&>(bin.left()));
  auto r = locate(static_cast<const ColumnRefExpr&>(bin.right()));
  if (!l.has_value() || !r.has_value()) return std::nullopt;
  // Want one side == added, other side already joined.
  if (l->first == added && joined[r->first]) {
    return EquiJoin{r->first, r->second, l->second};
  }
  if (r->first == added && joined[l->first]) {
    return EquiJoin{l->first, l->second, r->second};
  }
  return std::nullopt;
}

/// Accumulator for one aggregate function instance.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool all_int = true;
  int64_t isum = 0;
  std::optional<Value> min;
  std::optional<Value> max;

  void Accumulate(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (v.is_numeric()) {
      sum += v.NumericAsDouble();
      if (v.is_int()) {
        isum += v.AsInt();
      } else {
        all_int = false;
      }
    } else {
      all_int = false;
    }
    if (!min.has_value() || v.Compare(*min).value_or(1) < 0) min = v;
    if (!max.has_value() || v.Compare(*max).value_or(-1) > 0) max = v;
  }

  Value Finish(const std::string& fn) const {
    if (fn == "COUNT") return Value::Int(count);
    if (count == 0) return Value::Null();
    if (fn == "SUM") return all_int ? Value::Int(isum) : Value::Double(sum);
    if (fn == "AVG") return Value::Double(sum / static_cast<double>(count));
    if (fn == "MIN") return *min;
    if (fn == "MAX") return *max;
    return Value::Null();
  }
};

/// Output column name for a select item.
std::string ItemName(const sql::SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr != nullptr) {
    if (item.expr->kind() == ExprKind::kColumnRef) {
      return static_cast<const ColumnRefExpr&>(*item.expr).column();
    }
    return sql::ExprToSql(*item.expr);
  }
  return StrCat("col", index);
}

/// Collects aggregate function calls in `expr` (for HAVING evaluation);
/// does not descend into aggregate arguments.
void CollectAggregates(const Expression& expr,
                       std::vector<const sql::FunctionCallExpr*>* out) {
  switch (expr.kind()) {
    case ExprKind::kFunctionCall: {
      const auto& f = static_cast<const sql::FunctionCallExpr&>(expr);
      if (f.IsAggregate()) {
        out->push_back(&f);
        return;
      }
      for (const auto& a : f.args()) CollectAggregates(*a, out);
      return;
    }
    case ExprKind::kUnary:
      CollectAggregates(static_cast<const sql::UnaryExpr&>(expr).operand(),
                        out);
      return;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(expr);
      CollectAggregates(b.left(), out);
      CollectAggregates(b.right(), out);
      return;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      CollectAggregates(in.operand(), out);
      for (const auto& item : in.items()) CollectAggregates(*item, out);
      return;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const sql::BetweenExpr&>(expr);
      CollectAggregates(bt.operand(), out);
      CollectAggregates(bt.low(), out);
      CollectAggregates(bt.high(), out);
      return;
    }
    case ExprKind::kIsNull:
      CollectAggregates(static_cast<const sql::IsNullExpr&>(expr).operand(),
                        out);
      return;
    default:
      return;
  }
}

/// Rewrites `expr` with each aggregate call replaced by its computed
/// value (`values[i]` corresponds to `aggs[i]`), so HAVING can be
/// evaluated as a scalar predicate per group.
ExpressionPtr RewriteAggregatesToValues(
    const Expression& expr,
    const std::vector<const sql::FunctionCallExpr*>& aggs,
    const std::vector<Value>& values) {
  if (expr.kind() == ExprKind::kFunctionCall) {
    const auto& f = static_cast<const sql::FunctionCallExpr&>(expr);
    if (f.IsAggregate()) {
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (aggs[i]->Equals(f)) {
          return std::make_unique<sql::LiteralExpr>(values[i]);
        }
      }
    }
  }
  switch (expr.kind()) {
    case ExprKind::kUnary: {
      const auto& u = static_cast<const sql::UnaryExpr&>(expr);
      return std::make_unique<sql::UnaryExpr>(
          u.op(), RewriteAggregatesToValues(u.operand(), aggs, values));
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(expr);
      return std::make_unique<sql::BinaryExpr>(
          b.op(), RewriteAggregatesToValues(b.left(), aggs, values),
          RewriteAggregatesToValues(b.right(), aggs, values));
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      std::vector<ExpressionPtr> items;
      items.reserve(in.items().size());
      for (const auto& item : in.items()) {
        items.push_back(RewriteAggregatesToValues(*item, aggs, values));
      }
      return std::make_unique<sql::InListExpr>(
          RewriteAggregatesToValues(in.operand(), aggs, values),
          std::move(items), in.negated());
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const sql::BetweenExpr&>(expr);
      return std::make_unique<sql::BetweenExpr>(
          RewriteAggregatesToValues(bt.operand(), aggs, values),
          RewriteAggregatesToValues(bt.low(), aggs, values),
          RewriteAggregatesToValues(bt.high(), aggs, values), bt.negated());
    }
    case ExprKind::kIsNull: {
      const auto& n = static_cast<const sql::IsNullExpr&>(expr);
      return std::make_unique<sql::IsNullExpr>(
          RewriteAggregatesToValues(n.operand(), aggs, values), n.negated());
    }
    default:
      return expr.Clone();
  }
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    std::optional<int> c = a[i].Compare(b[i]);
    if (c.has_value() && *c != 0) return *c < 0;
    if (!c.has_value()) {
      // Order NULLs/mixed types by hash for determinism.
      size_t ha = a[i].Hash(), hb = b[i].Hash();
      if (ha != hb) return ha < hb;
    }
  }
  return a.size() < b.size();
}

}  // namespace

Result<QueryResult> Executor::Execute(const sql::SelectStatement& stmt) const {
  // ---- Bind FROM tables. ----
  if (stmt.from.empty()) {
    return Status::InvalidArgument("SELECT requires a FROM clause");
  }
  std::vector<BoundTable> tables;
  for (const sql::TableRef& ref : stmt.from) {
    const Table* table = db_->FindTable(ref.table);
    if (table == nullptr) {
      return Status::NotFound(StrCat("table ", ref.table));
    }
    tables.push_back(BoundTable{ref.EffectiveName(), table});
  }
  const size_t width = tables.size();

  // ---- Classify WHERE conjuncts. ----
  std::vector<const Expression*> conjuncts;
  if (stmt.where != nullptr) conjuncts = sql::SplitConjuncts(*stmt.where);
  // Per-table single-table conjuncts; the rest apply once their last table
  // (in FROM order) has been joined.
  std::vector<std::vector<const Expression*>> single(width);
  std::vector<std::vector<const Expression*>> multi(width);
  for (const Expression* c : conjuncts) {
    CACHEPORTAL_ASSIGN_OR_RETURN(std::vector<size_t> used,
                                 ConjunctTables(*c, tables));
    if (used.empty()) {
      // Constant conjunct: fold it now.
      sql::FoldResult fr = sql::FoldConstants(*c);
      if (fr.outcome == sql::FoldOutcome::kFalse ||
          fr.outcome == sql::FoldOutcome::kNull) {
        QueryResult empty;
        for (size_t i = 0; i < stmt.items.size(); ++i) {
          empty.columns.push_back(ItemName(stmt.items[i], i));
        }
        return empty;
      }
      if (fr.outcome == sql::FoldOutcome::kTrue) continue;
      return Status::InvalidArgument(
          "non-constant parameter in WHERE (bind parameters first)");
    }
    if (used.size() == 1) {
      single[used[0]].push_back(c);
    } else {
      multi[*std::max_element(used.begin(), used.end())].push_back(c);
    }
  }
  // Column references bound to tuple slots, as TupleResolver binds them.
  auto slot_of = [&](const ColumnRefExpr& ref) {
    return SlotOf(tables, ref.table(), ref.column());
  };
  auto bind = [&](const Expression& expr) {
    BoundExpr bound{&expr, std::nullopt};
    if (expr.kind() == ExprKind::kColumnRef) {
      bound.slot = slot_of(static_cast<const ColumnRefExpr&>(expr));
    }
    return bound;
  };

  // ---- Row sources, each through the access-path chooser. ----
  // Tuples are stored flat, `width` row pointers each.
  std::vector<const Row*> current;
  {
    TableAccess first(tables[0].table, tables[0].effective_name, single[0]);
    CACHEPORTAL_ASSIGN_OR_RETURN(std::vector<RowRef> rows, first.Select());
    current.assign(rows.size() * width, nullptr);
    for (size_t r = 0; r < rows.size(); ++r) current[r * width] = rows[r].row;
  }
  std::vector<bool> joined(width, false);
  joined[0] = true;

  // ---- Join remaining tables in FROM order. ----
  for (size_t pos = 1; pos < width; ++pos) {
    const BoundTable& bt = tables[pos];
    TableAccess inner(bt.table, bt.effective_name, single[pos]);

    // An equi-join conjunct drives the join; one whose inner column is
    // indexed allows an index nested-loop join.
    std::optional<EquiJoin> equi;
    for (const Expression* c : multi[pos]) {
      std::optional<EquiJoin> e = AsEquiJoin(*c, tables, pos, joined);
      if (!e.has_value()) continue;
      if (!equi.has_value()) equi = e;
      if (bt.table->HasIndex(e->inner_col)) {
        equi = e;
        break;
      }
    }
    const size_t outer_rows = current.size() / width;
    std::vector<const Value*> keys(outer_rows, nullptr);
    if (equi.has_value()) {
      for (size_t i = 0; i < outer_rows; ++i) {
        keys[i] = &(*current[i * width + equi->outer_table])[equi->outer_col];
      }
    }
    CACHEPORTAL_ASSIGN_OR_RETURN(
        auto pairs,
        inner.Join(keys, equi.has_value()
                             ? std::optional<size_t>(equi->inner_col)
                             : std::nullopt));

    // Keep the pairs that pass the conjuncts this table completes.
    std::vector<std::pair<const Expression*, std::optional<SlotPredicate>>>
        completes;
    for (const Expression* c : multi[pos]) {
      completes.emplace_back(c, SlotPredicate::Compile(*c, slot_of));
    }
    std::vector<const Row*> next;
    next.reserve(pairs.size() * width);
    for (const auto& [outer, row] : pairs) {
      next.insert(next.end(), current.begin() + outer * width,
                  current.begin() + (outer + 1) * width);
      const Row** tuple = next.data() + next.size() - width;
      tuple[pos] = row;
      for (const auto& [c, compiled] : completes) {
        bool pass;
        if (compiled.has_value()) {
          pass = compiled->IsTrue(tuple);
        } else {
          CACHEPORTAL_ASSIGN_OR_RETURN(
              std::optional<bool> t,
              sql::EvalPredicate(*c, TupleResolver(tables, tuple)));
          pass = t.has_value() && *t;
        }
        if (!pass) {
          next.resize(next.size() - width);
          break;
        }
      }
    }
    joined[pos] = true;
    current = std::move(next);
  }
  const size_t num_tuples = current.size() / width;
  auto tuple_at = [&](size_t r) -> Tuple { return current.data() + r * width; };

  // ---- Projection / aggregation. ----
  QueryResult result;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const sql::SelectItem& item = stmt.items[i];
    if (item.star) {
      for (const BoundTable& bt : tables) {
        if (!item.star_table.empty() &&
            !EqualsIgnoreCase(bt.effective_name, item.star_table)) {
          continue;
        }
        for (const ColumnDef& col : bt.table->schema().columns()) {
          result.columns.push_back(col.name);
        }
      }
    } else {
      result.columns.push_back(ItemName(item, i));
    }
  }

  bool has_aggregate =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(), [](const auto& item) {
        return item.expr != nullptr &&
               item.expr->kind() == ExprKind::kFunctionCall &&
               static_cast<const sql::FunctionCallExpr&>(*item.expr)
                   .IsAggregate();
      });

  if (has_aggregate) {
    // Group rows by the GROUP BY key (single global group when empty).
    struct Group {
      Row key;
      std::vector<AggState> states;
      std::vector<const Row*> representative;
    };
    std::map<std::string, Group> groups;
    std::vector<Row> null_rows;  // The empty input's representative.
    size_t num_aggs = 0;
    for (const auto& item : stmt.items) {
      if (item.expr != nullptr &&
          item.expr->kind() == ExprKind::kFunctionCall) {
        ++num_aggs;
      }
    }
    // HAVING may reference aggregates beyond the select list; they get
    // their own accumulator slots after the select-list ones.
    std::vector<const sql::FunctionCallExpr*> having_aggs;
    if (stmt.having != nullptr) {
      CollectAggregates(*stmt.having, &having_aggs);
    }
    const size_t total_aggs = num_aggs + having_aggs.size();
    // Per accumulator slot: its argument, or nullptr for COUNT(*) and
    // argument-less calls (which accumulate 1 and nothing).
    std::vector<std::optional<BoundExpr>> agg_args;
    std::vector<bool> agg_star;
    auto add_agg = [&](const sql::FunctionCallExpr& fn) {
      agg_star.push_back(fn.star());
      agg_args.push_back(fn.star() || fn.args().empty()
                             ? std::nullopt
                             : std::optional<BoundExpr>(bind(*fn.args()[0])));
    };
    for (const auto& item : stmt.items) {
      if (item.expr != nullptr &&
          item.expr->kind() == ExprKind::kFunctionCall) {
        add_agg(static_cast<const sql::FunctionCallExpr&>(*item.expr));
      }
    }
    for (const sql::FunctionCallExpr* fn : having_aggs) add_agg(*fn);
    std::vector<BoundExpr> group_by;
    for (const auto& g : stmt.group_by) group_by.push_back(bind(*g));
    for (size_t r = 0; r < num_tuples; ++r) {
      Tuple tuple = tuple_at(r);
      Row key;
      std::string key_str;
      for (const BoundExpr& g : group_by) {
        CACHEPORTAL_ASSIGN_OR_RETURN(Value v, g.Eval(tables, tuple));
        key_str += v.ToSqlLiteral();
        key_str += '\x1f';
        key.push_back(std::move(v));
      }
      auto [it, inserted] = groups.try_emplace(key_str);
      Group& group = it->second;
      if (inserted) {
        group.key = std::move(key);
        group.states.resize(total_aggs);
        group.representative.assign(tuple, tuple + width);
      }
      for (size_t a = 0; a < total_aggs; ++a) {
        if (agg_star[a]) {
          group.states[a].Accumulate(Value::Int(1));
        } else if (agg_args[a].has_value()) {
          CACHEPORTAL_ASSIGN_OR_RETURN(Value v,
                                       agg_args[a]->Eval(tables, tuple));
          group.states[a].Accumulate(v);
        }
      }
    }
    // Empty input with no GROUP BY still yields one row of aggregates.
    if (groups.empty() && stmt.group_by.empty()) {
      Group& g = groups[""];
      g.states.resize(total_aggs);
      for (const BoundTable& bt : tables) {
        null_rows.emplace_back(bt.table->schema().num_columns(),
                               Value::Null());
      }
      for (const Row& row : null_rows) g.representative.push_back(&row);
    }
    for (auto& [key_str, group] : groups) {
      TupleResolver resolver(tables, group.representative.data());
      if (stmt.having != nullptr) {
        std::vector<Value> agg_values;
        agg_values.reserve(having_aggs.size());
        for (size_t h = 0; h < having_aggs.size(); ++h) {
          agg_values.push_back(
              group.states[num_aggs + h].Finish(having_aggs[h]->name()));
        }
        ExpressionPtr predicate = RewriteAggregatesToValues(
            *stmt.having, having_aggs, agg_values);
        CACHEPORTAL_ASSIGN_OR_RETURN(
            std::optional<bool> keep,
            sql::EvalPredicate(*predicate, resolver));
        if (!keep.has_value() || !*keep) continue;
      }
      Row out;
      size_t agg_index = 0;
      for (const auto& item : stmt.items) {
        if (item.star) {
          return Status::InvalidArgument("'*' not allowed with aggregates");
        }
        if (item.expr->kind() == ExprKind::kFunctionCall) {
          const auto& fn =
              static_cast<const sql::FunctionCallExpr&>(*item.expr);
          out.push_back(group.states[agg_index++].Finish(fn.name()));
        } else {
          CACHEPORTAL_ASSIGN_OR_RETURN(Value v,
                                       sql::EvalExpr(*item.expr, resolver));
          out.push_back(std::move(v));
        }
      }
      result.rows.push_back(std::move(out));
    }
  } else {
    std::vector<std::optional<BoundExpr>> items;
    for (const auto& item : stmt.items) {
      items.push_back(item.star ? std::nullopt
                                : std::optional<BoundExpr>(bind(*item.expr)));
    }
    result.rows.reserve(num_tuples);
    for (size_t r = 0; r < num_tuples; ++r) {
      Tuple tuple = tuple_at(r);
      Row out;
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        const sql::SelectItem& item = stmt.items[i];
        if (item.star) {
          for (size_t t = 0; t < width; ++t) {
            if (!item.star_table.empty() &&
                !EqualsIgnoreCase(tables[t].effective_name,
                                  item.star_table)) {
              continue;
            }
            out.insert(out.end(), tuple[t]->begin(), tuple[t]->end());
          }
        } else {
          CACHEPORTAL_ASSIGN_OR_RETURN(Value v, items[i]->Eval(tables, tuple));
          out.push_back(std::move(v));
        }
      }
      result.rows.push_back(std::move(out));
    }
  }

  // ---- DISTINCT. ----
  if (stmt.distinct) {
    std::sort(result.rows.begin(), result.rows.end(), RowLess);
    result.rows.erase(std::unique(result.rows.begin(), result.rows.end()),
                      result.rows.end());
  }

  // ---- ORDER BY. ----
  if (!stmt.order_by.empty()) {
    struct Keyed {
      Row keys;
      Row row;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(result.rows.size());
    bool rows_track_composites = !stmt.distinct && !has_aggregate;
    // Pre-resolve order-by expressions to output-column positions (by
    // alias or column name); used when projected rows no longer line up
    // with the composite rows (DISTINCT / aggregates).
    std::vector<int> out_positions(stmt.order_by.size(), -1);
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      const Expression& e = *stmt.order_by[i].expr;
      std::string name;
      if (e.kind() == ExprKind::kColumnRef) {
        name = static_cast<const ColumnRefExpr&>(e).column();
      } else {
        name = sql::ExprToSql(e);
      }
      for (size_t c = 0; c < result.columns.size(); ++c) {
        if (EqualsIgnoreCase(result.columns[c], name)) {
          out_positions[i] = static_cast<int>(c);
          break;
        }
      }
      if (!rows_track_composites && out_positions[i] < 0) {
        return Status::NotSupported(
            StrCat("ORDER BY expression '", name,
                   "' must name an output column when used with DISTINCT "
                   "or aggregates"));
      }
    }
    for (size_t r = 0; r < result.rows.size(); ++r) {
      Keyed k;
      k.row = result.rows[r];
      for (size_t i = 0; i < stmt.order_by.size(); ++i) {
        if (out_positions[i] >= 0) {
          k.keys.push_back(k.row[static_cast<size_t>(out_positions[i])]);
        } else {
          TupleResolver resolver(tables, tuple_at(r));
          Result<Value> v = sql::EvalExpr(*stmt.order_by[i].expr, resolver);
          k.keys.push_back(v.ok() ? std::move(v).value() : Value::Null());
        }
      }
      keyed.push_back(std::move(k));
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const Keyed& a, const Keyed& b) {
                       for (size_t i = 0; i < stmt.order_by.size(); ++i) {
                         std::optional<int> c = a.keys[i].Compare(b.keys[i]);
                         if (c.has_value() && *c != 0) {
                           return stmt.order_by[i].ascending ? *c < 0 : *c > 0;
                         }
                       }
                       return false;
                     });
    for (size_t r = 0; r < keyed.size(); ++r) {
      result.rows[r] = std::move(keyed[r].row);
    }
  }

  // ---- LIMIT. ----
  if (stmt.limit.has_value() &&
      result.rows.size() > static_cast<size_t>(*stmt.limit)) {
    result.rows.resize(static_cast<size_t>(*stmt.limit));
  }

  return result;
}

}  // namespace cacheportal::db
