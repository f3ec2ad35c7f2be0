#include "db/access_path.h"

#include <algorithm>
#include <unordered_map>

#include "common/strings.h"

namespace cacheportal::db {

namespace {

using sql::BinaryExpr;
using sql::BinaryOp;
using sql::ExprKind;
using sql::Expression;
using sql::Value;

/// `left <op> right` under 3VL, exactly as sql::EvalComparison decides
/// it: NULL or incomparable types are never TRUE.
bool CompareTrue(const Value& left, BinaryOp op, const Value& right) {
  std::optional<int> c = left.Compare(right);
  if (!c.has_value()) return false;
  switch (op) {
    case BinaryOp::kEq:
      return *c == 0;
    case BinaryOp::kNotEq:
      return *c != 0;
    case BinaryOp::kLt:
      return *c < 0;
    case BinaryOp::kLtEq:
      return *c <= 0;
    case BinaryOp::kGt:
      return *c > 0;
    case BinaryOp::kGtEq:
      return *c >= 0;
    default:
      return false;
  }
}

size_t CoverSize(std::span<const IndexMatch> cover) {
  size_t n = 0;
  for (const IndexMatch& m : cover) n += m.size();
  return n;
}

}  // namespace

std::optional<SlotPredicate::Operand> SlotPredicate::OperandOf(
    const Expression& expr, const SlotOf& slot_of) {
  Operand operand;
  if (expr.kind() == ExprKind::kLiteral) {
    operand.literal = &static_cast<const sql::LiteralExpr&>(expr).value();
    return operand;
  }
  if (expr.kind() != ExprKind::kColumnRef) return std::nullopt;
  auto slot = slot_of(static_cast<const sql::ColumnRefExpr&>(expr));
  if (!slot.has_value()) return std::nullopt;
  operand.table = slot->first;
  operand.column = slot->second;
  return operand;
}

std::optional<SlotPredicate> SlotPredicate::Compile(const Expression& expr,
                                                    const SlotOf& slot_of) {
  SlotPredicate pred;
  if (!pred.Add(expr, slot_of).has_value()) return std::nullopt;
  return pred;
}

bool SlotPredicate::AddChain(const Expression& expr, BinaryOp kind,
                             const SlotOf& slot_of,
                             std::vector<uint32_t>* children) {
  if (expr.kind() == ExprKind::kBinary &&
      static_cast<const BinaryExpr&>(expr).op() == kind) {
    const auto& bin = static_cast<const BinaryExpr&>(expr);
    return AddChain(bin.left(), kind, slot_of, children) &&
           AddChain(bin.right(), kind, slot_of, children);
  }
  std::optional<uint32_t> child = Add(expr, slot_of);
  if (!child.has_value()) return false;
  children->push_back(*child);
  return true;
}

std::optional<uint32_t> SlotPredicate::Add(const Expression& expr,
                                           const SlotOf& slot_of) {
  const uint32_t index = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  if (expr.kind() == ExprKind::kInList) {
    const auto& in = static_cast<const sql::InListExpr&>(expr);
    if (in.negated()) return std::nullopt;
    std::optional<Operand> operand = OperandOf(in.operand(), slot_of);
    if (!operand.has_value()) return std::nullopt;
    Node& node = nodes_[index];
    node.kind = Kind::kIn;
    node.left = *operand;
    node.begin = static_cast<uint32_t>(items_.size());
    for (const sql::ExpressionPtr& item : in.items()) {
      if (item->kind() != ExprKind::kLiteral) return std::nullopt;
      items_.push_back(&static_cast<const sql::LiteralExpr&>(*item).value());
    }
    node.end = static_cast<uint32_t>(items_.size());
    return index;
  }
  if (expr.kind() != ExprKind::kBinary) return std::nullopt;
  const auto& bin = static_cast<const BinaryExpr&>(expr);
  if (bin.op() == BinaryOp::kAnd || bin.op() == BinaryOp::kOr) {
    std::vector<uint32_t> children;
    if (!AddChain(bin, bin.op(), slot_of, &children)) return std::nullopt;
    Node& node = nodes_[index];
    node.kind = bin.op() == BinaryOp::kAnd ? Kind::kAnd : Kind::kOr;
    node.begin = static_cast<uint32_t>(kids_.size());
    kids_.insert(kids_.end(), children.begin(), children.end());
    node.end = static_cast<uint32_t>(kids_.size());
    return index;
  }
  if (!sql::IsComparisonOp(bin.op()) || bin.op() == BinaryOp::kLike) {
    return std::nullopt;
  }
  std::optional<Operand> left = OperandOf(bin.left(), slot_of);
  std::optional<Operand> right = OperandOf(bin.right(), slot_of);
  if (!left.has_value() || !right.has_value()) return std::nullopt;
  Node& node = nodes_[index];
  node.op = bin.op();
  node.left = *left;
  node.right = *right;
  return index;
}

bool SlotPredicate::IsTrue(uint32_t index, Tuple tuple) const {
  const Node& node = nodes_[index];
  switch (node.kind) {
    case Kind::kCompare:
      return CompareTrue(node.left.Get(tuple), node.op, node.right.Get(tuple));
    case Kind::kIn: {
      const Value& v = node.left.Get(tuple);
      for (uint32_t i = node.begin; i < node.end; ++i) {
        if (CompareTrue(v, BinaryOp::kEq, *items_[i])) return true;
      }
      return false;
    }
    case Kind::kAnd:
      for (uint32_t i = node.begin; i < node.end; ++i) {
        if (!IsTrue(kids_[i], tuple)) return false;
      }
      return true;
    case Kind::kOr:
      for (uint32_t i = node.begin; i < node.end; ++i) {
        if (IsTrue(kids_[i], tuple)) return true;
      }
      return false;
  }
  return false;
}

std::optional<Value> TableRowResolver::Resolve(
    const std::string& table, const std::string& column) const {
  if (!table.empty() && !EqualsIgnoreCase(table, name_)) return std::nullopt;
  std::optional<size_t> idx = schema_.ColumnIndex(column);
  if (!idx.has_value()) return std::nullopt;
  return row_[*idx];
}

TableAccess::TableAccess(const Table* table, std::string name,
                         const std::vector<const Expression*>& conjuncts)
    : table_(table), name_(std::move(name)) {
  auto slot_of = [this](const sql::ColumnRefExpr& ref)
      -> std::optional<std::pair<size_t, size_t>> {
    std::optional<size_t> slot = SlotOf(ref);
    if (!slot.has_value()) return std::nullopt;
    return std::make_pair(size_t{0}, *slot);
  };
  conjuncts_.reserve(conjuncts.size());
  for (const Expression* expr : conjuncts) {
    conjuncts_.push_back(
        Conjunct{expr, SlotPredicate::Compile(*expr, slot_of)});
  }
}

std::optional<size_t> TableAccess::SlotOf(const Expression& expr) const {
  if (expr.kind() != ExprKind::kColumnRef) return std::nullopt;
  const auto& ref = static_cast<const sql::ColumnRefExpr&>(expr);
  // Statements usually spell the name exactly; compare that first.
  if (!ref.table().empty() && ref.table() != name_ &&
      !EqualsIgnoreCase(ref.table(), name_)) {
    return std::nullopt;
  }
  return table_->schema().ColumnIndex(ref.column());
}

Result<bool> TableAccess::Matches(const Row& row) const {
  const Row* tuple = &row;
  for (const Conjunct& c : conjuncts_) {
    if (c.compiled.has_value()) {
      if (!c.compiled->IsTrue(&tuple)) return false;
      continue;
    }
    TableRowResolver resolver(table_->schema(), name_, row);
    CACHEPORTAL_ASSIGN_OR_RETURN(std::optional<bool> t,
                                 sql::EvalPredicate(*c.expr, resolver));
    if (!t.has_value() || !*t) return false;
  }
  return true;
}

bool TableAccess::Cover(const Expression& expr,
                        std::vector<IndexMatch>* out) const {
  switch (expr.kind()) {
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      if (bin.op() == BinaryOp::kOr) {
        // TRUE needs one TRUE disjunct: cover each, take the union.
        return Cover(bin.left(), out) && Cover(bin.right(), out);
      }
      if (bin.op() == BinaryOp::kAnd) {
        // TRUE needs both sides TRUE: the smaller side's cover will do.
        const size_t base = out->size();
        if (!Cover(bin.left(), out)) {
          out->resize(base);
          return Cover(bin.right(), out);
        }
        std::vector<IndexMatch> right;
        if (Cover(bin.right(), &right) &&
            CoverSize(right) <
                CoverSize(std::span(*out).subspan(base))) {
          out->resize(base);
          out->insert(out->end(), right.begin(), right.end());
        }
        return true;
      }
      if (bin.op() != BinaryOp::kEq) return false;
      const Expression* column = &bin.left();
      const Expression* literal = &bin.right();
      if (column->kind() == ExprKind::kLiteral) std::swap(column, literal);
      if (literal->kind() != ExprKind::kLiteral) return false;
      std::optional<size_t> slot = SlotOf(*column);
      if (!slot.has_value()) return false;
      std::optional<IndexMatch> match = table_->IndexProbe(
          *slot, static_cast<const sql::LiteralExpr&>(*literal).value());
      if (!match.has_value()) return false;
      out->push_back(*match);
      return true;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      if (in.negated()) return false;
      std::optional<size_t> slot = SlotOf(in.operand());
      if (!slot.has_value()) return false;
      for (const sql::ExpressionPtr& item : in.items()) {
        if (item->kind() != ExprKind::kLiteral) return false;
        std::optional<IndexMatch> match = table_->IndexProbe(
            *slot, static_cast<const sql::LiteralExpr&>(*item).value());
        if (!match.has_value()) return false;
        out->push_back(*match);
      }
      return true;
    }
    default:
      return false;
  }
}

Status TableAccess::AppendMatching(std::span<const RowId> ids,
                                   std::vector<RowRef>* out) const {
  table_->BumpScanned(ids.size());
  for (RowId id : ids) {
    const Row* row = table_->Find(id);
    CACHEPORTAL_ASSIGN_OR_RETURN(bool match, Matches(*row));
    if (match) out->push_back(RowRef{id, row});
  }
  return Status::OK();
}

Result<std::vector<RowRef>> TableAccess::Select() const {
  // The conjunction is TRUE only where every conjunct is, so the
  // smallest cover among the conjuncts bounds it.
  std::optional<std::vector<IndexMatch>> best;
  std::vector<IndexMatch> cover;
  for (const Conjunct& c : conjuncts_) {
    cover.clear();
    if (Cover(*c.expr, &cover) &&
        (!best.has_value() || CoverSize(cover) < CoverSize(*best))) {
      best = cover;
    }
  }
  std::vector<RowRef> out;
  if (!best.has_value() || CoverSize(*best) >= table_->size()) {
    // Full scan.
    table_->BumpScanned(table_->size());
    for (const auto& [id, row] : table_->rows()) {
      CACHEPORTAL_ASSIGN_OR_RETURN(bool match, Matches(row));
      if (match) out.push_back(RowRef{id, &row});
    }
    return out;
  }
  // Disjuncts often probe the same key (a consolidated poll repeats the
  // update's value in each): keep each distinct list once.
  std::vector<std::span<const RowId>> lists;
  for (const IndexMatch& m : *best) {
    for (std::span<const RowId> list : {m.bucket, m.unkeyed}) {
      if (!list.empty()) lists.push_back(list);
    }
  }
  std::sort(lists.begin(), lists.end(), [](const auto& a, const auto& b) {
    return a.data() < b.data();
  });
  lists.erase(std::unique(lists.begin(), lists.end(),
                          [](const auto& a, const auto& b) {
                            return a.data() == b.data();
                          }),
              lists.end());
  if (lists.size() == 1) {
    // Index seek: one list, already ascending and distinct.
    CACHEPORTAL_RETURN_NOT_OK(AppendMatching(lists.front(), &out));
    return out;
  }
  // Index union: the lists merged, ascending and distinct.
  std::vector<RowId> ids;
  for (std::span<const RowId> list : lists) {
    ids.insert(ids.end(), list.begin(), list.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  CACHEPORTAL_RETURN_NOT_OK(AppendMatching(ids, &out));
  return out;
}

Result<std::vector<std::pair<size_t, const Row*>>> TableAccess::Join(
    std::span<const Value* const> outer_keys,
    std::optional<size_t> column) const {
  std::vector<std::pair<size_t, const Row*>> out;
  const size_t outer_rows = outer_keys.size();

  if (column.has_value() && table_->HasIndex(*column) &&
      outer_rows < table_->size()) {
    // Index nested-loop join: probe the inner index once per outer row.
    std::optional<std::vector<RowRef>> scanned;  // For keys that never key.
    std::vector<RowRef> inner;
    for (size_t i = 0; i < outer_rows; ++i) {
      std::optional<IndexMatch> match =
          table_->IndexProbe(*column, *outer_keys[i]);
      if (!match.has_value()) {
        if (!scanned.has_value()) {
          CACHEPORTAL_ASSIGN_OR_RETURN(scanned, Select());
        }
        for (const RowRef& r : *scanned) out.emplace_back(i, r.row);
        continue;
      }
      inner.clear();
      if (match->unkeyed.empty()) {
        CACHEPORTAL_RETURN_NOT_OK(AppendMatching(match->bucket, &inner));
      } else {
        CACHEPORTAL_RETURN_NOT_OK(AppendMatching(match->Merged(), &inner));
      }
      for (const RowRef& r : inner) out.emplace_back(i, r.row);
    }
    return out;
  }

  CACHEPORTAL_ASSIGN_OR_RETURN(std::vector<RowRef> inner, Select());
  if (!column.has_value()) {
    // Nested loop: every pair.
    out.reserve(outer_rows * inner.size());
    for (size_t i = 0; i < outer_rows; ++i) {
      for (const RowRef& r : inner) out.emplace_back(i, r.row);
    }
    return out;
  }

  // Hash join: build on the inner rows' positions (ascending RowId), probe
  // in outer order. Inner cells that never key meet every probe; a probe
  // that never keys meets every inner row; NULL meets nothing.
  std::unordered_map<Value, std::vector<uint32_t>, sql::ValueHash> buckets;
  std::vector<uint32_t> unkeyed;
  Value storage;
  for (uint32_t p = 0; p < inner.size(); ++p) {
    const Value& cell = (*inner[p].row)[*column];
    if (cell.is_null()) continue;
    const Value* key = EqualityKey(cell, &storage);
    if (key == nullptr) {
      unkeyed.push_back(p);
    } else {
      buckets[*key].push_back(p);
    }
  }
  std::vector<uint32_t> merged;
  for (size_t i = 0; i < outer_rows; ++i) {
    const Value& probe = *outer_keys[i];
    if (probe.is_null()) continue;
    const Value* key = EqualityKey(probe, &storage);
    if (key == nullptr) {
      for (const RowRef& r : inner) out.emplace_back(i, r.row);
      continue;
    }
    auto it = buckets.find(*key);
    std::span<const uint32_t> bucket;
    if (it != buckets.end()) bucket = it->second;
    if (unkeyed.empty()) {
      for (uint32_t p : bucket) out.emplace_back(i, inner[p].row);
      continue;
    }
    merged.clear();
    std::merge(bucket.begin(), bucket.end(), unkeyed.begin(), unkeyed.end(),
               std::back_inserter(merged));
    for (uint32_t p : merged) out.emplace_back(i, inner[p].row);
  }
  return out;
}

}  // namespace cacheportal::db
