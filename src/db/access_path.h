#ifndef CACHEPORTAL_DB_ACCESS_PATH_H_
#define CACHEPORTAL_DB_ACCESS_PATH_H_

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "db/table.h"
#include "sql/ast.h"
#include "sql/eval.h"

namespace cacheportal::db {

/// Resolves column references against one stored row of `schema`, whose
/// table the statement calls `name` (its alias, else its table name).
class TableRowResolver : public sql::ColumnResolver {
 public:
  TableRowResolver(const TableSchema& schema, const std::string& name,
                   const Row& row)
      : schema_(schema), name_(name), row_(row) {}

  std::optional<sql::Value> Resolve(const std::string& table,
                                    const std::string& column) const override;

 private:
  const TableSchema& schema_;
  const std::string& name_;
  const Row& row_;
};

/// A joined row: one stored row per FROM table, in FROM order.
using Tuple = const Row* const*;

/// A predicate compiled to column slots, decided without resolving names:
/// comparisons (not LIKE) between columns and literals, non-negated IN
/// lists of literals, and AND/OR of these. IsTrue() equals
/// `EvalPredicate(expr) == TRUE` under 3VL: those nodes never fail, and
/// TRUE-ness composes through AND and OR (NOT would not, so it is left
/// out).
class SlotPredicate {
 public:
  /// (tuple position, column index) of a column reference, if it binds.
  using SlotOf = std::function<std::optional<std::pair<size_t, size_t>>(
      const sql::ColumnRefExpr&)>;

  /// std::nullopt when `expr` holds any other node or an unbound column.
  static std::optional<SlotPredicate> Compile(const sql::Expression& expr,
                                              const SlotOf& slot_of);

  /// Reads only the tuple positions the predicate references.
  bool IsTrue(Tuple tuple) const { return IsTrue(0, tuple); }

 private:
  struct Operand {
    size_t table = 0;
    size_t column = 0;
    const sql::Value* literal = nullptr;  // Else a column.

    const sql::Value& Get(Tuple tuple) const {
      return literal != nullptr ? *literal : (*tuple[table])[column];
    }
  };
  /// A literal or a bound column; std::nullopt for anything else.
  static std::optional<Operand> OperandOf(const sql::Expression& expr,
                                          const SlotOf& slot_of);

  enum class Kind { kCompare, kIn, kAnd, kOr };
  /// One node; nodes_[0] is the root. AND/OR chains are flattened into
  /// one node whose children are kids_[begin, end); an IN node's items
  /// are items_[begin, end).
  struct Node {
    Kind kind = Kind::kCompare;
    sql::BinaryOp op = sql::BinaryOp::kEq;
    Operand left, right;
    uint32_t begin = 0, end = 0;
  };

  /// Appends the node for `expr` and returns its index, or std::nullopt.
  std::optional<uint32_t> Add(const sql::Expression& expr,
                              const SlotOf& slot_of);
  /// Compiles the operands of the `kind` chain rooted at `expr` into
  /// `children`.
  bool AddChain(const sql::Expression& expr, sql::BinaryOp kind,
                const SlotOf& slot_of, std::vector<uint32_t>* children);
  bool IsTrue(uint32_t node, Tuple tuple) const;

  std::vector<Node> nodes_;
  std::vector<uint32_t> kids_;
  std::vector<const sql::Value*> items_;
};

/// A stored row and its id.
struct RowRef {
  RowId id = 0;
  const Row* row = nullptr;
};

/// The access-path chooser: every row source of the executor and of
/// DELETE/UPDATE goes through one of these. It holds one table's
/// single-table conjuncts (each must reference only this table) and
/// picks among five paths (DESIGN.md §17):
///  - an index seek on `col = literal`;
///  - an index union, when a conjunct is an OR (or an IN list) whose every
///    disjunct carries an indexable equality;
///  - an index nested-loop join, when the table is the inner side of an
///    equi-join on an indexed column and the outer side has fewer rows;
///  - a hash join, for any other equi-join;
///  - a full scan, the last resort.
/// Indexes only narrow the candidates: every candidate is re-checked
/// against the conjuncts, so a path never changes which rows qualify.
/// Every path emits rows in nested-loop order: outer order first, then
/// inner RowId ascending.
class TableAccess {
 public:
  TableAccess(const Table* table, std::string name,
              const std::vector<const sql::Expression*>& conjuncts);

  /// True iff every conjunct is TRUE for `row`, evaluated in order up to
  /// the first that is not. Conjuncts a SlotPredicate can hold are decided
  /// by column slot; the others through a TableRowResolver.
  Result<bool> Matches(const Row& row) const;

  /// The rows satisfying every conjunct, in ascending RowId order, through
  /// the seek or union that touches the fewest rows, else a full scan.
  Result<std::vector<RowRef>> Select() const;

  /// Joins this table as the inner side of one step of a left-deep join.
  /// `outer_keys` has one entry per outer row, in outer order. With an
  /// equi-join column (`column`, this table's side of `outer = inner`),
  /// entry i points at outer row i's join value and the result pairs i
  /// with the satisfying inner rows whose `column` may equal it (a
  /// superset of the equal ones, which the caller re-checks). Without
  /// one, the entries are ignored and every satisfying inner row pairs
  /// with every outer row.
  Result<std::vector<std::pair<size_t, const Row*>>> Join(
      std::span<const sql::Value* const> outer_keys,
      std::optional<size_t> column) const;

 private:
  /// A conjunct, compiled when a SlotPredicate can hold it.
  struct Conjunct {
    const sql::Expression* expr = nullptr;
    std::optional<SlotPredicate> compiled;
  };

  /// This table's column slot for `expr`, if it is a column reference to
  /// this table.
  std::optional<size_t> SlotOf(const sql::Expression& expr) const;

  /// Appends to `out` index matches whose union holds every row for
  /// which `expr` is TRUE. False when no index covers `expr` (then `out`
  /// holds partial matches the caller discards).
  bool Cover(const sql::Expression& expr, std::vector<IndexMatch>* out) const;

  /// Appends to `out` the rows among `ids` (ascending) that match.
  Status AppendMatching(std::span<const RowId> ids,
                        std::vector<RowRef>* out) const;

  const Table* table_;
  std::string name_;
  std::vector<Conjunct> conjuncts_;
};

}  // namespace cacheportal::db

#endif  // CACHEPORTAL_DB_ACCESS_PATH_H_
