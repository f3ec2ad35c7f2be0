#ifndef CACHEPORTAL_SQL_COLUMN_BATCH_H_
#define CACHEPORTAL_SQL_COLUMN_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sql/value.h"

namespace cacheportal::sql {

/// Class of one cell in a column batch, from the point of view of a
/// compiled anchor predicate (`column REL comparand`). The three-valued
/// contract mirrors EvalExpression exactly — exclusion downstream is
/// only sound on a definite FALSE:
///  - kNumeric / kString cells carry a comparable key; a same-class
///    comparison can fold FALSE, so only these rows are ever excluded.
///  - kAlways cells can never fold a comparison to FALSE: NULL makes
///    every comparison NULL, booleans are outside the indexed classes,
///    a missing cell (row shorter than the column index) is treated as
///    malformed and analyzed by everyone, and a numeric without a
///    NumericKey (NaN, or an int beyond ±2^53) cannot be compared
///    through a double key (a NaN key would also break the sorted probe
///    maps' strict weak ordering), so it rides the always lane.
enum class CellClass : uint8_t {
  kNumeric = 0,
  kString,
  kAlways,
};

/// The comparable key of a numeric value: Value::Compare's widening to
/// double, with -0.0 folded into +0.0 (equal, but hashes apart).
/// nullopt for NaN, which is unordered against every comparand, and for
/// an int beyond ±2^53: its widening is lossy while int–int comparisons
/// stay exact (2^53 < 2^53 + 1, yet both widen to 2^53). Values without
/// a key ride the always lane; they can exclude nothing.
std::optional<double> NumericKey(const Value& v);

/// One column of a batch: a class tag per row plus parallel key arrays.
/// `num[i]` is meaningful only where `klass[i] == kNumeric` (the cell's
/// NumericKey); `str[i]` only where `klass[i] == kString` (borrowed from
/// the source row). The flat tag + key layout keeps the per-entry
/// evaluation kernels branch-light and auto-vectorizable.
struct ColumnVector {
  std::vector<CellClass> klass;
  std::vector<double> num;
  std::vector<const std::string*> str;
  /// Rows per comparable class (kAlways is the remainder); a probe
  /// skips a whole value class — its kernels AND its always-candidate
  /// list — when the batch holds no rows of that class.
  size_t num_count = 0;
  size_t str_count = 0;

  size_t size() const { return klass.size(); }
};

/// A cycle delta materialized column-wise: one ColumnVector per source
/// column, plus a selection vector mapping batch positions back to the
/// source row list (identity today — the whole merged view is selected;
/// kernels report positions through it so a future filtered batch keeps
/// the same call sites). Rows are borrowed; the batch must not outlive
/// them.
class ColumnBatch {
 public:
  ColumnBatch() = default;

  /// Materializes `rows` (each a borrowed db::Row, i.e. a
  /// vector<Value>). The batch is as wide as the widest row; shorter
  /// rows' missing cells classify as kAlways.
  static ColumnBatch FromRows(const std::vector<const std::vector<Value>*>& rows);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  const std::vector<uint32_t>& selection() const { return sel_; }

  /// Column `c`, or an all-kAlways vector when `c` is out of range (an
  /// anchor on a column no row carries can exclude nothing).
  const ColumnVector& Column(size_t c) const {
    return c < columns_.size() ? columns_[c] : missing_;
  }

 private:
  size_t num_rows_ = 0;
  std::vector<uint32_t> sel_;
  std::vector<ColumnVector> columns_;
  ColumnVector missing_;
};

/// A bitmap over batch rows; the accumulation target of the evaluation
/// kernels. OR-ing per-entry results into one bitmap both dedups (an IN
/// anchor may match a row through several items) and keeps the final
/// row list ascending for free.
class RowBitmap {
 public:
  explicit RowBitmap(size_t num_rows) : words_((num_rows + 63) / 64, 0) {}

  void Set(uint32_t row) { words_[row >> 6] |= uint64_t{1} << (row & 63); }
  bool Test(uint32_t row) const {
    return (words_[row >> 6] >> (row & 63)) & 1;
  }

  /// Appends the set rows, ascending — raw batch positions, or mapped
  /// through a selection vector.
  void AppendSetRows(std::vector<uint32_t>* out) const;
  void AppendSetRows(const std::vector<uint32_t>& sel,
                     std::vector<uint32_t>* out) const;

 private:
  std::vector<uint64_t> words_;
};

/// Relation of a batch predicate kernel; `kBetween` uses both bounds.
enum class BatchRel : uint8_t { kEq, kLt, kLtEq, kGt, kGtEq, kBetween };

/// Tight per-column kernels: set the bit of every row whose cell
/// DEFINITELY satisfies `cell REL key` (for kBetween: `key <= cell <=
/// high`). Only same-class rows can satisfy — kAlways rows and rows of
/// the other class are left untouched, exactly as EvalExpression folds
/// cross-class comparisons to NULL (never FALSE): their candidacy is
/// owed to other entries (always-candidate lists), not these kernels.
void OrSatisfyingRows(const ColumnVector& col, BatchRel rel, double key,
                      double high, RowBitmap* out);
void OrSatisfyingRows(const ColumnVector& col, BatchRel rel,
                      const std::string& key, const std::string& high,
                      RowBitmap* out);

/// Sets the bit of every row of class `klass` (the always-candidate
/// lists' kernel: e.g. every numeric row is a candidate for an
/// instance on the numeric always list).
void OrRowsOfClass(const ColumnVector& col, CellClass klass, RowBitmap* out);

/// The batch's probe keys, sorted for merging against the bind index's
/// sorted maps: numeric keys ascending by Value::Compare's widening,
/// string keys ascending lexicographically, ties broken by row so the
/// per-key row groups come out ascending. kAlways rows are listed
/// separately (they match every instance and never probe).
struct SortedColumnKeys {
  std::vector<std::pair<double, uint32_t>> num;
  std::vector<std::pair<const std::string*, uint32_t>> str;
  std::vector<uint32_t> always;
};

SortedColumnKeys SortColumnKeys(const ColumnVector& col);

}  // namespace cacheportal::sql

#endif  // CACHEPORTAL_SQL_COLUMN_BATCH_H_
