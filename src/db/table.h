#ifndef CACHEPORTAL_DB_TABLE_H_
#define CACHEPORTAL_DB_TABLE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "db/schema.h"
#include "sql/value.h"

namespace cacheportal::db {

/// Stable identifier of a stored row within one table.
using RowId = uint64_t;

/// A tuple; values are positional per the table schema.
using Row = std::vector<sql::Value>;

/// The key under which an index or a hash-join build files `v`, chosen so
/// that equal keys are exactly the values the scan's `=` (Value::Compare)
/// calls equal. Integral doubles of magnitude below 2^53 file as ints, so
/// 5.0 meets 5 and -0.0 meets 0; other values file as themselves. No key
/// can stand for NaN, which Compare calls equal to every number, nor for
/// doubles of magnitude 2^53 or more, where widening an int to double
/// loses precision. Cells holding such values are checked by every probe;
/// a probe holding one scans. NULL keys as itself, but never satisfies
/// `=`: callers skip it.
///
/// Returns `v` itself when it keys as itself, `*storage` (written) when it
/// keys as an int, and nullptr when it never keys; no copy on the common
/// path.
const sql::Value* EqualityKey(const sql::Value& v, sql::Value* storage);

/// The rows an index names for one probe `column = key`, each list in
/// ascending RowId order: the key's bucket, and the cells that never key,
/// which may equal any number. A superset of the rows satisfying `=`.
struct IndexMatch {
  std::span<const RowId> bucket;
  std::span<const RowId> unkeyed;

  size_t size() const { return bucket.size() + unkeyed.size(); }
  /// Both lists merged, ascending.
  std::vector<RowId> Merged() const;
};

/// An in-memory heap table with optional single-column hash indexes.
/// Rows keep a stable RowId; scans iterate in insertion order.
class Table {
 public:
  explicit Table(TableSchema schema) : schema_(std::move(schema)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }

  /// Inserts a row (validated against the schema). Returns its RowId.
  Result<RowId> Insert(Row row);

  /// Deletes by RowId. NotFound if absent.
  Status Delete(RowId id);

  /// Replaces the row stored under `id`. NotFound if absent.
  Status Update(RowId id, Row row);

  /// Row lookup. NotFound if absent.
  Result<Row> Get(RowId id) const;

  /// The stored row under `id`, or nullptr. Valid until the next mutation.
  const Row* Find(RowId id) const;

  /// Creates a hash index over `column`. AlreadyExists / NotFound errors.
  Status CreateIndex(const std::string& column);

  /// Whether `column` (by name or by schema position) has an index.
  bool HasIndex(const std::string& column) const;
  bool HasIndex(size_t column) const { return indexes_.contains(column); }

  /// The index's candidates for `column = key` (column by schema
  /// position). std::nullopt when the column has no index or `key` never
  /// keys (EqualityKey); the caller scans instead. A NULL key matches
  /// nothing. Does not count toward rows_scanned().
  std::optional<IndexMatch> IndexProbe(size_t column,
                                       const sql::Value& key) const;

  /// Full scan in insertion (RowId) order.
  const std::map<RowId, Row>& rows() const { return rows_; }

  /// Cumulative count of rows touched by scans/lookups (cost accounting
  /// for the benchmarks). Atomic: concurrent read-only queries bump it.
  uint64_t rows_scanned() const {
    return rows_scanned_.load(std::memory_order_relaxed);
  }
  void BumpScanned(uint64_t n) const {
    rows_scanned_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  /// EqualityKey -> ascending RowIds, plus the non-NULL cells that never
  /// key. NULL cells are not filed: they never satisfy `=`.
  struct Index {
    std::unordered_map<sql::Value, std::vector<RowId>, sql::ValueHash>
        buckets;
    std::vector<RowId> unkeyed;
  };

  /// Files `row` in every index, or only in the one on column `only`.
  void IndexInsert(RowId id, const Row& row,
                   std::optional<size_t> only = std::nullopt);
  void IndexRemove(RowId id, const Row& row);

  TableSchema schema_;
  std::map<RowId, Row> rows_;
  RowId next_id_ = 1;
  // column index in schema -> value -> row ids.
  std::map<size_t, Index> indexes_;
  mutable std::atomic<uint64_t> rows_scanned_{0};
};

}  // namespace cacheportal::db

#endif  // CACHEPORTAL_DB_TABLE_H_
