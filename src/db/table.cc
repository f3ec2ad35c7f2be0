#include "db/table.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace cacheportal::db {

namespace {

/// Inserts `id` into the ascending list `ids` (no-op if present).
void InsertSorted(std::vector<RowId>* ids, RowId id) {
  if (ids->empty() || ids->back() < id) {
    ids->push_back(id);  // Fresh inserts arrive in RowId order.
    return;
  }
  auto it = std::lower_bound(ids->begin(), ids->end(), id);
  if (it == ids->end() || *it != id) ids->insert(it, id);
}

void EraseSorted(std::vector<RowId>* ids, RowId id) {
  auto it = std::lower_bound(ids->begin(), ids->end(), id);
  if (it != ids->end() && *it == id) ids->erase(it);
}

}  // namespace

const sql::Value* EqualityKey(const sql::Value& v, sql::Value* storage) {
  if (!v.is_double()) return &v;
  double d = v.AsDouble();
  // 2^53: below it every integral double is an exact int64 and widening
  // an int to double is exact, so Compare's `=` across the two types is
  // the ints' `=`. NaN fails the comparison and never keys.
  if (!(std::fabs(d) < 9007199254740992.0)) return nullptr;
  if (d != std::trunc(d)) return &v;
  *storage = sql::Value::Int(static_cast<int64_t>(d));
  return storage;
}

std::vector<RowId> IndexMatch::Merged() const {
  std::vector<RowId> ids;
  ids.reserve(size());
  std::merge(bucket.begin(), bucket.end(), unkeyed.begin(), unkeyed.end(),
             std::back_inserter(ids));
  return ids;
}

Result<RowId> Table::Insert(Row row) {
  CACHEPORTAL_RETURN_NOT_OK(schema_.ValidateRow(row));
  RowId id = next_id_++;
  IndexInsert(id, row);
  rows_.emplace(id, std::move(row));
  return id;
}

Status Table::Delete(RowId id) {
  auto it = rows_.find(id);
  if (it == rows_.end()) {
    return Status::NotFound(StrCat("row ", id, " in table ", schema_.name()));
  }
  IndexRemove(id, it->second);
  rows_.erase(it);
  return Status::OK();
}

Status Table::Update(RowId id, Row row) {
  CACHEPORTAL_RETURN_NOT_OK(schema_.ValidateRow(row));
  auto it = rows_.find(id);
  if (it == rows_.end()) {
    return Status::NotFound(StrCat("row ", id, " in table ", schema_.name()));
  }
  IndexRemove(id, it->second);
  it->second = std::move(row);
  IndexInsert(id, it->second);
  return Status::OK();
}

Result<Row> Table::Get(RowId id) const {
  const Row* row = Find(id);
  if (row == nullptr) {
    return Status::NotFound(StrCat("row ", id, " in table ", schema_.name()));
  }
  return *row;
}

const Row* Table::Find(RowId id) const {
  auto it = rows_.find(id);
  return it == rows_.end() ? nullptr : &it->second;
}

Status Table::CreateIndex(const std::string& column) {
  std::optional<size_t> idx = schema_.ColumnIndex(column);
  if (!idx.has_value()) {
    return Status::NotFound(
        StrCat("column ", column, " in table ", schema_.name()));
  }
  if (indexes_.contains(*idx)) {
    return Status::AlreadyExists(StrCat("index on ", column));
  }
  indexes_[*idx];
  for (const auto& [id, row] : rows_) IndexInsert(id, row, *idx);
  return Status::OK();
}

bool Table::HasIndex(const std::string& column) const {
  std::optional<size_t> idx = schema_.ColumnIndex(column);
  return idx.has_value() && HasIndex(*idx);
}

std::optional<IndexMatch> Table::IndexProbe(size_t column,
                                            const sql::Value& key) const {
  auto index = indexes_.find(column);
  if (index == indexes_.end()) return std::nullopt;
  if (key.is_null()) return IndexMatch{};
  sql::Value storage;
  const sql::Value* k = EqualityKey(key, &storage);
  if (k == nullptr) return std::nullopt;
  IndexMatch match;
  auto it = index->second.buckets.find(*k);
  if (it != index->second.buckets.end()) match.bucket = it->second;
  match.unkeyed = index->second.unkeyed;
  return match;
}

void Table::IndexInsert(RowId id, const Row& row,
                        std::optional<size_t> only) {
  for (auto& [col, index] : indexes_) {
    if (only.has_value() && col != *only) continue;
    const sql::Value& cell = row[col];
    if (cell.is_null()) continue;
    sql::Value storage;
    const sql::Value* key = EqualityKey(cell, &storage);
    InsertSorted(key != nullptr ? &index.buckets[*key] : &index.unkeyed, id);
  }
}

void Table::IndexRemove(RowId id, const Row& row) {
  for (auto& [col, index] : indexes_) {
    const sql::Value& cell = row[col];
    if (cell.is_null()) continue;
    sql::Value storage;
    const sql::Value* key = EqualityKey(cell, &storage);
    if (key == nullptr) {
      EraseSorted(&index.unkeyed, id);
      continue;
    }
    auto it = index.buckets.find(*key);
    if (it == index.buckets.end()) continue;
    EraseSorted(&it->second, id);
    if (it->second.empty()) index.buckets.erase(it);
  }
}

}  // namespace cacheportal::db
