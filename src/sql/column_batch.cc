#include "sql/column_batch.h"

#include <algorithm>
#include <cmath>

namespace cacheportal::sql {

std::optional<double> NumericKey(const Value& v) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  if (v.is_int() && (v.AsInt() > kTwo53 || v.AsInt() < -kTwo53)) {
    return std::nullopt;
  }
  double d = v.NumericAsDouble();
  if (std::isnan(d)) return std::nullopt;
  return d == 0.0 ? 0.0 : d;
}

ColumnBatch ColumnBatch::FromRows(
    const std::vector<const std::vector<Value>*>& rows) {
  ColumnBatch batch;
  batch.num_rows_ = rows.size();
  size_t width = 0;
  for (const std::vector<Value>* row : rows) {
    width = std::max(width, row->size());
  }
  batch.sel_.resize(rows.size());
  for (uint32_t i = 0; i < rows.size(); ++i) batch.sel_[i] = i;

  batch.columns_.resize(width);
  for (ColumnVector& col : batch.columns_) {
    col.klass.resize(rows.size(), CellClass::kAlways);
    col.num.resize(rows.size(), 0.0);
    col.str.resize(rows.size(), nullptr);
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const std::vector<Value>& row = *rows[i];
    for (size_t c = 0; c < row.size(); ++c) {
      ColumnVector& col = batch.columns_[c];
      const Value& v = row[c];
      if (v.is_numeric()) {
        // The same key the bind index uses; keyless numerics keep the
        // kAlways default.
        if (std::optional<double> key = NumericKey(v)) {
          col.klass[i] = CellClass::kNumeric;
          col.num[i] = *key;
          ++col.num_count;
        }
      } else if (v.is_string()) {
        col.klass[i] = CellClass::kString;
        col.str[i] = &v.AsString();
        ++col.str_count;
      }
      // NULL / boolean cells keep the kAlways default.
    }
  }
  batch.missing_.klass.resize(rows.size(), CellClass::kAlways);
  batch.missing_.num.resize(rows.size(), 0.0);
  batch.missing_.str.resize(rows.size(), nullptr);
  return batch;
}

void RowBitmap::AppendSetRows(std::vector<uint32_t>* out) const {
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t word = words_[w];
    while (word != 0) {
      uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(word));
      out->push_back(static_cast<uint32_t>((w << 6) | bit));
      word &= word - 1;
    }
  }
}

void RowBitmap::AppendSetRows(const std::vector<uint32_t>& sel,
                              std::vector<uint32_t>* out) const {
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t word = words_[w];
    while (word != 0) {
      uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(word));
      out->push_back(sel[(w << 6) | bit]);
      word &= word - 1;
    }
  }
}

void OrSatisfyingRows(const ColumnVector& col, BatchRel rel, double key,
                      double high, RowBitmap* out) {
  const size_t n = col.size();
  const CellClass* klass = col.klass.data();
  const double* num = col.num.data();
  // One comparison per row against a loop-invariant key; the class
  // check masks non-numeric lanes (their num slot is 0 but must not
  // match). NaN cells are kAlways, so every comparison here is ordered.
  switch (rel) {
    case BatchRel::kEq:
      for (size_t i = 0; i < n; ++i) {
        if (klass[i] == CellClass::kNumeric && num[i] == key) {
          out->Set(static_cast<uint32_t>(i));
        }
      }
      break;
    case BatchRel::kLt:
      for (size_t i = 0; i < n; ++i) {
        if (klass[i] == CellClass::kNumeric && num[i] < key) {
          out->Set(static_cast<uint32_t>(i));
        }
      }
      break;
    case BatchRel::kLtEq:
      for (size_t i = 0; i < n; ++i) {
        if (klass[i] == CellClass::kNumeric && num[i] <= key) {
          out->Set(static_cast<uint32_t>(i));
        }
      }
      break;
    case BatchRel::kGt:
      for (size_t i = 0; i < n; ++i) {
        if (klass[i] == CellClass::kNumeric && num[i] > key) {
          out->Set(static_cast<uint32_t>(i));
        }
      }
      break;
    case BatchRel::kGtEq:
      for (size_t i = 0; i < n; ++i) {
        if (klass[i] == CellClass::kNumeric && num[i] >= key) {
          out->Set(static_cast<uint32_t>(i));
        }
      }
      break;
    case BatchRel::kBetween:
      for (size_t i = 0; i < n; ++i) {
        if (klass[i] == CellClass::kNumeric && key <= num[i] &&
            num[i] <= high) {
          out->Set(static_cast<uint32_t>(i));
        }
      }
      break;
  }
}

void OrSatisfyingRows(const ColumnVector& col, BatchRel rel,
                      const std::string& key, const std::string& high,
                      RowBitmap* out) {
  const size_t n = col.size();
  for (size_t i = 0; i < n; ++i) {
    if (col.klass[i] != CellClass::kString) continue;
    const std::string& s = *col.str[i];
    bool satisfied = false;
    switch (rel) {
      case BatchRel::kEq:
        satisfied = s == key;
        break;
      case BatchRel::kLt:
        satisfied = s < key;
        break;
      case BatchRel::kLtEq:
        satisfied = s <= key;
        break;
      case BatchRel::kGt:
        satisfied = s > key;
        break;
      case BatchRel::kGtEq:
        satisfied = s >= key;
        break;
      case BatchRel::kBetween:
        satisfied = key <= s && s <= high;
        break;
    }
    if (satisfied) out->Set(static_cast<uint32_t>(i));
  }
}

void OrRowsOfClass(const ColumnVector& col, CellClass klass, RowBitmap* out) {
  const size_t n = col.size();
  for (size_t i = 0; i < n; ++i) {
    if (col.klass[i] == klass) out->Set(static_cast<uint32_t>(i));
  }
}

SortedColumnKeys SortColumnKeys(const ColumnVector& col) {
  SortedColumnKeys keys;
  const size_t n = col.size();
  for (uint32_t i = 0; i < n; ++i) {
    switch (col.klass[i]) {
      case CellClass::kNumeric:
        keys.num.emplace_back(col.num[i], i);
        break;
      case CellClass::kString:
        keys.str.emplace_back(col.str[i], i);
        break;
      case CellClass::kAlways:
        keys.always.push_back(i);
        break;
    }
  }
  std::sort(keys.num.begin(), keys.num.end());
  std::sort(keys.str.begin(), keys.str.end(),
            [](const std::pair<const std::string*, uint32_t>& a,
               const std::pair<const std::string*, uint32_t>& b) {
              int c = a.first->compare(*b.first);
              return c != 0 ? c < 0 : a.second < b.second;
            });
  return keys;
}

}  // namespace cacheportal::sql
