#include "invalidator/bind_index.h"

#include <algorithm>
#include <set>

namespace cacheportal::invalidator {

namespace {

/// Numeric index key (sql::NumericKey); only valid when IndexableNum.
double NumKey(const sql::Value& v) { return *sql::NumericKey(v); }

/// A numeric bind usable as a map key: ±inf orders and hashes fine; a
/// NaN key would break the sorted maps' strict weak ordering (and never
/// match its own hash bucket), so NaN binds take the always-candidate
/// route instead. Exclusion on NaN would also be unsound:
/// Value::Compare folds NaN comparisons to "equal", never to a definite
/// FALSE. An int beyond ±2^53 takes the same route: its key is lossy,
/// so `c < $1` with c = 2^53 and $1 = 2^53 + 1 is TRUE, yet the keys tie.
bool IndexableNum(const sql::Value& v) {
  return v.is_numeric() && sql::NumericKey(v).has_value();
}

template <typename Map, typename Key>
void EraseEntry(Map& map, const Key& key, uint64_t id) {
  auto [begin, end] = map.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (it->second == id) {
      map.erase(it);
      return;
    }
  }
}

template <typename Map, typename Key>
void ErasePairEntry(Map& map, const Key& key, uint64_t id) {
  auto [begin, end] = map.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (it->second.second == id) {
      map.erase(it);
      return;
    }
  }
}

}  // namespace

void BindIndex::AddInstance(const TypeMatcher& matcher,
                            const QueryInstance& instance) {
  if (postings_.contains(instance.instance_id)) return;
  const uint64_t id = instance.instance_id;
  std::vector<Posting> posts;

  for (const auto& [table_lower, anchor] : matcher.anchors()) {
    // A derived anchor probes its source's postings (same keys).
    if (anchor.derived()) continue;
    AnchorIndex& index = indexes_[std::make_pair(instance.type_id, table_lower)];

    auto post = [&](Posting::Container container, double num_key,
                    std::string str_key) {
      Posting posting;
      posting.index = &index;
      posting.container = container;
      posting.num_key = num_key;
      posting.str_key = std::move(str_key);
      posts.push_back(std::move(posting));
    };
    auto always_num = [&] {
      index.always_num.insert(id);
      post(Posting::Container::kAlwaysNum, 0, "");
    };
    auto always_str = [&] {
      index.always_str.insert(id);
      post(Posting::Container::kAlwaysStr, 0, "");
    };

    switch (anchor.rel) {
      case AnchorRel::kEq:
      case AnchorRel::kLt:
      case AnchorRel::kLtEq:
      case AnchorRel::kGt:
      case AnchorRel::kGtEq: {
        sql::Value v =
            TypeMatcher::OperandValue(anchor.operands[0], instance.bindings);
        bool equality = anchor.rel == AnchorRel::kEq;
        if (IndexableNum(v)) {
          double k = NumKey(v);
          if (equality) {
            index.eq_num.emplace(k, id);
            post(Posting::Container::kEqNum, k, "");
          } else {
            index.range_num.emplace(k, id);
            post(Posting::Container::kRangeNum, k, "");
          }
          always_str();  // String tuple vs numeric bind folds NULL.
        } else if (v.is_string()) {
          if (equality) {
            index.eq_str.emplace(v.AsString(), id);
            post(Posting::Container::kEqStr, 0, v.AsString());
          } else {
            index.range_str.emplace(v.AsString(), id);
            post(Posting::Container::kRangeStr, 0, v.AsString());
          }
          always_num();
        } else {
          // NULL / boolean / NaN bind: no comparable probe can reach a
          // definite FALSE.
          always_num();
          always_str();
        }
        break;
      }
      case AnchorRel::kIn: {
        // Any NULL item makes a missed lookup fold NULL, not FALSE —
        // the instance is a candidate for every tuple, and inserting its
        // other items too would double-report it. A NaN item compares
        // "equal" to every numeric tuple under Value::Compare, so it
        // forces the always route too.
        bool has_null = false;
        for (const AnchorOperand& operand : anchor.operands) {
          sql::Value item =
              TypeMatcher::OperandValue(operand, instance.bindings);
          if (item.is_null() ||
              (item.is_numeric() && !IndexableNum(item))) {
            has_null = true;
            break;
          }
        }
        if (has_null) {
          always_num();
          always_str();
          break;
        }
        // Incomparable non-NULL items evaluate as plain misses, so a
        // same-class probe that matches no item folds FALSE even in a
        // mixed-class list: index each item under its own class, nothing
        // else. Duplicates are skipped so one tuple never yields the same
        // instance twice. Boolean items could only match boolean tuples,
        // which return all candidates anyway.
        std::set<double> nums;
        std::set<std::string> strs;
        for (const AnchorOperand& operand : anchor.operands) {
          sql::Value v = TypeMatcher::OperandValue(operand, instance.bindings);
          if (IndexableNum(v)) {
            double k = NumKey(v);
            if (!nums.insert(k).second) continue;
            index.eq_num.emplace(k, id);
            post(Posting::Container::kEqNum, k, "");
          } else if (v.is_string()) {
            if (!strs.insert(v.AsString()).second) continue;
            index.eq_str.emplace(v.AsString(), id);
            post(Posting::Container::kEqStr, 0, v.AsString());
          }
        }
        break;
      }
      case AnchorRel::kBetween: {
        sql::Value low =
            TypeMatcher::OperandValue(anchor.operands[0], instance.bindings);
        sql::Value high =
            TypeMatcher::OperandValue(anchor.operands[1], instance.bindings);
        // BETWEEN folds NULL when EITHER bound is incomparable with the
        // operand (even if the other bound is definitively violated), so
        // only same-class bound pairs may exclude (and NaN bounds never
        // may — see IndexableNum).
        if (IndexableNum(low) && IndexableNum(high)) {
          double lo = NumKey(low);
          index.between_num.emplace(lo, std::make_pair(NumKey(high), id));
          post(Posting::Container::kBetweenNum, lo, "");
          always_str();
        } else if (low.is_string() && high.is_string()) {
          index.between_str.emplace(low.AsString(),
                                    std::make_pair(high.AsString(), id));
          post(Posting::Container::kBetweenStr, 0, low.AsString());
          always_num();
        } else {
          always_num();
          always_str();
        }
        break;
      }
    }
  }

  postings_.emplace(id, InstancePostings{instance.type_id, std::move(posts)});
  ++count_by_type_[instance.type_id];
}

void BindIndex::RemoveInstance(uint64_t instance_id) {
  auto posting_it = postings_.find(instance_id);
  if (posting_it == postings_.end()) return;
  for (const Posting& posting : posting_it->second.posts) {
    AnchorIndex& index = *posting.index;
    switch (posting.container) {
      case Posting::Container::kEqNum:
        EraseEntry(index.eq_num, posting.num_key, instance_id);
        break;
      case Posting::Container::kEqStr:
        EraseEntry(index.eq_str, posting.str_key, instance_id);
        break;
      case Posting::Container::kRangeNum:
        EraseEntry(index.range_num, posting.num_key, instance_id);
        break;
      case Posting::Container::kRangeStr:
        EraseEntry(index.range_str, posting.str_key, instance_id);
        break;
      case Posting::Container::kBetweenNum:
        ErasePairEntry(index.between_num, posting.num_key, instance_id);
        break;
      case Posting::Container::kBetweenStr:
        ErasePairEntry(index.between_str, posting.str_key, instance_id);
        break;
      case Posting::Container::kAlwaysNum:
        index.always_num.erase(instance_id);
        break;
      case Posting::Container::kAlwaysStr:
        index.always_str.erase(instance_id);
        break;
    }
  }
  auto count_it = count_by_type_.find(posting_it->second.type_id);
  if (count_it != count_by_type_.end() && --count_it->second == 0) {
    count_by_type_.erase(count_it);
  }
  postings_.erase(posting_it);
}

size_t BindIndex::IndexedCountOfType(uint64_t type_id) const {
  auto it = count_by_type_.find(type_id);
  return it == count_by_type_.end() ? 0 : it->second;
}

void BindIndex::ProbeBatch(uint64_t type_id, const CompiledAnchor& anchor,
                           const sql::ColumnVector& column, BatchProbe* out,
                           MatcherStats* stats) const {
  const size_t n = column.size();
  // Rows no probe can exclude for anyone (NULL/boolean/NaN/missing
  // cells): NULL makes every comparison NULL, booleans are outside the
  // indexed classes, and NaN is unordered against every comparand.
  for (uint32_t i = 0; i < n; ++i) {
    if (column.klass[i] == sql::CellClass::kAlways) {
      out->all_rows.push_back(i);
    }
  }
  auto index_it =
      indexes_.find(std::make_pair(type_id, anchor.postings_table_lower));
  if (index_it == indexes_.end()) return;
  const AnchorIndex& index = index_it->second;

  // Per-candidate row bitmaps, created lazily: OR-ing each entry's
  // satisfying rows dedups IN-anchor multi-matches and keeps the final
  // lists ascending; instances no entry matches cost nothing.
  std::unordered_map<uint64_t, sql::RowBitmap> bits;
  auto bitmap_of = [&](uint64_t id) -> sql::RowBitmap& {
    return bits.try_emplace(id, n).first->second;
  };

  // Below this many entries a per-entry kernel pass over the column
  // beats sorting the batch's probe keys.
  constexpr size_t kKernelEntryLimit = 8;

  bool sorted_ready = false;
  sql::SortedColumnKeys sorted;
  auto sorted_keys = [&]() -> const sql::SortedColumnKeys& {
    if (!sorted_ready) {
      sorted = sql::SortColumnKeys(column);
      sorted_ready = true;
    }
    return sorted;
  };
  auto count_kernels = [&](size_t entries) {
    if (stats != nullptr) stats->batch_kernel_evals += entries;
  };
  auto count_merge = [&] {
    if (stats != nullptr) ++stats->batch_merge_probes;
  };

  const bool equality =
      anchor.rel == AnchorRel::kEq || anchor.rel == AnchorRel::kIn;

  // ---- Numeric rows vs the numeric-keyed containers. ----
  // Skipped wholesale (always lists included) when the batch has no
  // numeric rows — a non-numeric cell never reaches them.
  if (column.num_count > 0) {
    if (equality) {
      if (index.eq_num.size() <= kKernelEntryLimit) {
        count_kernels(index.eq_num.size());
        for (const auto& [k, id] : index.eq_num) {
          sql::OrSatisfyingRows(column, sql::BatchRel::kEq, k, 0,
                                &bitmap_of(id));
        }
      } else {
        // One hash probe per distinct batch key; its sorted row group
        // lands on every matching entry at once.
        const auto& keys = sorted_keys().num;
        for (size_t p = 0; p < keys.size();) {
          size_t q = p;
          const double k = keys[p].first;
          while (q < keys.size() && keys[q].first == k) ++q;
          count_merge();
          auto [begin, end] = index.eq_num.equal_range(k);
          for (auto it = begin; it != end; ++it) {
            sql::RowBitmap& bitmap = bitmap_of(it->second);
            for (size_t r = p; r < q; ++r) bitmap.Set(keys[r].second);
          }
          p = q;
        }
      }
    } else if (anchor.rel == AnchorRel::kBetween) {
      if (index.between_num.size() <= kKernelEntryLimit) {
        count_kernels(index.between_num.size());
        for (const auto& [lo, hi_id] : index.between_num) {
          sql::OrSatisfyingRows(column, sql::BatchRel::kBetween, lo,
                                hi_id.first, &bitmap_of(hi_id.second));
        }
      } else {
        // Only entries with lo <= max key can match a row, each with
        // its [lo, hi] row span found by binary search.
        const auto& keys = sorted_keys().num;
        auto stop = index.between_num.upper_bound(keys.back().first);
        for (auto it = index.between_num.begin(); it != stop; ++it) {
          count_merge();
          auto b = std::lower_bound(
              keys.begin(), keys.end(), it->first,
              [](const std::pair<double, uint32_t>& pr, double v) {
                return pr.first < v;
              });
          auto e = std::upper_bound(
              keys.begin(), keys.end(), it->second.first,
              [](double v, const std::pair<double, uint32_t>& pr) {
                return v < pr.first;
              });
          if (b == e) continue;
          sql::RowBitmap& bitmap = bitmap_of(it->second.second);
          for (auto r = b; r != e; ++r) bitmap.Set(r->second);
        }
      }
    } else {
      if (index.range_num.size() <= kKernelEntryLimit) {
        sql::BatchRel rel = anchor.rel == AnchorRel::kLt ? sql::BatchRel::kLt
                            : anchor.rel == AnchorRel::kLtEq
                                ? sql::BatchRel::kLtEq
                            : anchor.rel == AnchorRel::kGt ? sql::BatchRel::kGt
                                                           : sql::BatchRel::kGtEq;
        count_kernels(index.range_num.size());
        for (const auto& [c, id] : index.range_num) {
          sql::OrSatisfyingRows(column, rel, c, 0, &bitmap_of(id));
        }
      } else {
        // Sorted merge: entries ascend by comparand, batch keys ascend,
        // so one monotone pointer finds each entry's matching prefix
        // (col < c / <= c) or suffix (col > c / >= c). Only entries
        // some row can satisfy are visited, so cost stays
        // output-sensitive.
        const auto& keys = sorted_keys().num;
        const double min_key = keys.front().first;
        const double max_key = keys.back().first;
        size_t p = 0;
        switch (anchor.rel) {
          case AnchorRel::kLt:
            for (auto it = index.range_num.upper_bound(min_key);
                 it != index.range_num.end(); ++it) {
              while (p < keys.size() && keys[p].first < it->first) ++p;
              count_merge();
              sql::RowBitmap& bitmap = bitmap_of(it->second);
              for (size_t r = 0; r < p; ++r) bitmap.Set(keys[r].second);
            }
            break;
          case AnchorRel::kLtEq:
            for (auto it = index.range_num.lower_bound(min_key);
                 it != index.range_num.end(); ++it) {
              while (p < keys.size() && keys[p].first <= it->first) ++p;
              count_merge();
              sql::RowBitmap& bitmap = bitmap_of(it->second);
              for (size_t r = 0; r < p; ++r) bitmap.Set(keys[r].second);
            }
            break;
          case AnchorRel::kGt: {
            auto stop = index.range_num.lower_bound(max_key);
            for (auto it = index.range_num.begin(); it != stop; ++it) {
              while (p < keys.size() && keys[p].first <= it->first) ++p;
              count_merge();
              sql::RowBitmap& bitmap = bitmap_of(it->second);
              for (size_t r = p; r < keys.size(); ++r) {
                bitmap.Set(keys[r].second);
              }
            }
            break;
          }
          case AnchorRel::kGtEq: {
            auto stop = index.range_num.upper_bound(max_key);
            for (auto it = index.range_num.begin(); it != stop; ++it) {
              while (p < keys.size() && keys[p].first < it->first) ++p;
              count_merge();
              sql::RowBitmap& bitmap = bitmap_of(it->second);
              for (size_t r = p; r < keys.size(); ++r) {
                bitmap.Set(keys[r].second);
              }
            }
            break;
          }
          default:
            break;
        }
      }
    }
    // Always-candidate instances of the numeric class get every numeric
    // row.
    for (uint64_t id : index.always_num) {
      sql::OrRowsOfClass(column, sql::CellClass::kNumeric, &bitmap_of(id));
    }
  }

  // ---- String rows vs the string-keyed containers (symmetric). ----
  if (column.str_count > 0) {
    if (equality) {
      if (index.eq_str.size() <= kKernelEntryLimit) {
        count_kernels(index.eq_str.size());
        for (const auto& [k, id] : index.eq_str) {
          sql::OrSatisfyingRows(column, sql::BatchRel::kEq, k, k,
                                &bitmap_of(id));
        }
      } else {
        const auto& keys = sorted_keys().str;
        for (size_t p = 0; p < keys.size();) {
          size_t q = p;
          const std::string& k = *keys[p].first;
          while (q < keys.size() && *keys[q].first == k) ++q;
          count_merge();
          auto [begin, end] = index.eq_str.equal_range(k);
          for (auto it = begin; it != end; ++it) {
            sql::RowBitmap& bitmap = bitmap_of(it->second);
            for (size_t r = p; r < q; ++r) bitmap.Set(keys[r].second);
          }
          p = q;
        }
      }
    } else if (anchor.rel == AnchorRel::kBetween) {
      if (index.between_str.size() <= kKernelEntryLimit) {
        count_kernels(index.between_str.size());
        for (const auto& [lo, hi_id] : index.between_str) {
          sql::OrSatisfyingRows(column, sql::BatchRel::kBetween, lo,
                                hi_id.first, &bitmap_of(hi_id.second));
        }
      } else {
        const auto& keys = sorted_keys().str;
        auto stop = index.between_str.upper_bound(*keys.back().first);
        for (auto it = index.between_str.begin(); it != stop; ++it) {
          count_merge();
          auto b = std::lower_bound(
              keys.begin(), keys.end(), it->first,
              [](const std::pair<const std::string*, uint32_t>& pr,
                 const std::string& v) { return *pr.first < v; });
          auto e = std::upper_bound(
              keys.begin(), keys.end(), it->second.first,
              [](const std::string& v,
                 const std::pair<const std::string*, uint32_t>& pr) {
                return v < *pr.first;
              });
          if (b == e) continue;
          sql::RowBitmap& bitmap = bitmap_of(it->second.second);
          for (auto r = b; r != e; ++r) bitmap.Set(r->second);
        }
      }
    } else {
      if (index.range_str.size() <= kKernelEntryLimit) {
        sql::BatchRel rel = anchor.rel == AnchorRel::kLt ? sql::BatchRel::kLt
                            : anchor.rel == AnchorRel::kLtEq
                                ? sql::BatchRel::kLtEq
                            : anchor.rel == AnchorRel::kGt ? sql::BatchRel::kGt
                                                           : sql::BatchRel::kGtEq;
        count_kernels(index.range_str.size());
        for (const auto& [c, id] : index.range_str) {
          sql::OrSatisfyingRows(column, rel, c, c, &bitmap_of(id));
        }
      } else {
        const auto& keys = sorted_keys().str;
        const std::string& min_key = *keys.front().first;
        const std::string& max_key = *keys.back().first;
        size_t p = 0;
        switch (anchor.rel) {
          case AnchorRel::kLt:
            for (auto it = index.range_str.upper_bound(min_key);
                 it != index.range_str.end(); ++it) {
              while (p < keys.size() && *keys[p].first < it->first) ++p;
              count_merge();
              sql::RowBitmap& bitmap = bitmap_of(it->second);
              for (size_t r = 0; r < p; ++r) bitmap.Set(keys[r].second);
            }
            break;
          case AnchorRel::kLtEq:
            for (auto it = index.range_str.lower_bound(min_key);
                 it != index.range_str.end(); ++it) {
              while (p < keys.size() && *keys[p].first <= it->first) ++p;
              count_merge();
              sql::RowBitmap& bitmap = bitmap_of(it->second);
              for (size_t r = 0; r < p; ++r) bitmap.Set(keys[r].second);
            }
            break;
          case AnchorRel::kGt: {
            auto stop = index.range_str.lower_bound(max_key);
            for (auto it = index.range_str.begin(); it != stop; ++it) {
              while (p < keys.size() && *keys[p].first <= it->first) ++p;
              count_merge();
              sql::RowBitmap& bitmap = bitmap_of(it->second);
              for (size_t r = p; r < keys.size(); ++r) {
                bitmap.Set(keys[r].second);
              }
            }
            break;
          }
          case AnchorRel::kGtEq: {
            auto stop = index.range_str.upper_bound(max_key);
            for (auto it = index.range_str.begin(); it != stop; ++it) {
              while (p < keys.size() && *keys[p].first < it->first) ++p;
              count_merge();
              sql::RowBitmap& bitmap = bitmap_of(it->second);
              for (size_t r = p; r < keys.size(); ++r) {
                bitmap.Set(keys[r].second);
              }
            }
            break;
          }
          default:
            break;
        }
      }
    }
    for (uint64_t id : index.always_str) {
      sql::OrRowsOfClass(column, sql::CellClass::kString, &bitmap_of(id));
    }
  }

  for (auto& [id, bitmap] : bits) {
    std::vector<uint32_t> rows;
    bitmap.AppendSetRows(&rows);
    // An empty list would make the instance look like a candidate
    // downstream.
    if (rows.empty()) continue;
    out->per_id.emplace(id, std::move(rows));
  }
}

}  // namespace cacheportal::invalidator
