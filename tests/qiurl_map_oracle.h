#ifndef CACHEPORTAL_TESTS_QIURL_MAP_ORACLE_H_
#define CACHEPORTAL_TESTS_QIURL_MAP_ORACLE_H_

// The string-keyed QI/URL map the id-keyed sniffer::QiUrlMap replaced,
// kept verbatim as the differential oracle for sniffer_test: ordered
// std::maps keyed by SQL text and cache key, every read answered in text
// order. Slower at every size; kept here only, never linked into src/.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/strings.h"
#include "sniffer/log_io.h"
#include "sniffer/qiurl_map.h"

namespace cacheportal::testing {

using sniffer::EscapeLogField;
using sniffer::QiUrlEntry;
using sniffer::UnescapeLogField;

/// The query-instance-to-URL map, produced by the sniffer and consumed by
/// the invalidator. (query, page) pairs are deduplicated; re-adding an
/// existing pair refreshes its timestamp only.
///
/// Thread-safe: an internal shared_mutex lets the sniffer Add while the
/// invalidator's cycle reads (ReadSince / PagesForQuery / ...) or ejects
/// (RemovePage) — the decoupling that frees the two from lockstep batch
/// coupling. `epoch()` counts row-set mutations (new rows and removals;
/// timestamp refreshes don't count), so a consumer can skip its next
/// incremental scan when the epoch it last observed is unchanged. The
/// orphan feed (TakeOrphans) has its own mutex, so draining it never
/// waits on the row set.
class OracleQiUrlMap {
 public:
  OracleQiUrlMap() = default;

  OracleQiUrlMap(const OracleQiUrlMap&) = delete;
  OracleQiUrlMap& operator=(const OracleQiUrlMap&) = delete;
  // Moves exist for Result<OracleQiUrlMap> (Deserialize); they are NOT
  // concurrency-safe — move only before publishing the map to threads.
  OracleQiUrlMap(OracleQiUrlMap&& other) noexcept;
  OracleQiUrlMap& operator=(OracleQiUrlMap&& other) noexcept;

  /// Adds a mapping; returns the row ID (existing ID if deduplicated).
  uint64_t Add(const std::string& query_sql, const std::string& page_key,
               const std::string& request_string, Micros timestamp);

  /// Rows with id > `after_id`, for the invalidator's incremental scan.
  std::vector<QiUrlEntry> ReadSince(uint64_t after_id) const;

  /// Cache keys of all pages built from `query_sql`.
  std::vector<std::string> PagesForQuery(const std::string& query_sql) const;

  /// Number of pages built from `query_sql`, without materializing the
  /// keys — the invalidator asks this once per instance per cycle, so it
  /// must not copy.
  size_t NumPagesForQuery(const std::string& query_sql) const;

  /// Query instances used to build page `page_key`.
  std::vector<std::string> QueriesForPage(const std::string& page_key) const;

  /// Drops all rows for `page_key` (the page left the cache). Returns the
  /// number of rows removed.
  size_t RemovePage(const std::string& page_key);

  /// Distinct query instances present.
  size_t NumQueries() const;
  /// Distinct pages present.
  size_t NumPages() const;
  size_t size() const;

  uint64_t LastId() const;

  /// Row-set mutation counter: bumped by every Add that creates a row
  /// and every RemovePage that removes one. Equal epochs across two
  /// observations mean no rows appeared or disappeared in between.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// The queries whose page count RemovePage dropped to 0 since the
  /// previous TakeOrphans, in removal order (a query orphaned twice
  /// appears twice). A query may have gained a page again since, so a
  /// consumer re-checks NumPagesForQuery before acting. The feed holds
  /// at most kMaxOrphans entries; past that it drops them and reports
  /// `complete = false`, and the consumer must check every query it
  /// tracks instead.
  struct Orphans {
    std::vector<std::string> queries;
    bool complete = true;
  };
  static constexpr size_t kMaxOrphans = 1 << 14;
  Orphans TakeOrphans();

  /// Serializes all rows to the sniffer's line format (see log_io.h); the
  /// invalidator machine can persist its view of the map across restarts.
  std::string Serialize() const;

  /// Rebuilds a map from Serialize() output. Row IDs and the ID counter
  /// are preserved, so a consumer's ReadSince cursor taken against the
  /// serialized map stays valid against the restored one: rows it had
  /// consumed stay consumed, rows it hadn't are still above the cursor.
  static Result<OracleQiUrlMap> Deserialize(const std::string& text);

 private:
  mutable std::shared_mutex mu_;
  std::atomic<uint64_t> epoch_{0};
  // id -> entry, ordered for ReadSince.
  std::map<uint64_t, QiUrlEntry> entries_;
  // (query, page) -> id for dedup.
  std::map<std::pair<std::string, std::string>, uint64_t> pair_index_;
  std::map<std::string, std::set<std::string>> by_query_;  // query -> pages.
  std::map<std::string, std::set<std::string>> by_page_;   // page -> queries.
  uint64_t next_id_ = 1;
  // Taken while holding mu_ (RemovePage), never the other way round.
  std::mutex orphans_mu_;
  Orphans orphans_;
};

inline OracleQiUrlMap::OracleQiUrlMap(OracleQiUrlMap&& other) noexcept {
  entries_ = std::move(other.entries_);
  pair_index_ = std::move(other.pair_index_);
  by_query_ = std::move(other.by_query_);
  by_page_ = std::move(other.by_page_);
  next_id_ = other.next_id_;
  epoch_.store(other.epoch_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  orphans_ = std::move(other.orphans_);
}

inline OracleQiUrlMap& OracleQiUrlMap::operator=(OracleQiUrlMap&& other) noexcept {
  if (this != &other) {
    entries_ = std::move(other.entries_);
    pair_index_ = std::move(other.pair_index_);
    by_query_ = std::move(other.by_query_);
    by_page_ = std::move(other.by_page_);
    next_id_ = other.next_id_;
    epoch_.store(other.epoch_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    orphans_ = std::move(other.orphans_);
  }
  return *this;
}

inline uint64_t OracleQiUrlMap::Add(const std::string& query_sql,
                       const std::string& page_key,
                       const std::string& request_string, Micros timestamp) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto key = std::make_pair(query_sql, page_key);
  auto it = pair_index_.find(key);
  if (it != pair_index_.end()) {
    // Timestamp refreshes don't bump the epoch: the row set is unchanged
    // and consumers scanning by ID would see nothing new.
    entries_[it->second].timestamp = timestamp;
    return it->second;
  }
  uint64_t id = next_id_++;
  QiUrlEntry entry;
  entry.id = id;
  entry.query_sql = query_sql;
  entry.page_key = page_key;
  entry.request_string = request_string;
  entry.timestamp = timestamp;
  entries_.emplace(id, std::move(entry));
  pair_index_.emplace(std::move(key), id);
  by_query_[query_sql].insert(page_key);
  by_page_[page_key].insert(query_sql);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  return id;
}

inline std::vector<QiUrlEntry> OracleQiUrlMap::ReadSince(uint64_t after_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<QiUrlEntry> out;
  for (auto it = entries_.upper_bound(after_id); it != entries_.end(); ++it) {
    out.push_back(it->second);
  }
  return out;
}

inline std::vector<std::string> OracleQiUrlMap::PagesForQuery(
    const std::string& query_sql) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_query_.find(query_sql);
  if (it == by_query_.end()) return {};
  return std::vector<std::string>(it->second.begin(), it->second.end());
}

inline size_t OracleQiUrlMap::NumPagesForQuery(const std::string& query_sql) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_query_.find(query_sql);
  return it == by_query_.end() ? 0 : it->second.size();
}

inline std::vector<std::string> OracleQiUrlMap::QueriesForPage(
    const std::string& page_key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_page_.find(page_key);
  if (it == by_page_.end()) return {};
  return std::vector<std::string>(it->second.begin(), it->second.end());
}

inline size_t OracleQiUrlMap::RemovePage(const std::string& page_key) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = by_page_.find(page_key);
  if (it == by_page_.end()) return 0;
  size_t removed = 0;
  for (const std::string& query : it->second) {
    auto pair_it = pair_index_.find(std::make_pair(query, page_key));
    if (pair_it != pair_index_.end()) {
      entries_.erase(pair_it->second);
      pair_index_.erase(pair_it);
      ++removed;
    }
    auto q_it = by_query_.find(query);
    if (q_it != by_query_.end()) {
      q_it->second.erase(page_key);
      if (q_it->second.empty()) {
        by_query_.erase(q_it);
        std::lock_guard<std::mutex> orphans_lock(orphans_mu_);
        if (orphans_.queries.size() < kMaxOrphans) {
          orphans_.queries.push_back(query);
        } else {
          orphans_.complete = false;
        }
      }
    }
  }
  by_page_.erase(it);
  if (removed > 0) epoch_.fetch_add(1, std::memory_order_acq_rel);
  return removed;
}

inline OracleQiUrlMap::Orphans OracleQiUrlMap::TakeOrphans() {
  std::lock_guard<std::mutex> lock(orphans_mu_);
  return std::exchange(orphans_, Orphans{});
}

inline size_t OracleQiUrlMap::NumQueries() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return by_query_.size();
}

inline size_t OracleQiUrlMap::NumPages() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return by_page_.size();
}

inline size_t OracleQiUrlMap::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

inline uint64_t OracleQiUrlMap::LastId() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return next_id_ - 1;
}

inline std::string OracleQiUrlMap::Serialize() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::string out;
  for (const auto& [id, entry] : entries_) {
    out += StrCat("M\t", entry.id, "\t", EscapeLogField(entry.query_sql),
                  "\t", EscapeLogField(entry.page_key), "\t",
                  EscapeLogField(entry.request_string), "\t",
                  entry.timestamp, "\n");
  }
  return out;
}

inline Result<OracleQiUrlMap> OracleQiUrlMap::Deserialize(const std::string& text) {
  OracleQiUrlMap map;  // Local until returned: no locking needed.
  for (const std::string& line : StrSplit(text, '\n')) {
    if (line.empty()) continue;
    std::vector<std::string> fields = StrSplit(line, '\t');
    if (fields.size() != 6 || fields[0] != "M") {
      return Status::ParseError(StrCat("malformed QI/URL map line: ", line));
    }
    // IDs restore verbatim (strictly parsed — a silently coerced 0 would
    // shadow every consumer cursor). Re-numbering them densely, as an
    // earlier version did, invisibly invalidated consumers' ReadSince
    // cursors: a cursor taken against the old numbering could replay
    // already-consumed rows or, worse, skip never-seen ones.
    Result<uint64_t> id = ParseUint64(fields[1]);
    if (!id.ok() || *id == 0) {
      return Status::ParseError(StrCat("bad QI/URL map row id: ", line));
    }
    QiUrlEntry entry;
    entry.id = *id;
    entry.query_sql = UnescapeLogField(fields[2]);
    entry.page_key = UnescapeLogField(fields[3]);
    entry.request_string = UnescapeLogField(fields[4]);
    entry.timestamp = std::strtoll(fields[5].c_str(), nullptr, 10);
    auto pair_key = std::make_pair(entry.query_sql, entry.page_key);
    if (!map.entries_.emplace(*id, entry).second ||
        !map.pair_index_.emplace(pair_key, *id).second) {
      return Status::ParseError(
          StrCat("duplicate QI/URL map row: ", line));
    }
    map.by_query_[entry.query_sql].insert(entry.page_key);
    map.by_page_[entry.page_key].insert(entry.query_sql);
    map.next_id_ = std::max(map.next_id_, *id + 1);
  }
  return map;
}

}  // namespace cacheportal::testing

#endif  // CACHEPORTAL_TESTS_QIURL_MAP_ORACLE_H_
