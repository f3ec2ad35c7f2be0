#ifndef CACHEPORTAL_SNIFFER_QIURL_MAP_H_
#define CACHEPORTAL_SNIFFER_QIURL_MAP_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace cacheportal::sniffer {

/// One row of the QI/URL map (Section 2.4): a unique ID, the query
/// instance's SQL text, and the URL (cache key) of the page it produced.
struct QiUrlEntry {
  uint64_t id = 0;
  std::string query_sql;
  std::string page_key;
  std::string request_string;  // For diagnostics / policy discovery.
  Micros timestamp = 0;
};

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
class QiUrlMap {
 public:
  QiUrlMap() = default;

  QiUrlMap(const QiUrlMap&) = delete;
  QiUrlMap& operator=(const QiUrlMap&) = delete;
  // Moves exist for Result<QiUrlMap> (Deserialize); they are NOT
  // concurrency-safe — move only before publishing the map to threads.
  QiUrlMap(QiUrlMap&& other) noexcept;
  QiUrlMap& operator=(QiUrlMap&& other) noexcept;

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
  static Result<QiUrlMap> Deserialize(const std::string& text);

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

}  // namespace cacheportal::sniffer

#endif  // CACHEPORTAL_SNIFFER_QIURL_MAP_H_
