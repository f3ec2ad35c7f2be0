#ifndef CACHEPORTAL_SNIFFER_QIURL_MAP_H_
#define CACHEPORTAL_SNIFFER_QIURL_MAP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/interner.h"
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

/// One row of the QI/URL map by id: what the invalidator's ingest scan
/// reads, with no text copied.
struct QiUrlRow {
  uint64_t id = 0;
  QueryId query = 0;
  PageId page = 0;
};

/// The query-instance-to-URL map, produced by the sniffer and consumed by
/// the invalidator. (query, page) pairs are deduplicated; re-adding an
/// existing pair refreshes its timestamp only.
///
/// Rows are id -> id adjacency: SQL text and cache keys are interned
/// once in an IdInterner the map shares with the invalidator's metadata
/// plane (shared_ids()), each row holding one reference on its query id
/// and one on its page id. Text is read only at the edges: the
/// string-keyed accessors, the page keys delivery hands to the sinks,
/// and Serialize. Reads that expose an order sort by text, never by id
/// (pages of a query, queries of a page, the orphan feed), so nothing
/// observable depends on id assignment.
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
  QiUrlMap();

  QiUrlMap(const QiUrlMap&) = delete;
  QiUrlMap& operator=(const QiUrlMap&) = delete;
  // Moves exist for Result<QiUrlMap> (Deserialize); they are NOT
  // concurrency-safe — move only before publishing the map to threads.
  // The interner moves with the map.
  QiUrlMap(QiUrlMap&& other) noexcept;
  QiUrlMap& operator=(QiUrlMap&& other) noexcept;

  struct Added {
    uint64_t id = 0;       // The row's ID (the existing one if deduplicated).
    bool created = false;  // False: an existing row's timestamp refresh.
  };
  /// Adds a mapping.
  Added Add(const std::string& query_sql, const std::string& page_key,
            const std::string& request_string, Micros timestamp);

  /// Rows with id > `after_id`, for the invalidator's incremental scan.
  std::vector<QiUrlEntry> ReadSince(uint64_t after_id) const;
  /// The same rows by id.
  std::vector<QiUrlRow> ReadRowsSince(uint64_t after_id) const;

  /// Cache keys of all pages built from `query_sql`, in key order.
  std::vector<std::string> PagesForQuery(const std::string& query_sql) const;
  /// The same pages by id, still in key order.
  std::vector<PageId> PageIdsOfQuery(QueryId query) const;

  /// Number of pages built from a query, without materializing them —
  /// the invalidator asks this once per instance per cycle.
  size_t NumPagesForQuery(const std::string& query_sql) const;
  size_t NumPagesForQuery(QueryId query) const;

  /// Query instances used to build page `page_key`, in SQL order.
  std::vector<std::string> QueriesForPage(const std::string& page_key) const;

  /// Drops all rows for a page (it left the cache). Returns the number
  /// of rows removed.
  size_t RemovePage(const std::string& page_key);
  size_t RemovePage(PageId page);

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
  ///
  /// The feed holds one reference on each id it names, and so does the
  /// Orphans value handed out, until it is destroyed: an orphaned id
  /// keeps its text, and is not reused, while anyone can still read it.
  struct Orphans {
    std::vector<QueryId> queries;
    bool complete = true;

    Orphans() = default;
    Orphans(Orphans&& other) noexcept;
    Orphans& operator=(Orphans&& other) noexcept;
    ~Orphans();
    /// The queries' SQL text, in feed order.
    std::vector<std::string> Texts() const;

   private:
    friend class QiUrlMap;
    void ReleaseAll();
    std::shared_ptr<IdInterner> ids_;
  };
  static constexpr size_t kMaxOrphans = 1 << 14;
  Orphans TakeOrphans();

  /// The interner naming this map's ids; the metadata plane shares it.
  IdInterner& ids() const { return *ids_; }
  std::shared_ptr<IdInterner> shared_ids() const { return ids_; }

  /// Serializes all rows to the sniffer's line format (see log_io.h); the
  /// invalidator machine can persist its view of the map across restarts.
  std::string Serialize() const;

  /// Rebuilds a map from Serialize() output. Row IDs and the ID counter
  /// are preserved, so a consumer's ReadSince cursor taken against the
  /// serialized map stays valid against the restored one: rows it had
  /// consumed stay consumed, rows it hadn't are still above the cursor.
  static Result<QiUrlMap> Deserialize(const std::string& text);

 private:
  struct Row {
    uint64_t id = 0;
    QueryId query = 0;
    PageId page = 0;
    bool live = true;  // False: removed, awaiting compaction.
    Micros timestamp = 0;
    std::string request_string;  // For diagnostics / policy discovery.
  };

  static uint64_t PairKey(QueryId query, PageId page) {
    return (static_cast<uint64_t>(query) << 32) | page;
  }
  /// Appends a row and its adjacency; the caller holds mu_ and one
  /// reference on each id for the row.
  void AddRowLocked(Row row);
  /// RemovePage with mu_ held exclusively.
  size_t RemovePageLocked(PageId page);
  /// First row with id > `after_id`. Caller holds mu_.
  size_t UpperBoundLocked(uint64_t after_id) const;
  /// Sorts ids by the text `interner` names them with.
  static void SortByText(const TextInterner& interner,
                         std::vector<uint32_t>* ids);

  mutable std::shared_mutex mu_;
  std::atomic<uint64_t> epoch_{0};
  std::shared_ptr<IdInterner> ids_;
  // The slot table: rows in ascending id order. Removal only clears
  // `live`; the dead are swept out once they are the majority.
  std::vector<Row> rows_;
  size_t dead_rows_ = 0;
  // PairKey -> index of its row in rows_, the dedup and refresh index.
  std::unordered_map<uint64_t, size_t> pair_index_;
  // Adjacency, indexed by id; an empty list is an absent query or page.
  std::vector<std::vector<PageId>> pages_of_;
  std::vector<std::vector<QueryId>> queries_of_;
  size_t num_queries_ = 0;
  size_t num_pages_ = 0;
  uint64_t next_id_ = 1;
  // Taken while holding mu_ (RemovePage), never the other way round.
  std::mutex orphans_mu_;
  Orphans orphans_;
};

}  // namespace cacheportal::sniffer

#endif  // CACHEPORTAL_SNIFFER_QIURL_MAP_H_
