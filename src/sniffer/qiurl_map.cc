#include "sniffer/qiurl_map.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "common/strings.h"
#include "sniffer/log_io.h"

namespace cacheportal::sniffer {

QiUrlMap::Orphans::Orphans(Orphans&& other) noexcept
    : queries(std::move(other.queries)),
      complete(other.complete),
      ids_(std::move(other.ids_)) {
  other.queries.clear();
}

QiUrlMap::Orphans& QiUrlMap::Orphans::operator=(Orphans&& other) noexcept {
  if (this != &other) {
    ReleaseAll();
    queries = std::move(other.queries);
    other.queries.clear();
    complete = other.complete;
    ids_ = std::move(other.ids_);
  }
  return *this;
}

QiUrlMap::Orphans::~Orphans() { ReleaseAll(); }

void QiUrlMap::Orphans::ReleaseAll() {
  if (ids_ == nullptr) return;
  for (QueryId query : queries) ids_->queries.Release(query);
}

std::vector<std::string> QiUrlMap::Orphans::Texts() const {
  std::vector<std::string> out;
  out.reserve(queries.size());
  for (QueryId query : queries) out.push_back(ids_->queries.Text(query));
  return out;
}

QiUrlMap::QiUrlMap() : ids_(std::make_shared<IdInterner>()) {
  orphans_.ids_ = ids_;
}

QiUrlMap::QiUrlMap(QiUrlMap&& other) noexcept { *this = std::move(other); }

QiUrlMap& QiUrlMap::operator=(QiUrlMap&& other) noexcept {
  if (this != &other) {
    ids_ = std::move(other.ids_);
    rows_ = std::move(other.rows_);
    dead_rows_ = other.dead_rows_;
    pair_index_ = std::move(other.pair_index_);
    pages_of_ = std::move(other.pages_of_);
    queries_of_ = std::move(other.queries_of_);
    num_queries_ = other.num_queries_;
    num_pages_ = other.num_pages_;
    next_id_ = other.next_id_;
    epoch_.store(other.epoch_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    orphans_ = std::move(other.orphans_);
  }
  return *this;
}

void QiUrlMap::SortByText(const TextInterner& interner,
                          std::vector<uint32_t>* ids) {
  if (ids->size() < 2) return;
  std::sort(ids->begin(), ids->end(), [&](uint32_t a, uint32_t b) {
    return interner.Text(a) < interner.Text(b);
  });
}

void QiUrlMap::AddRowLocked(Row row) {
  pair_index_.emplace(PairKey(row.query, row.page), rows_.size());
  if (row.query >= pages_of_.size()) pages_of_.resize(row.query + 1);
  if (row.page >= queries_of_.size()) queries_of_.resize(row.page + 1);
  std::vector<PageId>& pages = pages_of_[row.query];
  if (pages.empty()) ++num_queries_;
  pages.push_back(row.page);
  std::vector<QueryId>& queries = queries_of_[row.page];
  if (queries.empty()) ++num_pages_;
  queries.push_back(row.query);
  next_id_ = std::max(next_id_, row.id + 1);
  rows_.push_back(std::move(row));
}

QiUrlMap::Added QiUrlMap::Add(const std::string& query_sql,
                              const std::string& page_key,
                              const std::string& request_string,
                              Micros timestamp) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // The common case is a page rebuilt from the same queries: both texts
  // already have ids, and the row only needs its timestamp refreshed.
  // Such a row holds references on both ids, so they cannot be freed
  // under this lock; without one, the new row takes its own below.
  std::optional<QueryId> known_query = ids_->queries.Find(query_sql);
  std::optional<PageId> known_page = ids_->pages.Find(page_key);
  if (known_query.has_value() && known_page.has_value()) {
    auto it = pair_index_.find(PairKey(*known_query, *known_page));
    if (it != pair_index_.end()) {
      // Timestamp refreshes don't bump the epoch: the row set is
      // unchanged and consumers scanning by ID would see nothing new.
      Row& row = rows_[it->second];
      row.timestamp = timestamp;
      return {row.id, false};
    }
  }
  Row row;
  row.id = next_id_;
  row.query = ids_->queries.Acquire(query_sql);
  row.page = ids_->pages.Acquire(page_key);
  row.timestamp = timestamp;
  row.request_string = request_string;
  AddRowLocked(std::move(row));
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  return {rows_.back().id, true};
}

size_t QiUrlMap::UpperBoundLocked(uint64_t after_id) const {
  return std::upper_bound(rows_.begin(), rows_.end(), after_id,
                          [](uint64_t id, const Row& row) {
                            return id < row.id;
                          }) -
         rows_.begin();
}

std::vector<QiUrlEntry> QiUrlMap::ReadSince(uint64_t after_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<QiUrlEntry> out;
  for (size_t i = UpperBoundLocked(after_id); i < rows_.size(); ++i) {
    const Row& row = rows_[i];
    if (!row.live) continue;
    out.push_back({row.id, ids_->queries.Text(row.query),
                   ids_->pages.Text(row.page), row.request_string,
                   row.timestamp});
  }
  return out;
}

std::vector<QiUrlRow> QiUrlMap::ReadRowsSince(uint64_t after_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<QiUrlRow> out;
  for (size_t i = UpperBoundLocked(after_id); i < rows_.size(); ++i) {
    const Row& row = rows_[i];
    if (row.live) out.push_back({row.id, row.query, row.page});
  }
  return out;
}

std::vector<std::string> QiUrlMap::PagesForQuery(
    const std::string& query_sql) const {
  // Looked up under mu_: an id with rows cannot be freed while it is held.
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::optional<QueryId> query = ids_->queries.Find(query_sql);
  if (!query.has_value() || *query >= pages_of_.size()) return {};
  std::vector<PageId> pages = pages_of_[*query];
  SortByText(ids_->pages, &pages);
  std::vector<std::string> out;
  out.reserve(pages.size());
  for (PageId page : pages) out.push_back(ids_->pages.Text(page));
  return out;
}

std::vector<PageId> QiUrlMap::PageIdsOfQuery(QueryId query) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (query >= pages_of_.size()) return {};
  std::vector<PageId> pages = pages_of_[query];
  SortByText(ids_->pages, &pages);
  return pages;
}

size_t QiUrlMap::NumPagesForQuery(const std::string& query_sql) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::optional<QueryId> query = ids_->queries.Find(query_sql);
  return query.has_value() && *query < pages_of_.size()
             ? pages_of_[*query].size()
             : 0;
}

size_t QiUrlMap::NumPagesForQuery(QueryId query) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return query < pages_of_.size() ? pages_of_[query].size() : 0;
}

std::vector<std::string> QiUrlMap::QueriesForPage(
    const std::string& page_key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::optional<PageId> page = ids_->pages.Find(page_key);
  if (!page.has_value() || *page >= queries_of_.size()) return {};
  std::vector<QueryId> queries = queries_of_[*page];
  SortByText(ids_->queries, &queries);
  std::vector<std::string> out;
  out.reserve(queries.size());
  for (QueryId query : queries) out.push_back(ids_->queries.Text(query));
  return out;
}

size_t QiUrlMap::RemovePage(const std::string& page_key) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::optional<PageId> page = ids_->pages.Find(page_key);
  return page.has_value() ? RemovePageLocked(*page) : 0;
}

size_t QiUrlMap::RemovePage(PageId page) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return RemovePageLocked(page);
}

size_t QiUrlMap::RemovePageLocked(PageId page) {
  if (page >= queries_of_.size() || queries_of_[page].empty()) return 0;
  // The feed records a page's queries in SQL order, not id order, so
  // its contents do not depend on id assignment.
  std::vector<QueryId> queries = std::move(queries_of_[page]);
  queries_of_[page].clear();
  --num_pages_;
  SortByText(ids_->queries, &queries);
  for (QueryId query : queries) {
    auto pair_it = pair_index_.find(PairKey(query, page));
    Row& row = rows_[pair_it->second];
    row.live = false;
    std::string().swap(row.request_string);
    pair_index_.erase(pair_it);
    ++dead_rows_;
    std::vector<PageId>& pages = pages_of_[query];
    pages.erase(std::find(pages.begin(), pages.end(), page));
    if (pages.empty()) {
      --num_queries_;
      std::lock_guard<std::mutex> orphans_lock(orphans_mu_);
      if (orphans_.queries.size() < kMaxOrphans) {
        ids_->queries.Ref(query);
        orphans_.queries.push_back(query);
      } else {
        orphans_.complete = false;
      }
    }
    ids_->queries.Release(query);
    ids_->pages.Release(page);
  }
  // Sweep the dead once they are the majority, keeping the table's size
  // proportional to the live rows.
  if (dead_rows_ > 64 && dead_rows_ * 2 > rows_.size()) {
    std::vector<Row> live;
    live.reserve(rows_.size() - dead_rows_);
    for (Row& row : rows_) {
      if (!row.live) continue;
      pair_index_[PairKey(row.query, row.page)] = live.size();
      live.push_back(std::move(row));
    }
    rows_ = std::move(live);
    dead_rows_ = 0;
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  return queries.size();
}

QiUrlMap::Orphans QiUrlMap::TakeOrphans() {
  std::lock_guard<std::mutex> lock(orphans_mu_);
  Orphans out;
  out.queries = std::move(orphans_.queries);
  orphans_.queries.clear();
  out.complete = std::exchange(orphans_.complete, true);
  out.ids_ = ids_;
  return out;
}

size_t QiUrlMap::NumQueries() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return num_queries_;
}

size_t QiUrlMap::NumPages() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return num_pages_;
}

size_t QiUrlMap::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return rows_.size() - dead_rows_;
}

uint64_t QiUrlMap::LastId() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return next_id_ - 1;
}

std::string QiUrlMap::Serialize() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::string out;
  for (const Row& row : rows_) {
    if (!row.live) continue;
    out += StrCat("M\t", row.id, "\t",
                  EscapeLogField(ids_->queries.Text(row.query)), "\t",
                  EscapeLogField(ids_->pages.Text(row.page)), "\t",
                  EscapeLogField(row.request_string), "\t", row.timestamp,
                  "\n");
  }
  return out;
}

Result<QiUrlMap> QiUrlMap::Deserialize(const std::string& text) {
  QiUrlMap map;  // Local until returned: no locking needed.
  std::vector<Row> rows;
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
    Row row;
    row.id = *id;
    row.query = map.ids_->queries.Acquire(UnescapeLogField(fields[2]));
    row.page = map.ids_->pages.Acquire(UnescapeLogField(fields[3]));
    row.request_string = UnescapeLogField(fields[4]);
    row.timestamp = std::strtoll(fields[5].c_str(), nullptr, 10);
    rows.push_back(std::move(row));
  }
  // The table is ordered by ID whatever order the lines came in.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.id < b.id; });
  for (Row& row : rows) {
    if ((!map.rows_.empty() && map.rows_.back().id == row.id) ||
        map.pair_index_.contains(PairKey(row.query, row.page))) {
      return Status::ParseError(
          StrCat("duplicate QI/URL map row: ", row.id));
    }
    map.AddRowLocked(std::move(row));
  }
  return map;
}

}  // namespace cacheportal::sniffer
