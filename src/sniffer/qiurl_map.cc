#include "sniffer/qiurl_map.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "common/strings.h"
#include "sniffer/log_io.h"

namespace cacheportal::sniffer {

QiUrlMap::QiUrlMap(QiUrlMap&& other) noexcept {
  entries_ = std::move(other.entries_);
  pair_index_ = std::move(other.pair_index_);
  by_query_ = std::move(other.by_query_);
  by_page_ = std::move(other.by_page_);
  next_id_ = other.next_id_;
  epoch_.store(other.epoch_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  orphans_ = std::move(other.orphans_);
}

QiUrlMap& QiUrlMap::operator=(QiUrlMap&& other) noexcept {
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

uint64_t QiUrlMap::Add(const std::string& query_sql,
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

std::vector<QiUrlEntry> QiUrlMap::ReadSince(uint64_t after_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<QiUrlEntry> out;
  for (auto it = entries_.upper_bound(after_id); it != entries_.end(); ++it) {
    out.push_back(it->second);
  }
  return out;
}

std::vector<std::string> QiUrlMap::PagesForQuery(
    const std::string& query_sql) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_query_.find(query_sql);
  if (it == by_query_.end()) return {};
  return std::vector<std::string>(it->second.begin(), it->second.end());
}

size_t QiUrlMap::NumPagesForQuery(const std::string& query_sql) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_query_.find(query_sql);
  return it == by_query_.end() ? 0 : it->second.size();
}

std::vector<std::string> QiUrlMap::QueriesForPage(
    const std::string& page_key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_page_.find(page_key);
  if (it == by_page_.end()) return {};
  return std::vector<std::string>(it->second.begin(), it->second.end());
}

size_t QiUrlMap::RemovePage(const std::string& page_key) {
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

QiUrlMap::Orphans QiUrlMap::TakeOrphans() {
  std::lock_guard<std::mutex> lock(orphans_mu_);
  return std::exchange(orphans_, Orphans{});
}

size_t QiUrlMap::NumQueries() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return by_query_.size();
}

size_t QiUrlMap::NumPages() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return by_page_.size();
}

size_t QiUrlMap::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

uint64_t QiUrlMap::LastId() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return next_id_ - 1;
}

std::string QiUrlMap::Serialize() const {
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

Result<QiUrlMap> QiUrlMap::Deserialize(const std::string& text) {
  QiUrlMap map;  // Local until returned: no locking needed.
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

}  // namespace cacheportal::sniffer
