#include "sniffer/mapper.h"

#include <algorithm>

namespace cacheportal::sniffer {

size_t RequestToQueryMapper::Run() {
  size_t added = 0;
  const auto& queries = query_log_->entries();
  const auto& requests = request_log_->entries();
  bool in_prefix = true;  // Every entry before `i` is processed.
  for (size_t i = cursor_; i < requests.size(); ++i) {
    const RequestLogEntry& request = requests[i];
    if (!request.completed()) {
      in_prefix = false;
      continue;
    }
    if (in_prefix) {
      cursor_ = i + 1;
      // Already processed out of order by an earlier run.
      if (processed_.erase(request.id) > 0) continue;
    } else if (!processed_.insert(request.id).second) {
      continue;
    }
    ++requests_processed_;

    // Query log entries are appended in receive-time order; binary-search
    // the first candidate.
    auto begin = std::lower_bound(
        queries.begin(), queries.end(), request.receive_time,
        [](const QueryLogEntry& q, Micros t) { return q.receive_time < t; });
    for (auto it = begin; it != queries.end(); ++it) {
      if (it->receive_time > request.delivery_time) break;
      if (!it->is_select) continue;
      if (it->delivery_time > request.delivery_time) continue;
      if (map_->Add(it->sql, request.page_key, request.request_string,
                    request.delivery_time)
              .created) {
        ++added;
      }
    }
  }
  return added;
}

}  // namespace cacheportal::sniffer
