#ifndef CACHEPORTAL_SNIFFER_MAPPER_H_
#define CACHEPORTAL_SNIFFER_MAPPER_H_

#include <cstdint>
#include <set>

#include "sniffer/qiurl_map.h"
#include "sniffer/query_log.h"
#include "sniffer/request_log.h"

namespace cacheportal::sniffer {

/// The request-to-query mapper (Section 3.3): joins the request log and
/// the query log on time intervals. For every completed request interval
/// [receive, delivery], each SELECT whose own [receive, delivery] interval
/// falls inside it is recorded as a (query instance, URL) pair in the
/// QI/URL map.
///
/// Note the inherent approximation the paper accepts: when requests
/// overlap in time, a query may be attributed to several requests. That
/// errs toward over-invalidation, never staleness.
class RequestToQueryMapper {
 public:
  /// None of the pointers are owned.
  RequestToQueryMapper(const RequestLog* request_log,
                       const QueryLog* query_log, QiUrlMap* map)
      : request_log_(request_log), query_log_(query_log), map_(map) {}

  /// Processes newly completed requests; returns how many (query, page)
  /// pairs were added to the map. Idempotent per request. Visits only the
  /// log entries from the first unprocessed one on, so its cost follows
  /// the requests served since the last run, not the log's length.
  size_t Run();

  /// Requests processed so far.
  uint64_t requests_processed() const { return requests_processed_; }

 private:
  const RequestLog* request_log_;
  const QueryLog* query_log_;
  QiUrlMap* map_;
  // Index of the first request-log entry not yet processed: every entry
  // before it is done.
  size_t cursor_ = 0;
  // IDs of the processed entries past the cursor: requests that
  // completed while an earlier one was still in flight.
  std::set<uint64_t> processed_;
  uint64_t requests_processed_ = 0;
};

}  // namespace cacheportal::sniffer

#endif  // CACHEPORTAL_SNIFFER_MAPPER_H_
