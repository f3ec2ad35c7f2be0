#ifndef CACHEPORTAL_CORE_CACHE_PORTAL_H_
#define CACHEPORTAL_CORE_CACHE_PORTAL_H_

#include <memory>
#include <string>

#include "cache/page_cache.h"
#include "common/clock.h"
#include "common/status.h"
#include "core/caching_proxy.h"
#include "core/page_cache_sink.h"
#include "db/database.h"
#include "invalidator/durability.h"
#include "invalidator/invalidator.h"
#include "server/app_server.h"
#include "sniffer/mapper.h"
#include "sniffer/qiurl_map.h"
#include "sniffer/query_log.h"
#include "sniffer/query_logger.h"
#include "sniffer/request_log.h"
#include "sniffer/request_logger.h"

namespace cacheportal::core {

/// Construction options for a CachePortal deployment.
struct CachePortalOptions {
  /// Pages the web cache can hold.
  size_t page_cache_capacity = 10000;
  /// Truncate the database's update log after each cycle (safe when this
  /// CachePortal is the log's only consumer, the common deployment).
  bool truncate_update_log = false;
  /// The invalidation cycle CachePortal sustains; used to filter
  /// temporally sensitive servlets from caching.
  Micros invalidation_cycle = kMicrosPerSecond;
  invalidator::InvalidatorOptions invalidator;
  /// Crash-safe metadata. Enabled iff `durability.dir` is non-empty:
  /// the portal then journals registration/cycle state to a WAL in that
  /// directory, snapshots periodically, and RecoverDurableState()
  /// resumes after a crash. Empty dir = in-memory only (the historical
  /// behavior).
  invalidator::DurabilityOptions durability;
};

/// The CachePortal system facade: wires the sniffer (request logger,
/// query logger, request-to-query mapper), the QI/URL map, the dynamic
/// content cache, and the invalidator around an existing site — without
/// modifying the site's servlets or database (the paper's non-invasive
/// deployment, Figure 7).
///
/// Typical deployment:
///
///   db::Database db;
///   server::DriverManager drivers;                      // site's JDBC
///   auto* raw = new server::MemoryDbDriver(); ... bind ...
///   CachePortal portal(&db, &clock, options);
///   drivers.RegisterDriver(portal.WrapDriver(raw));     // query logger
///   ... create pool over "jdbc:cacheportal-log:jdbc:cacheportal:shop" ...
///   server::ApplicationServer app(&pool);
///   portal.AttachTo(&app);                              // request logger
///   portal.RegisterServlet(config);                     // key params
///   auto proxy = portal.CreateProxy(&app);              // config III cache
///   ... serve requests through proxy->Handle(...) ...
///   portal.RunCycle();                                  // each sync point
class CachePortal {
 public:
  /// Observes `database`'s update log; `clock` times everything. Neither
  /// is owned.
  CachePortal(db::Database* database, const Clock* clock,
              CachePortalOptions options = {});

  CachePortal(const CachePortal&) = delete;
  CachePortal& operator=(const CachePortal&) = delete;

  /// Wraps the site's JDBC driver with the sniffer's query logger. The
  /// returned driver accepts URLs of the form
  /// "jdbc:cacheportal-log:<inner-url>". `inner` is not owned.
  std::unique_ptr<server::Driver> WrapDriver(server::Driver* inner);

  /// Wraps a single already-open connection with the query logger.
  std::unique_ptr<server::Connection> WrapConnection(
      server::Connection* inner);

  /// Installs the request logger as `app_server`'s interceptor.
  void AttachTo(server::ApplicationServer* app_server);

  /// Registers servlet metadata with the request logger (key parameters,
  /// temporal sensitivity).
  void RegisterServlet(const server::ServletConfig& config);

  /// Creates the Configuration III caching proxy in front of `upstream`.
  /// Key-parameter narrowing uses the attached application server's
  /// servlet configs. The proxy is owned by the portal. `shed` configures
  /// the proxy's miss-only load shedding (off by default).
  CachingProxy* CreateProxy(server::RequestHandler* upstream,
                            ProxyShedOptions shed = {});

  /// Declares a query type offline (Section 4.1.1).
  Status RegisterQueryType(const std::string& name,
                           const std::string& parameterized_sql) {
    return invalidator_.RegisterQueryType(name, parameterized_sql);
  }

  /// Registers a hard invalidation policy rule.
  void AddPolicyRule(invalidator::PolicyRule rule) {
    invalidator_.AddPolicyRule(std::move(rule));
  }

  /// Maintains a join index inside the invalidator.
  Status CreateJoinIndex(const std::string& table,
                         const std::string& column) {
    return invalidator_.CreateJoinIndex(table, column);
  }

  /// Recovers durable metadata from `options.durability.dir` into the
  /// invalidator and arms journaling. Call after construction (sinks are
  /// wired) and before serving traffic. InvalidArgument when durability
  /// is not configured.
  Status RecoverDurableState();

  /// The durability coordinator, or nullptr when not configured.
  invalidator::DurabilityCoordinator* durability() {
    return durability_.get();
  }

  /// One synchronization point: run the request-to-query mapper, then an
  /// invalidation cycle (durably committed when durability is
  /// configured). Update-log truncation (when enabled) advances only
  /// through the DURABLE position — a record the WAL hasn't captured
  /// yet must survive for the post-crash replay.
  Result<invalidator::CycleReport> RunCycle();

  /// Serializes the invalidator's resumption state (see
  /// Invalidator::Checkpoint — update-log cursor, per-shard
  /// QI/URL-map cursors, full registry, sink backlogs) and trims the
  /// update log — the log's bounded-memory story: records at or below
  /// the checkpointed cursor can never be needed again, even across a
  /// crash+Restore. With durability configured this also installs a
  /// fresh on-disk snapshot, and the trim advances only through the
  /// position that snapshot (or the last synced commit) durably covers.
  std::string Checkpoint();

  /// Rebuilds resumption state from Checkpoint() output, including one
  /// written at a different metadata-plane shard count. A corrupt or
  /// foreign blob is a ParseError and changes nothing.
  Status Restore(const std::string& checkpoint) {
    return invalidator_.Restore(checkpoint);
  }

  // Component access (primarily for tests, benches, and diagnostics).
  cache::PageCache* page_cache() { return &page_cache_; }
  const sniffer::RequestLog& request_log() const { return request_log_; }
  const sniffer::QueryLog& query_log() const { return query_log_; }
  const sniffer::QiUrlMap& qiurl_map() const { return qiurl_map_; }
  invalidator::Invalidator* mutable_invalidator() { return &invalidator_; }
  const invalidator::Invalidator& invalidator() const { return invalidator_; }
  sniffer::RequestLogger* request_logger() { return &request_logger_; }

 private:
  db::Database* database_;
  const Clock* clock_;
  CachePortalOptions options_;

  // Sniffer state.
  sniffer::RequestLog request_log_;
  sniffer::QueryLog query_log_;
  sniffer::QiUrlMap qiurl_map_;
  sniffer::RequestLogger request_logger_;
  sniffer::RequestToQueryMapper mapper_;

  // Cache + invalidator.
  cache::PageCache page_cache_;
  invalidator::Invalidator invalidator_;
  PageCacheSink sink_;
  // Non-null iff options_.durability.dir is non-empty.
  std::unique_ptr<invalidator::DurabilityCoordinator> durability_;

  server::ApplicationServer* attached_app_server_ = nullptr;
  std::vector<std::unique_ptr<CachingProxy>> proxies_;
};

}  // namespace cacheportal::core

#endif  // CACHEPORTAL_CORE_CACHE_PORTAL_H_
