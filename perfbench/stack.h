#ifndef CACHEPORTAL_PERFBENCH_STACK_H_
#define CACHEPORTAL_PERFBENCH_STACK_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cache/page_cache.h"
#include "common/clock.h"
#include "common/status.h"
#include "core/cache_portal.h"
#include "core/reliable_delivery.h"
#include "core/remote_cache.h"
#include "db/database.h"
#include "net/invalidation_server.h"
#include "net/wire_client.h"
#include "server/app_server.h"
#include "server/jdbc.h"
#include "tracer.h"
#include "workload.h"

namespace cacheportal::perfbench {

/// Work counts taken at the connection decorators.
struct LayerCounters {
  uint64_t page_queries = 0;
  uint64_t page_rows = 0;
  uint64_t polls = 0;
};

/// Times one server::Connection from outside. The role picks the span:
/// the sniffer's logging connection, the database under it (span named
/// by the page class in flight), or the invalidator's polling connection.
class TimedConnection : public server::Connection {
 public:
  enum class Role { kSniffer, kDb, kPoll };

  TimedConnection(std::unique_ptr<server::Connection> inner, Role role,
                  Tracer* tracer, LayerCounters* counters)
      : inner_(std::move(inner)),
        role_(role),
        tracer_(tracer),
        counters_(counters) {}

  Result<db::QueryResult> ExecuteQuery(const std::string& sql) override;
  Result<int64_t> ExecuteUpdate(const std::string& sql) override;

 private:
  Layer SpanLayer() const;

  std::unique_ptr<server::Connection> inner_;
  Role role_;
  Tracer* tracer_;
  LayerCounters* counters_;
};

/// A server::Driver whose connections are TimedConnections.
class TimedDriver : public server::Driver {
 public:
  /// `inner` is not owned unless also passed as `owned`.
  TimedDriver(server::Driver* inner, std::unique_ptr<server::Driver> owned,
              TimedConnection::Role role, Tracer* tracer,
              LayerCounters* counters)
      : inner_(inner),
        owned_(std::move(owned)),
        role_(role),
        tracer_(tracer),
        counters_(counters) {}

  bool AcceptsUrl(const std::string& url) const override {
    return inner_->AcceptsUrl(url);
  }
  Result<std::unique_ptr<server::Connection>> Connect(
      const std::string& url) override;

 private:
  server::Driver* inner_;
  std::unique_ptr<server::Driver> owned_;
  TimedConnection::Role role_;
  Tracer* tracer_;
  LayerCounters* counters_;
};

/// Times the application server below the caching proxy (misses only).
class TimedHandler : public server::RequestHandler {
 public:
  TimedHandler(server::RequestHandler* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  http::HttpResponse Handle(const http::HttpRequest& request) override {
    ScopedSpan span(tracer_, Layer::kApp);
    return inner_->Handle(request);
  }

 private:
  server::RequestHandler* inner_;
  Tracer* tracer_;
};

/// The edge sink the invalidator sees: times each hand-off to the
/// delivery queue and remembers the keys handed, in order.
class EdgeSink : public invalidator::InvalidationSink {
 public:
  EdgeSink(core::ReliableDeliveryQueue* queue, Tracer* tracer)
      : queue_(queue), tracer_(tracer) {}

  Status SendInvalidation(const http::HttpRequest& eject_message,
                          const std::string& cache_key) override {
    handed_.push_back(cache_key);
    ScopedSpan span(tracer_, Layer::kEnqueue);
    return queue_->SendInvalidation(eject_message, cache_key);
  }

  /// Keys handed since the last call.
  std::vector<std::string> TakeHanded() { return std::move(handed_); }

 private:
  core::ReliableDeliveryQueue* queue_;
  Tracer* tracer_;
  std::vector<std::string> handed_;
};

/// The edge cache behind the invalidation wire. Ejects arrive on the
/// server's session thread; the benchmark stores pages from its own
/// thread, so every access takes the lock.
class EdgeCache {
 public:
  explicit EdgeCache(size_t capacity) : cache_(capacity, &clock_) {}

  /// The InvalidationServer's apply function.
  Status Apply(std::string_view payload);
  void Store(const http::PageId& id, const http::HttpResponse& response);
  void Clear();

  /// Keys applied since the last call, in apply order.
  std::vector<std::string> TakeApplied();
  /// Every cached page as (key, body).
  std::vector<std::pair<std::string, std::string>> Pages();

 private:
  std::mutex mu_;
  ManualClock clock_;  // Never advanced: edge pages do not expire.
  cache::PageCache cache_;
  std::vector<std::string> applied_;
};

/// The whole system under test, wired as PaperSite wires it plus one
/// edge cache across loopback TCP, with a timing decorator at each
/// public boundary.
class Stack {
 public:
  /// Seeds the tables from `trace`, builds the site and starts the
  /// wire. Any failure is returned, never ignored.
  static Result<std::unique_ptr<Stack>> Create(const WorkloadSpec& spec,
                                               TraceGenerator* trace,
                                               Tracer* tracer);

  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Page SQL and render, identical to PaperSite's.
  static std::string PageSql(int cls, int grp);
  static std::string RenderBody(int cls, int grp,
                                const db::QueryResult& result);

  /// The body page `page` would have if rendered now, straight from the
  /// database (the oracle's reference; neither logged nor timed).
  Result<std::string> FreshBody(uint32_t page);

  const WorkloadSpec& spec() const { return spec_; }
  ManualClock* clock() { return &clock_; }
  db::Database* db() { return &db_; }
  core::CachePortal* portal() { return portal_.get(); }
  core::CachingProxy* proxy() { return proxy_; }
  core::ReliableDeliveryQueue* queue() { return queue_.get(); }
  net::WireInvalidationClient* wire_client() { return client_.get(); }
  net::InvalidationServer* wire_server() { return server_.get(); }
  EdgeSink* edge_sink() { return edge_sink_.get(); }
  EdgeCache* edge() { return &edge_; }
  const LayerCounters& counters() const { return counters_; }

  const http::HttpRequest& request(uint32_t page) const {
    return requests_[page];
  }
  const http::PageId& page_id(uint32_t page) const { return page_ids_[page]; }
  const std::string& page_key(uint32_t page) const { return page_keys_[page]; }

 private:
  Stack(const WorkloadSpec& spec, Tracer* tracer);
  Status Build(TraceGenerator* trace);

  WorkloadSpec spec_;
  Tracer* tracer_;
  ManualClock clock_;
  db::Database db_;
  LayerCounters counters_;
  EdgeCache edge_;
  std::unique_ptr<net::InvalidationServer> server_;
  std::unique_ptr<net::WireInvalidationClient> client_;
  std::unique_ptr<core::WireCacheSink> wire_sink_;
  std::unique_ptr<core::ReliableDeliveryQueue> queue_;
  std::unique_ptr<EdgeSink> edge_sink_;
  std::unique_ptr<core::CachePortal> portal_;
  server::MemoryDbDriver raw_driver_;
  std::unique_ptr<TimedDriver> db_driver_;
  server::DriverManager drivers_;
  std::unique_ptr<server::ConnectionPool> pool_;
  std::unique_ptr<server::ApplicationServer> app_;
  std::unique_ptr<TimedHandler> timed_app_;
  core::CachingProxy* proxy_ = nullptr;
  std::unique_ptr<server::Connection> poll_connection_;
  std::vector<http::HttpRequest> requests_;
  std::vector<http::PageId> page_ids_;
  std::vector<std::string> page_keys_;
};

}  // namespace cacheportal::perfbench

#endif  // CACHEPORTAL_PERFBENCH_STACK_H_
