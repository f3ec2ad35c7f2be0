#include "stack.h"

#include <cstdlib>
#include <utility>

#include "common/strings.h"
#include "sniffer/request_logger.h"

namespace cacheportal::perfbench {

namespace {

const char* kClassPaths[] = {"/light", "/medium", "/heavy"};
const char* kClassNames[] = {"light", "medium", "heavy"};
constexpr char kDbUrl[] = "jdbc:cacheportal:papersite";

}  // namespace

Layer TimedConnection::SpanLayer() const {
  switch (role_) {
    case Role::kSniffer:
      return Layer::kSniffer;
    case Role::kPoll:
      return Layer::kDbPoll;
    case Role::kDb:
      break;
  }
  return static_cast<Layer>(static_cast<int>(Layer::kDbLight) +
                            tracer_->page_class());
}

Result<db::QueryResult> TimedConnection::ExecuteQuery(const std::string& sql) {
  Result<db::QueryResult> result = [&] {
    ScopedSpan span(tracer_, SpanLayer());
    return inner_->ExecuteQuery(sql);
  }();
  if (role_ == Role::kDb) {
    ++counters_->page_queries;
    if (result.ok()) counters_->page_rows += result->rows.size();
  } else if (role_ == Role::kPoll) {
    ++counters_->polls;
  }
  return result;
}

Result<int64_t> TimedConnection::ExecuteUpdate(const std::string& sql) {
  ScopedSpan span(tracer_, SpanLayer());
  return inner_->ExecuteUpdate(sql);
}

Result<std::unique_ptr<server::Connection>> TimedDriver::Connect(
    const std::string& url) {
  CACHEPORTAL_ASSIGN_OR_RETURN(std::unique_ptr<server::Connection> inner,
                               inner_->Connect(url));
  return std::unique_ptr<server::Connection>(std::make_unique<TimedConnection>(
      std::move(inner), role_, tracer_, counters_));
}

Status EdgeCache::Apply(std::string_view payload) {
  Result<http::HttpRequest> eject =
      http::HttpRequest::Parse(std::string(payload));
  if (!eject.ok()) return eject.status();
  std::string key = eject->ToPageId().CacheKey();
  std::lock_guard<std::mutex> lock(mu_);
  cache_.HandleInvalidationRequest(*eject);  // 404 for an uncached page.
  applied_.push_back(std::move(key));
  return Status::OK();
}

void EdgeCache::Store(const http::PageId& id,
                      const http::HttpResponse& response) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.Store(id, response);
}

void EdgeCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.Clear();
}

std::vector<std::string> EdgeCache::TakeApplied() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(applied_);
}

std::vector<std::pair<std::string, std::string>> EdgeCache::Pages() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::string>> pages;
  for (const std::string& key : cache_.Keys()) {
    Result<http::PageId> id = http::PageId::FromCacheKey(key);
    if (!id.ok()) continue;
    std::optional<http::HttpResponse> hit = cache_.Lookup(*id);
    if (hit.has_value()) pages.emplace_back(key, std::move(hit->body));
  }
  return pages;
}

std::string Stack::PageSql(int cls, int grp) {
  switch (cls) {
    case 0:
      return StrCat("SELECT id, val FROM SmallT WHERE grp = ", grp,
                    " ORDER BY id");
    case 1:
      return StrCat("SELECT id, val FROM LargeT WHERE grp = ", grp,
                    " ORDER BY id");
    default:
      return StrCat(
          "SELECT COUNT(*) AS pairs, MAX(LargeT.val) AS best FROM SmallT, "
          "LargeT WHERE SmallT.grp = LargeT.grp AND SmallT.grp = ",
          grp);
  }
}

std::string Stack::RenderBody(int cls, int grp,
                              const db::QueryResult& result) {
  return StrCat("<html><h1>", kClassNames[cls], " page, group ", grp,
                "</h1><pre>", result.ToString(), "</pre></html>");
}

Stack::Stack(const WorkloadSpec& spec, Tracer* tracer)
    : spec_(spec), tracer_(tracer), db_(&clock_), edge_(spec.cache_capacity) {}

Stack::~Stack() {
  if (client_ != nullptr) client_->Disconnect();
  if (server_ != nullptr) server_->Stop();
}

Result<std::unique_ptr<Stack>> Stack::Create(const WorkloadSpec& spec,
                                             TraceGenerator* trace,
                                             Tracer* tracer) {
  std::unique_ptr<Stack> stack(new Stack(spec, tracer));
  CACHEPORTAL_RETURN_NOT_OK(stack->Build(trace));
  return stack;
}

Status Stack::Build(TraceGenerator* trace) {
  // ---- Schema and data (PaperSite, Section 5.2.1). ----
  for (const char* table : {"SmallT", "LargeT"}) {
    CACHEPORTAL_RETURN_NOT_OK(db_.CreateTable(
        db::TableSchema(table, {{"id", db::ColumnType::kInt},
                                {"grp", db::ColumnType::kInt},
                                {"val", db::ColumnType::kInt}})));
    CACHEPORTAL_RETURN_NOT_OK(db_.CreateIndex(table, "grp"));
  }
  // Statements are made one at a time, so the harness never holds the
  // whole seed in memory.
  Status seeded;
  trace->SeedStatements([&](const std::string& sql) {
    seeded = db_.ExecuteSql(sql).status();
    return seeded.ok();
  });
  CACHEPORTAL_RETURN_NOT_OK(seeded);

  // ---- CachePortal attaches to the populated site (default options). ----
  core::CachePortalOptions portal_options;
  portal_options.page_cache_capacity = spec_.cache_capacity;
  portal_ =
      std::make_unique<core::CachePortal>(&db_, &clock_, portal_options);

  // ---- JDBC: sniffer timing -> query logger -> db timing -> database. ----
  raw_driver_.BindDatabase("papersite", &db_);
  db_driver_ = std::make_unique<TimedDriver>(
      &raw_driver_, nullptr, TimedConnection::Role::kDb, tracer_, &counters_);
  std::unique_ptr<server::Driver> logging =
      portal_->WrapDriver(db_driver_.get());
  server::Driver* logging_raw = logging.get();
  drivers_.RegisterDriver(std::make_unique<TimedDriver>(
      logging_raw, std::move(logging), TimedConnection::Role::kSniffer,
      tracer_, &counters_));
  CACHEPORTAL_ASSIGN_OR_RETURN(
      pool_, server::ConnectionPool::Create(
                 "pool", StrCat("jdbc:cacheportal-log:", kDbUrl), 4,
                 &drivers_));

  // ---- Servlets. ----
  app_ = std::make_unique<server::ApplicationServer>(pool_.get());
  for (int cls = 0; cls < spec_.page_classes(); ++cls) {
    auto servlet = std::make_unique<server::FunctionServlet>(
        [this, cls](const http::HttpRequest& req,
                    server::ServletContext* ctx) {
          ScopedSpan span(tracer_, Layer::kServlet);
          int grp = 0;
          if (auto it = req.get_params.find("grp");
              it != req.get_params.end()) {
            grp = static_cast<int>(
                std::strtol(it->second.c_str(), nullptr, 10));
          }
          clock_.Advance(500);  // Servlet compute time, as in PaperSite.
          auto result = ctx->connection->ExecuteQuery(PageSql(cls, grp));
          if (!result.ok()) {
            return http::HttpResponse::ServerError(
                result.status().ToString());
          }
          return http::HttpResponse::Ok(RenderBody(cls, grp, *result));
        });
    CACHEPORTAL_RETURN_NOT_OK(app_->RegisterServlet(
        kClassPaths[cls], std::move(servlet), server::ServletConfig{}));
    server::ServletConfig config;
    config.name = kClassPaths[cls];
    config.key_get_params = {"grp"};
    portal_->RegisterServlet(config);
  }
  portal_->AttachTo(app_.get());
  timed_app_ = std::make_unique<TimedHandler>(app_.get(), tracer_);
  proxy_ = portal_->CreateProxy(timed_app_.get());

  // ---- Polling goes through an un-logged, timed connection. ----
  CACHEPORTAL_ASSIGN_OR_RETURN(std::unique_ptr<server::Connection> raw_poll,
                               raw_driver_.Connect(kDbUrl));
  poll_connection_ = std::make_unique<TimedConnection>(
      std::move(raw_poll), TimedConnection::Role::kPoll, tracer_, &counters_);
  portal_->mutable_invalidator()->SetPollingConnection(poll_connection_.get());

  // ---- Edge: queue -> batch wire sink -> client -> server on port 0. ----
  CACHEPORTAL_ASSIGN_OR_RETURN(
      server_, net::InvalidationServer::Start(
                   [this](std::string_view payload, uint64_t, uint64_t) {
                     return edge_.Apply(payload);
                   }));
  net::WireClientOptions client_options;
  client_options.port = server_->port();
  client_options.client_id = "perfbench";
  client_ = std::make_unique<net::WireInvalidationClient>(&clock_,
                                                          client_options);
  net::WireInvalidationClient* client = client_.get();
  wire_sink_ = std::make_unique<core::WireCacheSink>(
      [client](const std::string& bytes, const std::string& key) {
        return client->Deliver(key, bytes);
      },
      [client](const std::vector<std::pair<std::string, std::string>>&
                   entries) {
        std::vector<net::WireInvalidationClient::BatchEntry> wire_entries;
        wire_entries.reserve(entries.size());
        for (const auto& [key, bytes] : entries) {
          wire_entries.push_back({key, bytes});
        }
        net::WireBatchResult sent = client->DeliverBatch(wire_entries);
        return invalidator::BatchSendResult{sent.confirmed, sent.status};
      },
      [client] { return client->HealthReport(); });
  queue_ = std::make_unique<core::ReliableDeliveryQueue>(&clock_);
  queue_->AddSink(wire_sink_.get(), "edge", [this] { edge_.Clear(); });
  edge_sink_ = std::make_unique<EdgeSink>(queue_.get(), tracer_);
  portal_->mutable_invalidator()->AddSink(edge_sink_.get());
  CACHEPORTAL_RETURN_NOT_OK(client_->Ping());

  // ---- The request of every page, built once. ----
  for (uint32_t page = 0; page < static_cast<uint32_t>(spec_.num_pages());
       ++page) {
    int cls = PageClassOf(spec_, page);
    CACHEPORTAL_ASSIGN_OR_RETURN(
        http::HttpRequest request,
        http::HttpRequest::Get(StrCat("http://papersite", kClassPaths[cls],
                                      "?grp=", PageGroupOf(spec_, page))));
    // The proxy narrows with the request logger's servlet configs.
    http::PageId id = sniffer::RequestLogger::NarrowToKeys(
        request, portal_->request_logger()->FindConfig(request.path));
    page_keys_.push_back(id.CacheKey());
    page_ids_.push_back(std::move(id));
    requests_.push_back(std::move(request));
  }
  return Status::OK();
}

Result<std::string> Stack::FreshBody(uint32_t page) {
  int cls = PageClassOf(spec_, page);
  int grp = PageGroupOf(spec_, page);
  CACHEPORTAL_ASSIGN_OR_RETURN(db::QueryResult result,
                               db_.ExecuteSql(PageSql(cls, grp)));
  return RenderBody(cls, grp, result);
}

}  // namespace cacheportal::perfbench
