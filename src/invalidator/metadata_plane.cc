#include "invalidator/metadata_plane.h"

#include <algorithm>
#include <utility>

#include "sql/parser.h"
#include "sql/template.h"

namespace cacheportal::invalidator {

MetadataPlane::MetadataPlane(db::Database* database, bool exact_strategy,
                             std::shared_ptr<IdInterner> ids)
    : database_(database),
      exact_strategy_(exact_strategy),
      ids_(ids != nullptr ? std::move(ids) : std::make_shared<IdInterner>()),
      state_(&ids_->queries) {}

Status MetadataPlane::RegisterType(const std::string& name,
                                   const std::string& parameterized_sql) {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.registry.RegisterType(name, parameterized_sql).status();
}

Result<const QueryInstance*> MetadataPlane::RegisterInstance(
    const std::string& sql) {
  QueryId query = ids_->queries.Acquire(sql);
  Result<const QueryInstance*> instance = RegisterInstance(query);
  ids_->queries.Release(query);  // A registered instance holds its own.
  return instance;
}

Result<const QueryInstance*> MetadataPlane::RegisterInstance(QueryId query) {
  // Fast path: a live instance is found without parsing (re-registration
  // is the common case — the sniffer re-adds a row every time a cached
  // page rebuilds).
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const QueryInstance* instance =
            state_.registry.FindInstanceById(query)) {
      return instance;
    }
  }

  const std::string& sql = ids_->queries.Text(query);
  CACHEPORTAL_ASSIGN_OR_RETURN(auto select, sql::Parser::ParseSelect(sql));
  CACHEPORTAL_ASSIGN_OR_RETURN(sql::QueryTemplate tmpl,
                               sql::ExtractTemplate(*select));
  const QueryInstance* instance = nullptr;
  Observer observer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A concurrent registration may have raced the parse.
    const bool fresh = state_.registry.FindInstanceById(query) == nullptr;
    CACHEPORTAL_ASSIGN_OR_RETURN(
        instance, state_.registry.RegisterParsedInstance(
                      query, std::move(select), std::move(tmpl)));
    IndexInstanceLocked(*instance);
    if (fresh) observer = observer_;
  }
  if (observer) observer(/*registered=*/true, sql);
  return instance;
}

void MetadataPlane::RetireInstance(const std::string& sql) {
  std::optional<QueryId> query = ids_->queries.Find(sql);
  if (query.has_value()) RetireInstance(*query);
}

void MetadataPlane::RetireInstance(QueryId query) {
  std::optional<std::string> sql;
  Observer observer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_.registry.FindInstanceById(query) == nullptr) return;
    state_.bind_index.RemoveInstance(query);
    sql = state_.registry.UnregisterInstance(query);
    observer = observer_;
  }
  if (observer) observer(/*registered=*/false, *sql);
}

const QueryInstance* MetadataPlane::FindInstance(const std::string& sql) const {
  std::optional<QueryId> query = ids_->queries.Find(sql);
  if (!query.has_value()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  const QueryInstance* instance = state_.registry.FindInstanceById(*query);
  // The id was looked up without a reference: check it still names `sql`.
  return instance != nullptr && instance->sql == sql ? instance : nullptr;
}

const QueryType* MetadataPlane::FindType(uint64_t type_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.registry.FindType(type_id);
}

void MetadataPlane::With(const std::function<void(State&)>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  fn(state_);
}

void MetadataPlane::ForEachType(
    const std::function<void(const QueryType&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  state_.registry.ForEachType(fn);
}

void MetadataPlane::ForEachTypeMutable(
    const std::function<void(QueryType&)>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.registry.ForEachTypeMutable(fn);
}

void MetadataPlane::ForEachInstance(
    const std::function<void(const QueryType&, const QueryInstance&)>& fn)
    const {
  std::lock_guard<std::mutex> lock(mu_);
  state_.registry.ForEachType([&](const QueryType& type) {
    state_.registry.ForEachInstanceOfType(
        type.type_id,
        [&](const QueryInstance& instance) { fn(type, instance); });
  });
}

size_t MetadataPlane::NumTypes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.registry.NumTypes();
}

size_t MetadataPlane::NumInstances() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.registry.NumInstances();
}

size_t MetadataPlane::NumIndexedInstances() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.bind_index.NumIndexedInstances();
}

MatcherStats MetadataPlane::CompileStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.compile_stats;
}

std::optional<TierDecision> MetadataPlane::TierOf(uint64_t type_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = state_.tiers.find(type_id);
  if (it == state_.tiers.end()) return std::nullopt;
  return it->second;
}

std::map<uint64_t, TierDecision> MetadataPlane::TierAssignments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.tiers;
}

void MetadataPlane::InstallTier(uint64_t type_id, StrategyTier tier,
                                const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.tiers[type_id] = TierDecision{tier, reason};
}

uint64_t MetadataPlane::MapCursor() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_cursor_;
}

void MetadataPlane::AdvanceMapCursor(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  map_cursor_ = std::max(map_cursor_, id);
}

void MetadataPlane::SetMapCursor(uint64_t cursor) {
  std::lock_guard<std::mutex> lock(mu_);
  map_cursor_ = cursor;
}

uint64_t MetadataPlane::TypeCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.registry.TypeCount();
}

void MetadataPlane::SetTypeCount(uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.registry.SetTypeCount(count);
}

void MetadataPlane::SetMutationObserver(Observer observer) {
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = std::move(observer);
}

void MetadataPlane::IndexInstanceLocked(const QueryInstance& instance) {
  const QueryType* type = state_.registry.FindType(instance.type_id);
  if (type == nullptr) return;
  auto it = state_.matchers.find(instance.type_id);
  if (it == state_.matchers.end()) {
    TypeMatcher matcher = TypeMatcher::Compile(*type, *database_);
    ++state_.compile_stats.types_compiled;
    if (matcher.handled()) {
      ++state_.compile_stats.types_handled;
    } else {
      ++state_.compile_stats.fallback_reasons[matcher.fallback_reason()];
    }
    it = state_.matchers.emplace(instance.type_id, std::move(matcher)).first;
  }
  if (it->second.handled()) {
    state_.bind_index.AddInstance(it->second, instance);
  }
  if (state_.tiers.find(instance.type_id) == state_.tiers.end()) {
    state_.tiers.emplace(
        instance.type_id,
        DecideTier(*type, *database_, exact_strategy_, it->second.handled(),
                   it->second.fallback_reason()));
  }
}

}  // namespace cacheportal::invalidator
