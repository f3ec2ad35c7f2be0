#include "invalidator/metadata_plane.h"

#include <algorithm>
#include <utility>

#include "sql/parser.h"
#include "sql/template.h"

namespace cacheportal::invalidator {

MetadataPlane::MetadataPlane(db::Database* database, size_t num_shards,
                             bool exact_strategy,
                             std::shared_ptr<IdInterner> ids)
    : database_(database),
      exact_strategy_(exact_strategy),
      ids_(ids != nullptr ? std::move(ids) : std::make_shared<IdInterner>()) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<ShardSlot>(&ids_->queries));
    // Discovered-type names number types across the WHOLE plane, not per
    // shard — StatsReport() must read identically at any shard count.
    shards_.back()->shard.registry.SetTypeCounter(&type_count_);
  }
}

std::optional<uint64_t> MetadataPlane::RouteOf(QueryId query) const {
  std::shared_lock<std::shared_mutex> route(route_mu_);
  auto it = type_by_query_.find(query);
  if (it == type_by_query_.end()) return std::nullopt;
  return it->second;
}

Status MetadataPlane::RegisterType(const std::string& name,
                                   const std::string& parameterized_sql) {
  // Parse once here to route; the registry's canonicalizing parse runs
  // again under the shard lock. Offline registration is rare enough that
  // the double parse is not worth a second registry entry point.
  CACHEPORTAL_ASSIGN_OR_RETURN(
      sql::QueryTemplate tmpl,
      sql::ExtractTemplateFromSql(parameterized_sql));
  ShardSlot& slot = SlotOfType(tmpl.type_id);
  std::lock_guard<std::mutex> lock(slot.mu);
  CACHEPORTAL_ASSIGN_OR_RETURN(
      uint64_t id, slot.shard.registry.RegisterType(name, parameterized_sql));
  (void)id;
  return Status::OK();
}

Result<const QueryInstance*> MetadataPlane::RegisterInstance(
    const std::string& sql) {
  QueryId query = ids_->queries.Acquire(sql);
  Result<const QueryInstance*> instance = RegisterInstance(query);
  ids_->queries.Release(query);  // A registered instance holds its own.
  return instance;
}

Result<const QueryInstance*> MetadataPlane::RegisterInstance(QueryId query) {
  // Fast path: a live instance routes via the route map without parsing
  // (re-registration is the common case — the sniffer re-adds a row
  // every time a cached page rebuilds).
  if (std::optional<uint64_t> known_type = RouteOf(query)) {
    ShardSlot& slot = SlotOfType(*known_type);
    std::lock_guard<std::mutex> lock(slot.mu);
    const QueryInstance* instance =
        slot.shard.registry.FindInstanceById(query);
    // A concurrent retirement may have raced the lookup; fall through to
    // the slow path if so.
    if (instance != nullptr) return instance;
  }

  const std::string& sql = ids_->queries.Text(query);
  CACHEPORTAL_ASSIGN_OR_RETURN(auto select, sql::Parser::ParseSelect(sql));
  CACHEPORTAL_ASSIGN_OR_RETURN(sql::QueryTemplate tmpl,
                               sql::ExtractTemplate(*select));
  uint64_t type_id = tmpl.type_id;
  const QueryInstance* instance = nullptr;
  bool fresh = false;
  {
    ShardSlot& slot = SlotOfType(type_id);
    std::lock_guard<std::mutex> lock(slot.mu);
    fresh = slot.shard.registry.FindInstanceById(query) == nullptr;
    CACHEPORTAL_ASSIGN_OR_RETURN(
        instance, slot.shard.registry.RegisterParsedInstance(
                      query, std::move(select), std::move(tmpl)));
    IndexInstanceLocked(slot.shard, *instance);
  }
  {
    std::unique_lock<std::shared_mutex> route(route_mu_);
    type_by_query_[query] = type_id;
  }
  if (fresh) NotifyObserver(/*registered=*/true, sql);
  return instance;
}

void MetadataPlane::RetireInstance(const std::string& sql) {
  std::optional<QueryId> query = ids_->queries.Find(sql);
  if (query.has_value()) RetireInstance(*query);
}

void MetadataPlane::RetireInstance(QueryId query) {
  std::optional<uint64_t> type_id = RouteOf(query);
  if (!type_id.has_value()) return;
  std::optional<std::string> sql;
  {
    ShardSlot& slot = SlotOfType(*type_id);
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.shard.bind_index.RemoveInstance(query);
    sql = slot.shard.registry.UnregisterInstance(query);
  }
  {
    std::unique_lock<std::shared_mutex> route(route_mu_);
    type_by_query_.erase(query);
  }
  if (sql.has_value()) NotifyObserver(/*registered=*/false, *sql);
}

const QueryInstance* MetadataPlane::FindInstance(const std::string& sql) const {
  std::optional<QueryId> query = ids_->queries.Find(sql);
  if (!query.has_value()) return nullptr;
  std::optional<uint64_t> type_id = RouteOf(*query);
  if (!type_id.has_value()) return nullptr;
  ShardSlot& slot = SlotOfType(*type_id);
  std::lock_guard<std::mutex> lock(slot.mu);
  const QueryInstance* instance = slot.shard.registry.FindInstanceById(*query);
  // The id was looked up without a reference: check it still names `sql`.
  return instance != nullptr && instance->sql == sql ? instance : nullptr;
}

const QueryType* MetadataPlane::FindType(uint64_t type_id) const {
  ShardSlot& slot = SlotOfType(type_id);
  std::lock_guard<std::mutex> lock(slot.mu);
  return slot.shard.registry.FindType(type_id);
}

void MetadataPlane::WithShardOfType(uint64_t type_id,
                                    const std::function<void(Shard&)>& fn) {
  ShardSlot& slot = SlotOfType(type_id);
  std::lock_guard<std::mutex> lock(slot.mu);
  fn(slot.shard);
}

void MetadataPlane::WithShard(size_t index,
                              const std::function<void(Shard&)>& fn) {
  ShardSlot& slot = *shards_[index];
  std::lock_guard<std::mutex> lock(slot.mu);
  fn(slot.shard);
}

// The k-way merge all the deterministic iterators share: with every
// shard locked (in index order — the one sanctioned all-shards order),
// repeatedly visit the shard whose next type has the smallest type_id.
// Type_ids are unique across shards (hash partitioning), so there are no
// ties, and the scan reproduces the unsharded registry's ascending-
// type_id order exactly.
void MetadataPlane::MergedTypeScan(
    const std::function<void(size_t, const QueryType&)>& fn) const {
  std::vector<std::unique_lock<std::mutex>> all;
  all.reserve(shards_.size());
  for (const auto& slot : shards_) {
    all.emplace_back(slot->mu);
  }
  struct Cursor {
    std::vector<const QueryType*> types;
    size_t next = 0;
  };
  std::vector<Cursor> cursors(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    cursors[i].types = shards_[i]->shard.registry.Types();
  }
  for (;;) {
    size_t best = shards_.size();
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (cursors[i].next >= cursors[i].types.size()) continue;
      if (best == shards_.size() ||
          cursors[i].types[cursors[i].next]->type_id <
              cursors[best].types[cursors[best].next]->type_id) {
        best = i;
      }
    }
    if (best == shards_.size()) break;
    fn(best, *cursors[best].types[cursors[best].next++]);
  }
}

void MetadataPlane::ForEachType(
    const std::function<void(const QueryType&)>& fn) const {
  MergedTypeScan([&fn](size_t, const QueryType& type) { fn(type); });
}

void MetadataPlane::ForEachTypeMutable(
    const std::function<void(QueryType&)>& fn) {
  MergedTypeScan([&](size_t shard_index, const QueryType& type) {
    QueryType* mutable_type =
        shards_[shard_index]->shard.registry.FindType(type.type_id);
    if (mutable_type != nullptr) fn(*mutable_type);
  });
}

void MetadataPlane::ForEachInstance(
    const std::function<void(const QueryType&, const QueryInstance&)>& fn)
    const {
  MergedTypeScan([&](size_t shard_index, const QueryType& type) {
    shards_[shard_index]->shard.registry.ForEachInstanceOfType(
        type.type_id, [&](const QueryInstance& instance) {
          fn(type, instance);
        });
  });
}

size_t MetadataPlane::NumTypes() const {
  size_t n = 0;
  for (const auto& slot : shards_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    n += slot->shard.registry.NumTypes();
  }
  return n;
}

size_t MetadataPlane::NumInstances() const {
  size_t n = 0;
  for (const auto& slot : shards_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    n += slot->shard.registry.NumInstances();
  }
  return n;
}

size_t MetadataPlane::NumInstancesOfType(uint64_t type_id) const {
  ShardSlot& slot = SlotOfType(type_id);
  std::lock_guard<std::mutex> lock(slot.mu);
  return slot.shard.registry.NumInstancesOfType(type_id);
}

size_t MetadataPlane::NumIndexedInstances() const {
  size_t n = 0;
  for (const auto& slot : shards_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    n += slot->shard.bind_index.NumIndexedInstances();
  }
  return n;
}

MatcherStats MetadataPlane::CompileStats() const {
  MatcherStats out;
  for (const auto& slot : shards_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    out.types_compiled += slot->shard.compile_stats.types_compiled;
    out.types_handled += slot->shard.compile_stats.types_handled;
    for (const auto& [reason, count] :
         slot->shard.compile_stats.fallback_reasons) {
      out.fallback_reasons[reason] += count;
    }
  }
  return out;
}

std::optional<TierDecision> MetadataPlane::TierOf(uint64_t type_id) const {
  ShardSlot& slot = SlotOfType(type_id);
  std::lock_guard<std::mutex> lock(slot.mu);
  auto it = slot.shard.tiers.find(type_id);
  if (it == slot.shard.tiers.end()) return std::nullopt;
  return it->second;
}

std::map<uint64_t, TierDecision> MetadataPlane::TierAssignments() const {
  std::map<uint64_t, TierDecision> out;
  for (const auto& slot : shards_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    for (const auto& [type_id, decision] : slot->shard.tiers) {
      out.emplace(type_id, decision);
    }
  }
  return out;
}

void MetadataPlane::InstallTier(uint64_t type_id, StrategyTier tier,
                                const std::string& reason) {
  ShardSlot& slot = SlotOfType(type_id);
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.shard.tiers[type_id] = TierDecision{tier, reason};
}

uint64_t MetadataPlane::MinMapCursor() const {
  uint64_t min = 0;
  bool first = true;
  for (const auto& slot : shards_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    if (first || slot->shard.map_cursor < min) min = slot->shard.map_cursor;
    first = false;
  }
  return min;
}

void MetadataPlane::AdvanceMapCursors(uint64_t id) {
  for (const auto& slot : shards_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->shard.map_cursor = std::max(slot->shard.map_cursor, id);
  }
}

std::vector<uint64_t> MetadataPlane::MapCursors() const {
  std::vector<uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& slot : shards_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    out.push_back(slot->shard.map_cursor);
  }
  return out;
}

void MetadataPlane::SetMapCursors(const std::vector<uint64_t>& cursors) {
  if (cursors.size() == shards_.size()) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      std::lock_guard<std::mutex> lock(shards_[i]->mu);
      shards_[i]->shard.map_cursor = cursors[i];
    }
    return;
  }
  // Shard count changed across the restart: only the minimum position
  // is known to be absorbed by every new shard's worth of types.
  uint64_t min = 0;
  for (size_t i = 0; i < cursors.size(); ++i) {
    min = i == 0 ? cursors[i] : std::min(min, cursors[i]);
  }
  for (const auto& slot : shards_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->shard.map_cursor = min;
  }
}

void MetadataPlane::SetMutationObserver(
    std::function<void(bool, const std::string&)> observer) {
  std::unique_lock<std::shared_mutex> lock(observer_mu_);
  observer_ = std::move(observer);
}

void MetadataPlane::NotifyObserver(bool registered, const std::string& sql) {
  std::function<void(bool, const std::string&)> observer;
  {
    std::shared_lock<std::shared_mutex> lock(observer_mu_);
    if (observer_ == nullptr) return;
    observer = observer_;
  }
  observer(registered, sql);
}

void MetadataPlane::IndexInstanceLocked(Shard& shard,
                                        const QueryInstance& instance) {
  const QueryType* type = shard.registry.FindType(instance.type_id);
  if (type == nullptr) return;
  auto it = shard.matchers.find(instance.type_id);
  if (it == shard.matchers.end()) {
    TypeMatcher matcher = TypeMatcher::Compile(*type, *database_);
    ++shard.compile_stats.types_compiled;
    if (matcher.handled()) {
      ++shard.compile_stats.types_handled;
    } else {
      ++shard.compile_stats.fallback_reasons[matcher.fallback_reason()];
    }
    it = shard.matchers.emplace(instance.type_id, std::move(matcher)).first;
  }
  if (it->second.handled()) {
    shard.bind_index.AddInstance(it->second, instance);
  }
  if (shard.tiers.find(instance.type_id) == shard.tiers.end()) {
    shard.tiers.emplace(
        instance.type_id,
        DecideTier(*type, *database_, exact_strategy_, it->second.handled(),
                   it->second.fallback_reason()));
  }
}

}  // namespace cacheportal::invalidator
