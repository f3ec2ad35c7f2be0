#include "invalidator/registry.h"

#include <algorithm>
#include <limits>

#include "common/strings.h"
#include "sql/parser.h"

namespace cacheportal::invalidator {

QueryTypeRegistry::QueryTypeRegistry(TextInterner* queries)
    : owned_queries_(queries == nullptr ? std::make_unique<TextInterner>()
                                        : nullptr),
      queries_(queries == nullptr ? owned_queries_.get() : queries) {}

QueryTypeRegistry::~QueryTypeRegistry() {
  for (const auto& [id, instance] : instances_) queries_->Release(id);
}

Result<uint64_t> QueryTypeRegistry::RegisterType(
    const std::string& name, const std::string& parameterized_sql) {
  CACHEPORTAL_ASSIGN_OR_RETURN(auto select,
                               sql::Parser::ParseSelect(parameterized_sql));
  // Canonicalize through the template machinery so offline-declared types
  // collide with discovered ones. ExtractTemplate renumbers parameters and
  // leaves the structure intact.
  CACHEPORTAL_ASSIGN_OR_RETURN(sql::QueryTemplate tmpl,
                               sql::ExtractTemplate(*select));
  auto it = types_.find(tmpl.type_id);
  if (it != types_.end()) {
    if (it->second.name.empty()) it->second.name = name;
    return it->first;
  }
  QueryType type;
  type.type_id = tmpl.type_id;
  type.name = name;
  type.tmpl = std::move(tmpl);
  uint64_t id = type.type_id;
  types_.emplace(id, std::move(type));
  ++type_count_;
  return id;
}

Result<const QueryInstance*> QueryTypeRegistry::RegisterInstance(
    const std::string& sql_text) {
  if (const QueryInstance* existing = FindInstance(sql_text)) return existing;

  CACHEPORTAL_ASSIGN_OR_RETURN(auto select,
                               sql::Parser::ParseSelect(sql_text));
  CACHEPORTAL_ASSIGN_OR_RETURN(sql::QueryTemplate tmpl,
                               sql::ExtractTemplate(*select));
  QueryId query = queries_->Acquire(sql_text);
  Result<const QueryInstance*> instance =
      RegisterParsedInstance(query, std::move(select), std::move(tmpl));
  queries_->Release(query);  // The instance holds its own reference.
  return instance;
}

Result<const QueryInstance*> QueryTypeRegistry::RegisterParsedInstance(
    QueryId query, std::unique_ptr<sql::SelectStatement> select,
    sql::QueryTemplate tmpl) {
  auto existing = instances_.find(query);
  if (existing != instances_.end()) return &existing->second;
  auto type_it = types_.find(tmpl.type_id);
  if (type_it == types_.end()) {
    // Query type discovery (Section 4.1.2). The name numbers types in
    // creation order.
    QueryType type;
    type.type_id = tmpl.type_id;
    type.name = StrCat("discovered-", ++type_count_);
    type.tmpl = tmpl.Clone();
    type_it = types_.emplace(type.type_id, std::move(type)).first;
  }
  type_it->second.stats.instances_seen++;

  QueryInstance instance;
  instance.instance_id = query;
  instance.sql = queries_->Text(query);
  instance.type_id = tmpl.type_id;
  instance.statement = std::move(select);
  instance.bindings = std::move(tmpl.bindings);
  queries_->Ref(query);
  auto it = instances_.emplace(query, std::move(instance)).first;
  instances_by_type_[tmpl.type_id].insert(&it->second);
  return &it->second;
}

void QueryTypeRegistry::UnregisterInstance(const std::string& sql_text) {
  std::optional<QueryId> query = queries_->Find(sql_text);
  if (query.has_value()) UnregisterInstance(*query);
}

std::optional<std::string> QueryTypeRegistry::UnregisterInstance(
    QueryId query) {
  auto it = instances_.find(query);
  if (it == instances_.end()) return std::nullopt;
  auto by_type = instances_by_type_.find(it->second.type_id);
  if (by_type != instances_by_type_.end()) {
    by_type->second.erase(&it->second);
    if (by_type->second.empty()) instances_by_type_.erase(by_type);
  }
  std::string sql_text = std::move(it->second.sql);
  instances_.erase(it);
  queries_->Release(query);
  return sql_text;
}

const QueryType* QueryTypeRegistry::FindType(uint64_t type_id) const {
  auto it = types_.find(type_id);
  return it == types_.end() ? nullptr : &it->second;
}

QueryType* QueryTypeRegistry::FindType(uint64_t type_id) {
  auto it = types_.find(type_id);
  return it == types_.end() ? nullptr : &it->second;
}

const QueryInstance* QueryTypeRegistry::FindInstance(
    const std::string& sql_text) const {
  std::optional<QueryId> query = queries_->Find(sql_text);
  return query.has_value() ? FindInstanceById(*query) : nullptr;
}

const QueryInstance* QueryTypeRegistry::FindInstanceById(
    uint64_t instance_id) const {
  if (instance_id > std::numeric_limits<QueryId>::max()) return nullptr;
  auto it = instances_.find(static_cast<QueryId>(instance_id));
  return it == instances_.end() ? nullptr : &it->second;
}

void QueryTypeRegistry::ForEachType(
    const std::function<void(const QueryType&)>& fn) const {
  for (const auto& [id, type] : types_) fn(type);
}

void QueryTypeRegistry::ForEachTypeMutable(
    const std::function<void(QueryType&)>& fn) {
  for (auto& [id, type] : types_) fn(type);
}

void QueryTypeRegistry::ForEachInstanceOfType(
    uint64_t type_id,
    const std::function<void(const QueryInstance&)>& fn) const {
  auto by_type = instances_by_type_.find(type_id);
  if (by_type == instances_by_type_.end()) return;
  std::vector<const QueryInstance*> sorted(by_type->second.begin(),
                                           by_type->second.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const QueryInstance* a, const QueryInstance* b) {
              return a->sql < b->sql;
            });
  for (const QueryInstance* instance : sorted) fn(*instance);
}

std::vector<const QueryInstance*> QueryTypeRegistry::InstancesOfType(
    uint64_t type_id) const {
  std::vector<const QueryInstance*> out;
  ForEachInstanceOfType(type_id, [&out](const QueryInstance& instance) {
    out.push_back(&instance);
  });
  return out;
}

size_t QueryTypeRegistry::NumInstancesOfType(uint64_t type_id) const {
  auto by_type = instances_by_type_.find(type_id);
  return by_type == instances_by_type_.end() ? 0 : by_type->second.size();
}

}  // namespace cacheportal::invalidator
