#include "invalidator/invalidator.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "invalidator/stages.h"
#include "sql/template.h"

namespace cacheportal::invalidator {

Invalidator::Invalidator(db::Database* database, sniffer::QiUrlMap* map,
                         const Clock* clock, InvalidatorOptions options)
    : database_(database),
      map_(map),
      clock_(clock),
      options_(options),
      plane_(database, options.metadata_shards, options.exact_strategy,
             map->shared_ids()),
      info_(database),
      scheduler_(options.max_polls_per_cycle) {
  policy_.SetThresholds(options_.thresholds);
  if (options_.polling_cache_capacity > 0) {
    polling_cache_ = std::make_unique<PollingDataCache>(
        database_, options_.polling_cache_capacity);
  }
  if (options_.worker_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
  }
  if (options_.overload.enabled) {
    overload_ = std::make_unique<OverloadController>(clock_,
                                                     options_.overload);
  }
  // Attach at the database's current position: updates that committed
  // before CachePortal was deployed predate every cached page.
  last_update_seq_ = database_->update_log().LastSeq();
}

void Invalidator::AddSink(InvalidationSink* sink) { sinks_.push_back(sink); }

Status Invalidator::RegisterQueryType(const std::string& name,
                                      const std::string& parameterized_sql) {
  return plane_.RegisterType(name, parameterized_sql);
}

Status Invalidator::RegisterInstance(const std::string& sql) {
  CACHEPORTAL_ASSIGN_OR_RETURN(const QueryInstance* instance,
                               plane_.RegisterInstance(sql));
  (void)instance;
  return Status::OK();
}

Status Invalidator::CreateJoinIndex(const std::string& table,
                                    const std::string& column) {
  return info_.CreateJoinIndex(table, column);
}

bool Invalidator::IsQuerySqlCacheable(const std::string& sql_text) const {
  const QueryInstance* instance = plane_.FindInstance(sql_text);
  uint64_t type_id = 0;
  if (instance != nullptr) {
    type_id = instance->type_id;
  } else {
    // The instance may have been retired with its pages; its query type
    // (and the type's policy verdict) outlives it.
    Result<sql::QueryTemplate> tmpl = sql::ExtractTemplateFromSql(sql_text);
    if (!tmpl.ok()) return true;  // Unknown queries default to yes.
    type_id = tmpl->type_id;
  }
  const QueryType* type = plane_.FindType(type_id);
  if (type == nullptr) return true;
  return type->cacheable;
}

MatcherStats Invalidator::matcher_stats() const {
  MatcherStats merged = cycle_matcher_stats_;
  MatcherStats compile = plane_.CompileStats();
  merged.types_compiled = compile.types_compiled;
  merged.types_handled = compile.types_handled;
  merged.fallback_reasons = compile.fallback_reasons;
  return merged;
}

std::string Invalidator::StatsReport() const {
  std::string out = StrCat(
      "invalidator: cycles=", stats_.cycles,
      " updates=", stats_.updates_processed,
      " checks=", stats_.instance_checks,
      " affected=", stats_.affected_immediately,
      " unaffected=", stats_.unaffected, " polls=", stats_.polls_issued,
      " idx-answered=", stats_.polls_answered_by_index,
      " poll-hits=", stats_.poll_hits,
      " conservative=", stats_.conservative_invalidations,
      " emergency-flushes=", stats_.emergency_flushes,
      " pages-invalidated=", stats_.pages_invalidated,
      " messages-sent=", stats_.messages_sent,
      " send-failures=", stats_.send_failures, "\n");
  if (overload_ != nullptr) {
    out += StrCat("  ", overload_->Report(), "\n");
  }
  // Delivery health was invisible here while the queue quietly retried;
  // every observable sink now reports in line.
  for (size_t i = 0; i < sinks_.size(); ++i) {
    const auto* observable = dynamic_cast<const ObservableSink*>(sinks_[i]);
    if (observable == nullptr) continue;
    out += StrCat("  sink ", i, " ", observable->HealthReport(), "\n");
  }
  // Strategy census (DESIGN.md §16). Snapshotted BEFORE the ForEachType
  // walk below: TierAssignments locks shards one at a time, while the
  // walk holds every shard lock — calling TierOf from inside it would
  // self-deadlock. The census derives from the assigned tiers (persisted
  // ones included), never from live matcher counters, so a report taken
  // right after a restore is byte-identical to the dead process's.
  std::map<uint64_t, TierDecision> tiers = plane_.TierAssignments();
  {
    size_t census[4] = {0, 0, 0, 0};
    std::map<std::string, size_t> demotions;
    for (const auto& [tid, decision] : tiers) {
      (void)tid;
      census[static_cast<size_t>(decision.tier)]++;
      if (!decision.reason.empty()) ++demotions[decision.reason];
    }
    out += StrCat("  strategy: exact=", census[0],
                  " compiled-batch=", census[1], " interpret=", census[2],
                  " poll=", census[3], "\n");
    if (!demotions.empty()) {
      out += "  strategy-demotions:";
      for (const auto& [reason, count] : demotions) {
        out += StrCat(" '", reason, "'=", count);
      }
      out += "\n";
    }
  }
  // The plane's merged iteration is ascending type_id across all shards,
  // so this block is byte-identical at any shard count. Types whose
  // persisted statistics are still staged (restore ran, the next cycle
  // hasn't) report the staged values, so a report taken right after
  // recovery matches the one the dead process would have produced.
  plane_.ForEachType([&](const QueryType& type) {
    const QueryTypeStats* ts = &type.stats;
    bool cacheable = type.cacheable;
    auto it = pending_type_overrides_.find(type.type_id);
    if (it != pending_type_overrides_.end()) {
      ts = &it->second.stats;
      cacheable = it->second.cacheable;
    }
    auto tier_it = tiers.find(type.type_id);
    out += StrCat("  type '", type.name, "'",
                  cacheable ? "" : " [non-cacheable]",
                  ": instances=", ts->instances_seen, " checks=", ts->checks,
                  " affected=", ts->affected, " polls=", ts->polling_queries,
                  " inval-ratio=", ts->InvalidationRatio(),
                  " avg-time-us=", ts->AvgInvalidationTime(),
                  " max-time-us=", ts->max_invalidation_time, " tier=",
                  tier_it != tiers.end() ? StrategyTierName(tier_it->second.tier)
                                         : "unassigned",
                  "\n");
  });
  if (storage_reporter_ != nullptr) {
    out += StrCat("  ", storage_reporter_(), "\n");
  }
  return out;
}

namespace {

/// The durable-state grammar. A commit delta (the WAL commit record's
/// payload) and a snapshot (the durable store's snapshot payload) share
/// one line grammar: a snapshot is a delta that lists every type and
/// sink, plus the registry. Names, templates, SQL and sink states (which
/// may hold newlines and serialized HTTP) travel as length-prefixed
/// blocks, each followed by '\n'.
///
///   cacheportal-invalidator-delta 1    (a snapshot: ...-checkpoint 6)
///   update_seq N
///   shards K
///   shard_map_id I CURSOR              (K lines, I in [0, K))
///   stats <14 lifetime counters>
///   type TID CACHEABLE SEEN CHECKS AFFECTED POLLS TOTAL_US MAX_US
///                                      (delta: changed types; snapshot: all)
///   sink I LEN \n <LEN bytes> \n       (delta: changed sinks; snapshot: all)
///   type_counter N                                         (snapshot only)
///   type_def TID TIER NAMELEN TMPLLEN REASONLEN
///       \n <name> \n <template> \n <reason> \n   (snapshot only, per type)
///   instance LEN \n <sql> \n       (snapshot only, per live instance)
///   end
///
/// Records may come in any order before `end`, each at most once per
/// key (per index for shard_map_id and sink, per TID for type and
/// type_def). TIER is the StrategyTier value (0 exact, 1 compiled-batch,
/// 2 interpret, 3 poll) or 4 for a type whose tier is still unassigned
/// (declared offline, no instance yet). Restore pins the persisted tier
/// eagerly (InstallTier), so a StatsReport taken right after recovery
/// prints the census and per-type tiers the dead process would have —
/// tiers are never re-derived from a possibly-drifted analyzer.
constexpr char kSnapshotMagic[] = "cacheportal-invalidator-checkpoint 6";
constexpr char kDeltaMagic[] = "cacheportal-invalidator-delta 1";

/// The TIER field's "no tier assigned yet" sentinel (valid tiers 0..3).
constexpr uint64_t kTierUnassigned = 4;

/// Records `value` under `key`; true when it differs from the last one.
template <typename Key>
bool Changed(std::map<Key, std::string>& last, Key key,
             const std::string& value) {
  auto [it, inserted] = last.try_emplace(key, value);
  if (inserted) return true;
  if (it->second == value) return false;
  it->second = value;
  return true;
}

}  // namespace

struct Invalidator::DurableRecords {
  bool snapshot = false;
  uint64_t update_seq = 0;
  std::vector<uint64_t> cursors;  // Shard order.
  InvalidatorStats stats;
  std::map<uint64_t, TypeOverride> types;
  std::map<size_t, std::string> sinks;
  // Snapshot only.
  struct TypeDef {
    uint64_t type_id = 0;
    uint64_t tier = kTierUnassigned;
    std::string name;
    std::string tmpl_text;
    std::string tier_reason;
  };
  uint64_t type_counter = 0;
  std::vector<TypeDef> type_defs;
  std::vector<std::string> instances;
};

void Invalidator::EncodeSharedRecords(DurableDeltaBaseline* baseline,
                                      std::string* out) {
  std::vector<uint64_t> cursors = plane_.MapCursors();
  *out += StrCat("update_seq ", last_update_seq_, "\n", "shards ",
                 cursors.size(), "\n");
  for (size_t i = 0; i < cursors.size(); ++i) {
    *out += StrCat("shard_map_id ", i, " ", cursors[i], "\n");
  }
  const InvalidatorStats& s = stats_;
  *out += StrCat("stats ", s.cycles, " ", s.updates_processed, " ",
                 s.instances_registered, " ", s.instance_checks, " ",
                 s.affected_immediately, " ", s.unaffected, " ",
                 s.polls_issued, " ", s.polls_answered_by_index, " ",
                 s.poll_hits, " ", s.conservative_invalidations, " ",
                 s.emergency_flushes, " ", s.pages_invalidated, " ",
                 s.messages_sent, " ", s.send_failures, "\n");
  plane_.ForEachType([&](const QueryType& type) {
    const QueryTypeStats& ts = type.stats;
    std::string line =
        StrCat("type ", type.type_id, " ", type.cacheable ? 1 : 0, " ",
               ts.instances_seen, " ", ts.checks, " ", ts.affected, " ",
               ts.polling_queries, " ", ts.total_invalidation_time, " ",
               ts.max_invalidation_time, "\n");
    if (baseline == nullptr ||
        Changed(baseline->type_lines, type.type_id, line)) {
      *out += line;
    }
  });
  for (size_t i = 0; i < sinks_.size(); ++i) {
    const auto* durable = dynamic_cast<const CheckpointableSink*>(sinks_[i]);
    if (durable == nullptr) continue;
    std::string state = durable->CheckpointState();
    if (baseline != nullptr && !Changed(baseline->sink_states, i, state)) {
      continue;
    }
    *out += StrCat("sink ", i, " ", state.size(), "\n");
    *out += state;
    *out += "\n";
  }
}

std::string Invalidator::Checkpoint() {
  // Staged restore work must land first or the snapshot would persist
  // half-restored state (types without their queued instances).
  ApplyPendingRestore();
  std::string out = StrCat(kSnapshotMagic, "\n");
  EncodeSharedRecords(/*baseline=*/nullptr, &out);
  out += StrCat("type_counter ", plane_.TypeCount(), "\n");
  // Snapshot before the walk: TierAssignments takes shard locks one at a
  // time, the walk below holds them all.
  std::map<uint64_t, TierDecision> tiers = plane_.TierAssignments();
  plane_.ForEachType([&](const QueryType& type) {
    auto tier_it = tiers.find(type.type_id);
    uint64_t tier = kTierUnassigned;
    std::string reason;
    if (tier_it != tiers.end()) {
      tier = static_cast<uint64_t>(tier_it->second.tier);
      reason = tier_it->second.reason;
    }
    out += StrCat("type_def ", type.type_id, " ", tier, " ",
                  type.name.size(), " ", type.tmpl.canonical_text.size(), " ",
                  reason.size(), "\n");
    out += type.name;
    out += "\n";
    out += type.tmpl.canonical_text;
    out += "\n";
    out += reason;
    out += "\n";
  });
  plane_.ForEachInstance([&](const QueryType&, const QueryInstance& instance) {
    out += StrCat("instance ", instance.sql.size(), "\n");
    out += instance.sql;
    out += "\n";
  });
  out += "end\n";
  return out;
}

std::string Invalidator::EncodeDurableDelta(DurableDeltaBaseline* baseline) {
  std::string out = StrCat(kDeltaMagic, "\n");
  EncodeSharedRecords(baseline, &out);
  out += "end\n";
  return out;
}

Result<Invalidator::DurableRecords> Invalidator::ParseDurableRecords(
    const std::string& blob, bool snapshot) {
  const char* kind = snapshot ? "checkpoint" : "delta";
  size_t pos = 0;
  // Every line ends in '\n', the last one included, so pos never passes
  // blob.size().
  auto next_line = [&blob, &pos]() -> std::optional<std::string_view> {
    size_t nl = blob.find('\n', pos);
    if (nl == std::string::npos) return std::nullopt;
    std::string_view line(blob.data() + pos, nl - pos);
    pos = nl + 1;
    return line;
  };
  // Reads a LEN-byte block and its '\n' separator. The bound is written
  // so that a garbled LEN near 2^64 cannot wrap past it.
  auto next_block = [&blob, &pos](uint64_t length, std::string* out) {
    if (length >= blob.size() - pos || blob[pos + length] != '\n') {
      return false;
    }
    out->assign(blob, pos, length);
    pos += length + 1;
    return true;
  };
  auto bad = [kind](std::string_view what, std::string_view line) {
    return Status::ParseError(
        StrCat(what, " in invalidator ", kind, ": ", line));
  };

  std::optional<std::string_view> magic = next_line();
  if (!magic.has_value() ||
      *magic != (snapshot ? kSnapshotMagic : kDeltaMagic)) {
    return Status::ParseError(StrCat("not an invalidator ", kind));
  }
  DurableRecords records;
  records.snapshot = snapshot;
  std::optional<uint64_t> update_seq;
  std::optional<uint64_t> shard_count;
  std::optional<uint64_t> type_counter;
  bool saw_stats = false;
  bool saw_end = false;
  std::map<uint64_t, uint64_t> cursors;
  std::set<uint64_t> defined_types;
  while (std::optional<std::string_view> line = next_line()) {
    if (*line == "end") {
      saw_end = true;
      break;
    }
    size_t space = line->find(' ');
    const std::string_view record = line->substr(0, space);
    if (!snapshot && (record == "type_counter" || record == "type_def" ||
                      record == "instance")) {
      return bad("snapshot-only record", *line);
    }
    // Every field after the record name is a strict uint64: a corrupt
    // `update_seq` that strtoull would coerce to 0 must fail loudly, not
    // silently rewind the cursor and replay the whole log. Fields are
    // parsed in place, with no allocation per line: a snapshot holds one
    // `instance` line per live instance.
    uint64_t v[14] = {};
    size_t n = 0;
    while (space != std::string_view::npos) {
      const size_t next = line->find(' ', space + 1);
      Result<uint64_t> value =
          ParseUint64(line->substr(space + 1, next - space - 1));
      if (!value.ok() || n == std::size(v)) return bad("bad number", *line);
      v[n++] = *value;
      space = next;
    }
    if (record == "update_seq" && n == 1 && !update_seq) {
      update_seq = v[0];
    } else if (record == "shards" && n == 1 && v[0] > 0 &&
               !shard_count) {
      shard_count = v[0];
    } else if (record == "shard_map_id" && n == 2 &&
               !cursors.contains(v[0])) {
      cursors[v[0]] = v[1];
    } else if (record == "stats" && n == 14 && !saw_stats) {
      InvalidatorStats& s = records.stats;
      uint64_t* slots[14] = {&s.cycles,
                             &s.updates_processed,
                             &s.instances_registered,
                             &s.instance_checks,
                             &s.affected_immediately,
                             &s.unaffected,
                             &s.polls_issued,
                             &s.polls_answered_by_index,
                             &s.poll_hits,
                             &s.conservative_invalidations,
                             &s.emergency_flushes,
                             &s.pages_invalidated,
                             &s.messages_sent,
                             &s.send_failures};
      for (size_t i = 0; i < 14; ++i) *slots[i] = v[i];
      saw_stats = true;
    } else if (record == "type" && n == 8 && v[1] <= 1 &&
               !records.types.contains(v[0])) {
      TypeOverride& type = records.types[v[0]];
      type.cacheable = v[1] == 1;
      type.stats.instances_seen = v[2];
      type.stats.checks = v[3];
      type.stats.affected = v[4];
      type.stats.polling_queries = v[5];
      type.stats.total_invalidation_time = static_cast<Micros>(v[6]);
      type.stats.max_invalidation_time = static_cast<Micros>(v[7]);
    } else if (record == "sink" && n == 2 &&
               !records.sinks.contains(v[0])) {
      if (!next_block(v[1], &records.sinks[v[0]])) {
        return bad("truncated sink state", *line);
      }
    } else if (record == "type_counter" && n == 1 && !type_counter) {
      type_counter = v[0];
    } else if (record == "type_def" && n == 5 &&
               v[1] <= kTierUnassigned && defined_types.insert(v[0]).second) {
      DurableRecords::TypeDef def;
      def.type_id = v[0];
      def.tier = v[1];
      if (!next_block(v[2], &def.name) || !next_block(v[3], &def.tmpl_text) ||
          !next_block(v[4], &def.tier_reason)) {
        return bad("truncated type blocks", *line);
      }
      // The template must still parse, and to the same identity: the
      // type_id is the template hash, so a mismatch means the blob's
      // bytes rotted (or the canonicalizer changed incompatibly) and the
      // registry built from it would route instances to the wrong shard.
      Result<sql::QueryTemplate> tmpl =
          sql::ExtractTemplateFromSql(def.tmpl_text);
      if (!tmpl.ok() || tmpl->type_id != def.type_id) {
        return bad("template that no longer hashes to its TID", *line);
      }
      records.type_defs.push_back(std::move(def));
    } else if (record == "instance" && n == 1) {
      // Framing only: the SQL is parsed lazily by ApplyPendingRestore
      // (the point of the lazy rebuild), which logs and skips
      // unparseable entries the way the ingest scan does.
      records.instances.emplace_back();
      if (!next_block(v[0], &records.instances.back())) {
        return bad("truncated instance block", *line);
      }
    } else {
      return bad("unknown, malformed or repeated record", *line);
    }
  }
  if (!saw_end) {
    return Status::ParseError(StrCat("truncated invalidator ", kind));
  }
  if (pos != blob.size()) {
    return Status::ParseError(StrCat("bytes after end of invalidator ", kind));
  }
  if (!update_seq || !saw_stats || !shard_count ||
      (snapshot && !type_counter)) {
    return Status::ParseError(
        StrCat("invalidator ", kind, " lacks a required record"));
  }
  // The keys are distinct, so K of them all below K are exactly 0..K-1.
  if (cursors.size() != *shard_count ||
      cursors.rbegin()->first >= *shard_count) {
    return Status::ParseError(
        StrCat("invalidator ", kind, " declares ", *shard_count,
               " shards but its cursors do not cover them"));
  }
  records.update_seq = *update_seq;
  for (const auto& [index, cursor] : cursors) records.cursors.push_back(cursor);
  records.type_counter = type_counter.value_or(0);
  return records;
}

Status Invalidator::Restore(const std::string& checkpoint) {
  CACHEPORTAL_ASSIGN_OR_RETURN(DurableRecords records,
                               ParseDurableRecords(checkpoint, true));
  return ApplyDurableRecords(records);
}

Status Invalidator::ApplyDurableDelta(const std::string& payload) {
  CACHEPORTAL_ASSIGN_OR_RETURN(DurableRecords records,
                               ParseDurableRecords(payload, false));
  return ApplyDurableRecords(records);
}

Status Invalidator::ApplyDurableRecords(DurableRecords& records) {
  // Sinks first, the only apply step that can fail: every index is
  // checked before any sink state changes.
  std::vector<std::pair<CheckpointableSink*, const std::string*>> durable;
  for (const auto& [index, state] : records.sinks) {
    auto* sink = index < sinks_.size()
                     ? dynamic_cast<CheckpointableSink*>(sinks_[index])
                     : nullptr;
    if (sink == nullptr) {
      return Status::InvalidArgument(
          StrCat("durable state for sink ", index, " but no checkpointable "
                 "sink is attached there (", sinks_.size(), " sinks)"));
    }
    durable.emplace_back(sink, &state);
  }
  for (const auto& [sink, state] : durable) {
    CACHEPORTAL_RETURN_NOT_OK(sink->RestoreState(*state));
  }
  if (records.snapshot) {
    // Rebuild every type eagerly — O(types), the cheap part — so
    // cacheability verdicts and reports are right immediately. Instances
    // (the O(N) parse cost) are queued for ApplyPendingRestore.
    pending_restore_ops_.clear();
    pending_type_overrides_.clear();
    for (const DurableRecords::TypeDef& def : records.type_defs) {
      CACHEPORTAL_RETURN_NOT_OK(plane_.RegisterType(def.name, def.tmpl_text));
      // Pin the persisted tier before any instance re-registers, so the
      // census and the next cycle's strategy dispatch match the dead
      // process exactly.
      if (def.tier < kTierUnassigned) {
        plane_.InstallTier(def.type_id, static_cast<StrategyTier>(def.tier),
                           def.tier_reason);
      }
    }
    // After the creations above, so the persisted counter (which already
    // includes these types) wins and discovered-type naming continues
    // where the dead process left off.
    plane_.SetTypeCount(records.type_counter);
    pending_restore_ops_.reserve(records.instances.size());
    for (std::string& sql : records.instances) {
      pending_restore_ops_.push_back(RestoredOp{true, std::move(sql)});
    }
  }
  for (const auto& [tid, override_] : records.types) {
    // Cacheability applies eagerly when the type already exists (verdict
    // queries don't wait for the next cycle); statistics are staged
    // behind the pending ops either way — the type may itself still be a
    // queued registration, and re-registration bumps must not survive.
    plane_.WithShardOfType(tid, [&](MetadataPlane::Shard& shard) {
      if (QueryType* type = shard.registry.FindType(tid)) {
        type->cacheable = override_.cacheable;
      }
    });
    pending_type_overrides_[tid] = override_;
  }
  stats_ = records.stats;
  // Persisted map cursors are only meaningful against the map incarnation
  // that wrote them. The sniffer's map is rebuilt from live traffic after
  // a process restart, so its ids restart below the persisted positions —
  // installing such a cursor verbatim would silently skip every
  // re-sniffed row, and updates would never eject the re-cached pages.
  // Clamp to the live tail: rows the map does hold stay consumed (no
  // rescan on an in-process restore), and a rebuilt map rescans from its
  // start.
  for (uint64_t& cursor : records.cursors) {
    cursor = std::min(cursor, map_->LastId());
  }
  plane_.SetMapCursors(records.cursors);
  last_update_seq_ = records.update_seq;
  last_map_epoch_.reset();  // Force the next cycle's map scan.
  retire_sweep_due_ = true;  // ... and its retire sweep.
  return Status::OK();
}

void Invalidator::QueueRestoredRegistration(const std::string& sql) {
  pending_restore_ops_.push_back(RestoredOp{true, sql});
}

void Invalidator::QueueRestoredRetirement(const std::string& sql) {
  pending_restore_ops_.push_back(RestoredOp{false, sql});
}

size_t Invalidator::pending_restore_ops() const {
  return pending_restore_ops_.size() + pending_type_overrides_.size();
}

void Invalidator::ApplyPendingRestore() {
  if (pending_restore_ops_.empty() && pending_type_overrides_.empty()) return;
  for (const RestoredOp& op : pending_restore_ops_) {
    if (op.registered) {
      Result<const QueryInstance*> registered = plane_.RegisterInstance(op.sql);
      if (!registered.ok()) {
        // Same contract as the ingest scan: a row that no longer parses
        // is logged and skipped, never fatal — the page it backed simply
        // stays conservative.
        LogMessage(LogLevel::kWarning,
                   StrCat("restore: skipping unparseable instance: ",
                          registered.status().message()));
      }
    } else {
      plane_.RetireInstance(op.sql);
    }
  }
  pending_restore_ops_.clear();
  // After the replayed registrations: their instances_seen bumps must be
  // overwritten by the persisted absolute values, or recovered reports
  // would double-count every instance that survived the crash.
  for (const auto& [tid, override_] : pending_type_overrides_) {
    plane_.WithShardOfType(tid, [&](MetadataPlane::Shard& shard) {
      if (QueryType* type = shard.registry.FindType(tid)) {
        type->cacheable = override_.cacheable;
        type->stats = override_.stats;
      }
    });
  }
  pending_type_overrides_.clear();
}

StageEnv Invalidator::MakeStageEnv() {
  StageEnv env;
  env.database = database_;
  env.map = map_;
  env.clock = clock_;
  env.options = &options_;
  env.plane = &plane_;
  env.info = &info_;
  env.scheduler = &scheduler_;
  env.polling_cache = polling_cache_.get();
  env.pool = pool_.get();
  env.overload = overload_.get();
  env.sinks = &sinks_;
  env.stats = &stats_;
  env.cycle_matcher_stats = &cycle_matcher_stats_;
  env.last_update_seq = &last_update_seq_;
  env.last_map_epoch = &last_map_epoch_;
  env.retire_sweep_due = &retire_sweep_due_;
  env.execute_poll = [this](const std::string& poll_sql) {
    return ExecutePoll(poll_sql);
  };
  env.observe_signals = [this] { return ObserveOverloadSignals(); };
  return env;
}

Result<CycleReport> Invalidator::RunCycle() {
  // Drain any staged restore work first: the cycle's impact analysis
  // must see the recovered registry, not a half-rebuilt one.
  ApplyPendingRestore();
  CycleContext ctx;
  ctx.start = clock_->NowMicros();
  ++stats_.cycles;

  StageEnv env = MakeStageEnv();
  CACHEPORTAL_RETURN_NOT_OK(IngestStage(env).Run(ctx));
  if (ctx.proceed) {
    CACHEPORTAL_RETURN_NOT_OK(ImpactStage(env).Run(ctx));
    CACHEPORTAL_RETURN_NOT_OK(PollStage(env).Run(ctx));
    CACHEPORTAL_RETURN_NOT_OK(DeliverStage(env).Run(ctx));

    // ---- Policy discovery: refresh cacheability verdicts. ----
    plane_.ForEachTypeMutable([&](QueryType& type) {
      type.cacheable = policy_.IsQueryTypeCacheable(type);
    });
  }

  ctx.report.duration = clock_->NowMicros() - ctx.start;
  last_cycle_duration_ = ctx.report.duration;
  return ctx.report;
}

Result<db::QueryResult> Invalidator::ExecutePoll(const std::string& poll_sql) {
  server::Connection* external =
      polling_connection_.load(std::memory_order_acquire);
  if (external != nullptr) {
    std::lock_guard<std::mutex> lock(polling_connection_mu_);
    return external->ExecuteQuery(poll_sql);
  }
  if (polling_cache_ != nullptr) {
    return polling_cache_->ExecuteQuery(poll_sql);
  }
  return database_->ExecuteSql(poll_sql);
}

OverloadSignals Invalidator::ObserveOverloadSignals() const {
  OverloadSignals signals;
  const db::UpdateLog& log =
      static_cast<const db::Database*>(database_)->update_log();
  uint64_t last = log.LastSeq();
  signals.backlog_depth =
      last > last_update_seq_ ? last - last_update_seq_ : 0;
  if (std::optional<Micros> oldest =
          log.OldestTimestampSince(last_update_seq_)) {
    Micros now = clock_->NowMicros();
    signals.backlog_age = now > *oldest ? now - *oldest : 0;
  }
  for (const InvalidationSink* sink : sinks_) {
    if (const auto* observable = dynamic_cast<const ObservableSink*>(sink)) {
      signals.delivery_backlog += observable->PendingBacklog();
    }
  }
  signals.last_cycle_latency = last_cycle_duration_;
  return signals;
}

}  // namespace cacheportal::invalidator
