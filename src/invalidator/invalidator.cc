#include "invalidator/invalidator.h"

#include <algorithm>
#include <map>
#include <optional>
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
  // right after a v5 restore is byte-identical to the dead process's.
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

/// Checkpoint framing. Sink states are opaque bytes (they may contain
/// newlines and serialized HTTP), so they travel as length-prefixed
/// blocks rather than lines.
///
/// v3 (current): per-shard QI/URL-map cursors.
///   cacheportal-invalidator-checkpoint 3
///   update_seq N
///   shards K
///   shard_map_id I CURSOR     (K lines, I in [0, K))
///   sink I LEN \n <LEN bytes> \n   (per checkpointable sink)
///   end
///
/// v4 (legacy, still restorable — the pre-tier snapshot payload): adds
/// the full registry — the plane-global type counter, the lifetime
/// counters, every type (statistics + cacheability + name + canonical
/// template text as length-prefixed blocks), and every live instance's
/// SQL — so restore needs no QI/URL-map rescan and the map cursors
/// restore to their persisted positions:
///   cacheportal-invalidator-checkpoint 4
///   update_seq N
///   shards K
///   shard_map_id I CURSOR         (K lines, I in [0, K))
///   type_counter N
///   stats <14 lifetime counters>
///   type TID CACHEABLE SEEN CHECKS AFFECTED POLLS TOTAL_US MAX_US
///        NAMELEN TMPLLEN \n <name> \n <template> \n   (per type)
///   instance LEN \n <sql> \n     (per live instance, scan order)
///   sink I LEN \n <LEN bytes> \n (per checkpointable sink)
///   end
///
/// v5 (current, the durable store's snapshot payload): the v4 grammar
/// with the type record widened by the strategy tier (DESIGN.md §16) —
/// TIER is the StrategyTier enum value (0 exact, 1 compiled-batch,
/// 2 interpret, 3 poll) or 4 for a type whose tier is still unassigned
/// (declared offline, no instance yet) — plus the demotion reason as a
/// third length-prefixed block:
///   type TID CACHEABLE SEEN CHECKS AFFECTED POLLS TOTAL_US MAX_US
///        TIER NAMELEN TMPLLEN REASONLEN
///        \n <name> \n <template> \n <reason> \n   (per type)
/// Restore installs the persisted tier eagerly (InstallTier) so a
/// StatsReport taken right after recovery prints the same census and
/// per-type tiers the dead process would have — tiers are pinned, never
/// re-derived from a possibly-drifted analyzer.
///
/// v1/v2 (legacy, still restorable): one `map_id N` line instead of the
/// shards/shard_map_id block — shard count 1 assumed, the single cursor
/// standing for the merged (minimum) position. On v1–v3 restore the
/// cursors rewind to zero (those blobs carry no registry, so live map
/// rows must re-register on the next scan).
constexpr char kCheckpointMagicV1[] = "cacheportal-invalidator-checkpoint 1";
constexpr char kCheckpointMagicV3[] = "cacheportal-invalidator-checkpoint 3";
constexpr char kCheckpointMagicV4[] = "cacheportal-invalidator-checkpoint 4";
constexpr char kCheckpointMagicV5[] = "cacheportal-invalidator-checkpoint 5";

/// The TIER field's "no tier assigned yet" sentinel (valid tiers 0..3).
constexpr uint64_t kTierUnassigned = 4;

/// Per-cycle durable delta (the WAL commit record's payload): cursors,
/// lifetime counters, and only the types/sinks that changed since the
/// last delta. Same line grammar as v4 minus the registry blocks.
constexpr char kDeltaMagicV1[] = "cacheportal-invalidator-delta 1";

std::string EncodeLifetimeStats(const InvalidatorStats& s) {
  return StrCat(s.cycles, " ", s.updates_processed, " ",
                s.instances_registered, " ", s.instance_checks, " ",
                s.affected_immediately, " ", s.unaffected, " ",
                s.polls_issued, " ", s.polls_answered_by_index, " ",
                s.poll_hits, " ", s.conservative_invalidations, " ",
                s.emergency_flushes, " ", s.pages_invalidated, " ",
                s.messages_sent, " ", s.send_failures);
}

/// Parses the 14 counters from `fields[offset..offset+13]`.
Status ParseLifetimeStats(const std::vector<std::string>& fields,
                          size_t offset, InvalidatorStats* out) {
  uint64_t* slots[14] = {
      &out->cycles,          &out->updates_processed,
      &out->instances_registered, &out->instance_checks,
      &out->affected_immediately, &out->unaffected,
      &out->polls_issued,    &out->polls_answered_by_index,
      &out->poll_hits,       &out->conservative_invalidations,
      &out->emergency_flushes, &out->pages_invalidated,
      &out->messages_sent,   &out->send_failures};
  for (size_t i = 0; i < 14; ++i) {
    Result<uint64_t> value = ParseUint64(fields[offset + i]);
    if (!value.ok()) {
      return Status::ParseError(
          StrCat("bad lifetime counter: ", fields[offset + i]));
    }
    *slots[i] = *value;
  }
  return Status::OK();
}

std::string EncodeTypeStats(const QueryTypeStats& ts) {
  return StrCat(ts.instances_seen, " ", ts.checks, " ", ts.affected, " ",
                ts.polling_queries, " ", ts.total_invalidation_time, " ",
                ts.max_invalidation_time);
}

/// Parses CACHEABLE + the 6 type counters from `fields[offset..offset+6]`.
Status ParseTypeStats(const std::vector<std::string>& fields, size_t offset,
                      bool* cacheable, QueryTypeStats* out) {
  Result<uint64_t> flag = ParseUint64(fields[offset]);
  if (!flag.ok() || *flag > 1) {
    return Status::ParseError(
        StrCat("bad cacheability flag: ", fields[offset]));
  }
  *cacheable = (*flag == 1);
  uint64_t values[6];
  for (size_t i = 0; i < 6; ++i) {
    Result<uint64_t> value = ParseUint64(fields[offset + 1 + i]);
    if (!value.ok()) {
      return Status::ParseError(
          StrCat("bad type counter: ", fields[offset + 1 + i]));
    }
    values[i] = *value;
  }
  out->instances_seen = values[0];
  out->checks = values[1];
  out->affected = values[2];
  out->polling_queries = values[3];
  out->total_invalidation_time = static_cast<Micros>(values[4]);
  out->max_invalidation_time = static_cast<Micros>(values[5]);
  return Status::OK();
}

}  // namespace

std::string Invalidator::Checkpoint() {
  // Staged restore work must land first or the snapshot would persist
  // half-restored state (types without their queued instances).
  ApplyPendingRestore();
  std::vector<uint64_t> cursors = plane_.MapCursors();
  std::string out = StrCat(kCheckpointMagicV5, "\n",
                           "update_seq ", last_update_seq_, "\n",
                           "shards ", cursors.size(), "\n");
  for (size_t i = 0; i < cursors.size(); ++i) {
    out += StrCat("shard_map_id ", i, " ", cursors[i], "\n");
  }
  out += StrCat("type_counter ", plane_.TypeCount(), "\n");
  out += StrCat("stats ", EncodeLifetimeStats(stats_), "\n");
  // Snapshot before the walk: TierAssignments takes shard locks one at a
  // time, the walk below holds them all.
  std::map<uint64_t, TierDecision> tiers = plane_.TierAssignments();
  plane_.ForEachType([&](const QueryType& type) {
    auto tier_it = tiers.find(type.type_id);
    uint64_t tier = tier_it != tiers.end()
                        ? static_cast<uint64_t>(tier_it->second.tier)
                        : kTierUnassigned;
    const std::string reason =
        tier_it != tiers.end() ? tier_it->second.reason : std::string();
    out += StrCat("type ", type.type_id, " ", type.cacheable ? 1 : 0, " ",
                  EncodeTypeStats(type.stats), " ", tier, " ",
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
  for (size_t i = 0; i < sinks_.size(); ++i) {
    const auto* durable = dynamic_cast<const CheckpointableSink*>(sinks_[i]);
    if (durable == nullptr) continue;
    std::string state = durable->CheckpointState();
    out += StrCat("sink ", i, " ", state.size(), "\n");
    out += state;
    out += "\n";
  }
  out += "end\n";
  return out;
}

Status Invalidator::Restore(const std::string& checkpoint) {
  size_t pos = 0;
  auto next_line = [&checkpoint, &pos]() -> std::optional<std::string> {
    if (pos >= checkpoint.size()) return std::nullopt;
    size_t nl = checkpoint.find('\n', pos);
    if (nl == std::string::npos) nl = checkpoint.size();
    std::string line = checkpoint.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };

  std::optional<std::string> magic = next_line();
  if (!magic.has_value()) {
    return Status::ParseError("not an invalidator checkpoint");
  }
  int version = 0;
  if (*magic == kCheckpointMagicV1) {
    version = 1;
  } else if (*magic == kCheckpointMagicV3) {
    version = 3;
  } else if (*magic == kCheckpointMagicV4) {
    version = 4;
  } else if (*magic == kCheckpointMagicV5) {
    version = 5;
  } else {
    return Status::ParseError("not an invalidator checkpoint");
  }
  // Reads a length-prefixed block (followed by a separator '\n') at the
  // current position, for the v4 name/template/instance payloads and the
  // sink states of every version.
  auto next_block = [&checkpoint, &pos](uint64_t length,
                                        std::string* out) -> bool {
    if (pos + length > checkpoint.size()) return false;
    *out = checkpoint.substr(pos, length);
    pos += length + 1;
    return true;
  };
  uint64_t update_seq = 0;
  bool saw_update_seq = false;
  bool saw_end = false;
  std::optional<uint64_t> shard_count;
  std::map<uint64_t, uint64_t> shard_cursors;
  std::map<size_t, std::string> sink_states;
  // v4 staging: nothing mutates until the whole blob validates.
  std::optional<uint64_t> type_counter;
  bool saw_stats = false;
  InvalidatorStats staged_stats;
  struct StagedType {
    uint64_t type_id = 0;
    TypeOverride override_;
    uint64_t tier = kTierUnassigned;  // v4 blobs carry no tier.
    std::string name;
    std::string tmpl_text;
    std::string tier_reason;
  };
  std::vector<StagedType> staged_types;
  std::vector<std::string> staged_instances;
  while (std::optional<std::string> line = next_line()) {
    std::vector<std::string> fields = StrSplit(*line, ' ');
    if (fields.empty() || fields[0].empty()) continue;
    if (fields[0] == "end") {
      saw_end = true;
      break;
    }
    // All numeric fields parse strictly: a corrupt `update_seq` that
    // strtoull would coerce to 0 must fail loudly, not silently rewind
    // the cursor to the log's beginning (replaying every update), and a
    // garbled sink index must not misassign durable sink state. Record
    // types are version-gated: a v1 blob carrying shard records (or a v3
    // blob carrying `map_id`) is corrupt, not merely old.
    if (fields[0] == "update_seq" && fields.size() == 2) {
      Result<uint64_t> seq = ParseUint64(fields[1]);
      if (!seq.ok()) {
        return Status::ParseError(StrCat("bad update_seq in checkpoint: ",
                                         seq.status().message()));
      }
      update_seq = *seq;
      saw_update_seq = true;
    } else if (version == 1 && fields[0] == "map_id" && fields.size() == 2) {
      // The value is unused (restore rescans the map from zero, see the
      // header comment) but still validated: a garbled cursor means a
      // garbled checkpoint.
      Result<uint64_t> map_id = ParseUint64(fields[1]);
      if (!map_id.ok()) {
        return Status::ParseError(StrCat("bad map_id in checkpoint: ",
                                         map_id.status().message()));
      }
    } else if (version >= 3 && fields[0] == "shards" && fields.size() == 2) {
      Result<uint64_t> count = ParseUint64(fields[1]);
      if (!count.ok() || *count == 0) {
        return Status::ParseError(StrCat("bad shard count in checkpoint: ",
                                         fields[1]));
      }
      shard_count = *count;
    } else if (version >= 3 && fields[0] == "shard_map_id" &&
               fields.size() == 3) {
      Result<uint64_t> index = ParseUint64(fields[1]);
      Result<uint64_t> cursor = ParseUint64(fields[2]);
      if (!index.ok() || !cursor.ok()) {
        return Status::ParseError(
            StrCat("bad shard_map_id record in checkpoint: ", *line));
      }
      if (!shard_cursors.emplace(*index, *cursor).second) {
        return Status::ParseError(
            StrCat("duplicate shard_map_id record in checkpoint: ", *line));
      }
    } else if (version >= 4 && fields[0] == "type_counter" &&
               fields.size() == 2) {
      Result<uint64_t> count = ParseUint64(fields[1]);
      if (!count.ok()) {
        return Status::ParseError(
            StrCat("bad type_counter in checkpoint: ", fields[1]));
      }
      type_counter = *count;
    } else if (version >= 4 && fields[0] == "stats" && fields.size() == 15) {
      CACHEPORTAL_RETURN_NOT_OK(ParseLifetimeStats(fields, 1, &staged_stats));
      saw_stats = true;
    } else if (fields[0] == "type" &&
               ((version == 4 && fields.size() == 11) ||
                (version >= 5 && fields.size() == 13))) {
      // v4: type TID CACHEABLE <6 stats> NAMELEN TMPLLEN + 2 blocks.
      // v5: type TID CACHEABLE <6 stats> TIER NAMELEN TMPLLEN REASONLEN
      //     + 3 blocks (the third is the demotion reason, possibly empty).
      StagedType staged;
      size_t len_at = version >= 5 ? 10 : 9;
      Result<uint64_t> tid = ParseUint64(fields[1]);
      Result<uint64_t> name_len = ParseUint64(fields[len_at]);
      Result<uint64_t> tmpl_len = ParseUint64(fields[len_at + 1]);
      if (!tid.ok() || !name_len.ok() || !tmpl_len.ok()) {
        return Status::ParseError(
            StrCat("bad type record in checkpoint: ", *line));
      }
      staged.type_id = *tid;
      CACHEPORTAL_RETURN_NOT_OK(ParseTypeStats(
          fields, 2, &staged.override_.cacheable, &staged.override_.stats));
      std::optional<uint64_t> reason_len;
      if (version >= 5) {
        Result<uint64_t> tier = ParseUint64(fields[9]);
        Result<uint64_t> r_len = ParseUint64(fields[12]);
        if (!tier.ok() || *tier > kTierUnassigned || !r_len.ok()) {
          return Status::ParseError(
              StrCat("bad type tier record in checkpoint: ", *line));
        }
        staged.tier = *tier;
        reason_len = *r_len;
      }
      if (!next_block(*name_len, &staged.name) ||
          !next_block(*tmpl_len, &staged.tmpl_text) ||
          (reason_len.has_value() &&
           !next_block(*reason_len, &staged.tier_reason))) {
        return Status::ParseError("truncated type blocks in checkpoint");
      }
      // The template must still parse, and to the same identity: the
      // type_id is the template hash, so a mismatch means the blob's
      // bytes rotted (or the canonicalizer changed incompatibly) and the
      // registry built from it would route instances to the wrong shard.
      Result<sql::QueryTemplate> tmpl =
          sql::ExtractTemplateFromSql(staged.tmpl_text);
      if (!tmpl.ok()) {
        return Status::ParseError(
            StrCat("checkpoint template no longer parses: ",
                   tmpl.status().message()));
      }
      if (tmpl->type_id != staged.type_id) {
        return Status::ParseError(
            StrCat("checkpoint template hashes to ", tmpl->type_id,
                   " but the record claims ", staged.type_id));
      }
      staged_types.push_back(std::move(staged));
    } else if (version >= 4 && fields[0] == "instance" && fields.size() == 2) {
      Result<uint64_t> length = ParseUint64(fields[1]);
      if (!length.ok()) {
        return Status::ParseError(
            StrCat("bad instance record in checkpoint: ", *line));
      }
      // Framing-only validation: the SQL is NOT parsed here — that cost
      // is deferred to ApplyPendingRestore (the whole point of the lazy
      // rebuild), which logs and skips unparseable entries the way the
      // ingest scan does.
      std::string sql;
      if (!next_block(*length, &sql)) {
        return Status::ParseError("truncated instance block in checkpoint");
      }
      staged_instances.push_back(std::move(sql));
    } else if (fields[0] == "sink" && fields.size() == 3) {
      Result<uint64_t> index = ParseUint64(fields[1]);
      Result<uint64_t> length = ParseUint64(fields[2]);
      if (!index.ok() || !length.ok()) {
        return Status::ParseError(
            StrCat("bad sink record in checkpoint: ", *line));
      }
      std::string state;
      if (!next_block(*length, &state)) {
        return Status::ParseError("truncated sink state in checkpoint");
      }
      sink_states[static_cast<size_t>(*index)] = std::move(state);
    } else {
      return Status::ParseError(StrCat("unknown checkpoint record: ", *line));
    }
  }
  if (!saw_end || !saw_update_seq) {
    return Status::ParseError("truncated invalidator checkpoint");
  }
  if (version >= 3) {
    if (!shard_count.has_value()) {
      return Status::ParseError("checkpoint missing shard count");
    }
    if (shard_cursors.size() != *shard_count) {
      return Status::ParseError(
          StrCat("checkpoint declares ", *shard_count, " shards but carries ",
                 shard_cursors.size(), " cursors"));
    }
    for (const auto& [index, cursor] : shard_cursors) {
      if (index >= *shard_count) {
        return Status::ParseError(
            StrCat("checkpoint shard cursor index ", index,
                   " out of range (", *shard_count, " shards)"));
      }
    }
    // A different live shard count is fine: v1–v3 rewind to zero anyway,
    // and v4's SetMapCursors falls back to the minimum position when the
    // counts differ — the persisted partitioning never constrains the
    // new process's configuration.
  }
  if (version >= 4) {
    if (!type_counter.has_value()) {
      return Status::ParseError("checkpoint missing type_counter");
    }
    if (!saw_stats) {
      return Status::ParseError("checkpoint missing lifetime counters");
    }
  }
  // ---- Validation done; mutate. Sinks first (the only apply step that
  // can fail), then the registry skeleton, then the scalar state. ----
  for (const auto& [index, state] : sink_states) {
    if (index >= sinks_.size()) {
      return Status::InvalidArgument(
          StrCat("checkpoint references sink ", index, " but only ",
                 sinks_.size(), " sinks are attached"));
    }
    auto* durable = dynamic_cast<CheckpointableSink*>(sinks_[index]);
    if (durable == nullptr) {
      return Status::InvalidArgument(
          StrCat("checkpoint has durable state for sink ", index,
                 " but the attached sink is not checkpointable"));
    }
    CACHEPORTAL_RETURN_NOT_OK(durable->RestoreState(state));
  }
  if (version >= 4) {
    // Rebuild every type eagerly — O(types), the cheap part — so
    // cacheability verdicts and reports are right immediately. Instances
    // (the O(N) parse cost) are queued for ApplyPendingRestore.
    pending_restore_ops_.clear();
    pending_type_overrides_.clear();
    for (const StagedType& staged : staged_types) {
      CACHEPORTAL_RETURN_NOT_OK(
          plane_.RegisterType(staged.name, staged.tmpl_text));
      plane_.WithShardOfType(staged.type_id, [&](MetadataPlane::Shard& shard) {
        if (QueryType* type = shard.registry.FindType(staged.type_id)) {
          type->cacheable = staged.override_.cacheable;
        }
      });
      // Pin the persisted tier eagerly (before any instance re-registers)
      // so the census and the next cycle's strategy dispatch match the
      // dead process exactly — a re-derivation against drifted schema or
      // analyzer behavior would be a silent strategy change on recovery.
      if (staged.tier < kTierUnassigned) {
        plane_.InstallTier(staged.type_id,
                           static_cast<StrategyTier>(staged.tier),
                           staged.tier_reason);
      }
      pending_type_overrides_[staged.type_id] = staged.override_;
    }
    // After the creations above, so the persisted counter (which already
    // includes these types) wins and discovered-type naming continues
    // where the dead process left off.
    plane_.SetTypeCount(*type_counter);
    pending_restore_ops_.reserve(staged_instances.size());
    for (std::string& sql : staged_instances) {
      pending_restore_ops_.push_back(RestoredOp{true, std::move(sql)});
    }
    stats_ = staged_stats;
    std::vector<uint64_t> cursors;
    cursors.reserve(shard_cursors.size());
    for (const auto& [index, cursor] : shard_cursors) {
      (void)index;
      // Persisted map cursors are only meaningful against the map
      // incarnation that wrote them. The sniffer's map is rebuilt from
      // live traffic after a process restart, so its ids restart below
      // the persisted positions — installing such a cursor verbatim
      // would silently skip every re-sniffed row, and updates would
      // never eject the re-cached pages. Clamp to the live tail: rows
      // the map does hold stay consumed (the v4 no-rescan win for
      // in-process restores), and a rebuilt map rescans from its start.
      cursors.push_back(std::min(cursor, map_->LastId()));
    }
    plane_.SetMapCursors(cursors);
  } else {
    plane_.ResetMapCursors();
  }
  last_update_seq_ = update_seq;
  last_map_epoch_.reset();  // Force the next cycle's map scan.
  retire_sweep_due_ = true;  // ... and its retire sweep.
  return Status::OK();
}

std::string Invalidator::EncodeDurableDelta(DurableDeltaBaseline* baseline) {
  std::vector<uint64_t> cursors = plane_.MapCursors();
  std::string out = StrCat(kDeltaMagicV1, "\n",
                           "update_seq ", last_update_seq_, "\n",
                           "shards ", cursors.size(), "\n");
  for (size_t i = 0; i < cursors.size(); ++i) {
    out += StrCat("shard_map_id ", i, " ", cursors[i], "\n");
  }
  out += StrCat("stats ", EncodeLifetimeStats(stats_), "\n");
  plane_.ForEachType([&](const QueryType& type) {
    std::string line =
        StrCat("type ", type.type_id, " ", type.cacheable ? 1 : 0, " ",
               EncodeTypeStats(type.stats), "\n");
    auto it = baseline->type_lines.find(type.type_id);
    if (it != baseline->type_lines.end() && it->second == line) return;
    baseline->type_lines[type.type_id] = line;
    out += line;
  });
  for (size_t i = 0; i < sinks_.size(); ++i) {
    const auto* durable = dynamic_cast<const CheckpointableSink*>(sinks_[i]);
    if (durable == nullptr) continue;
    std::string state = durable->CheckpointState();
    auto it = baseline->sink_states.find(i);
    if (it != baseline->sink_states.end() && it->second == state) continue;
    baseline->sink_states[i] = state;
    out += StrCat("sink ", i, " ", state.size(), "\n");
    out += state;
    out += "\n";
  }
  out += "end\n";
  return out;
}

Status Invalidator::ApplyDurableDelta(const std::string& payload) {
  size_t pos = 0;
  auto next_line = [&payload, &pos]() -> std::optional<std::string> {
    if (pos >= payload.size()) return std::nullopt;
    size_t nl = payload.find('\n', pos);
    if (nl == std::string::npos) nl = payload.size();
    std::string line = payload.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };
  std::optional<std::string> magic = next_line();
  if (!magic.has_value() || *magic != kDeltaMagicV1) {
    return Status::ParseError("not an invalidator delta");
  }
  uint64_t update_seq = 0;
  bool saw_update_seq = false;
  bool saw_stats = false;
  bool saw_end = false;
  InvalidatorStats staged_stats;
  std::optional<uint64_t> shard_count;
  std::map<uint64_t, uint64_t> shard_cursors;
  std::map<uint64_t, TypeOverride> staged_overrides;
  std::map<size_t, std::string> sink_states;
  while (std::optional<std::string> line = next_line()) {
    std::vector<std::string> fields = StrSplit(*line, ' ');
    if (fields.empty() || fields[0].empty()) continue;
    if (fields[0] == "end") {
      saw_end = true;
      break;
    }
    if (fields[0] == "update_seq" && fields.size() == 2) {
      Result<uint64_t> seq = ParseUint64(fields[1]);
      if (!seq.ok()) {
        return Status::ParseError(
            StrCat("bad update_seq in delta: ", seq.status().message()));
      }
      update_seq = *seq;
      saw_update_seq = true;
    } else if (fields[0] == "shards" && fields.size() == 2) {
      Result<uint64_t> count = ParseUint64(fields[1]);
      if (!count.ok() || *count == 0) {
        return Status::ParseError(
            StrCat("bad shard count in delta: ", fields[1]));
      }
      shard_count = *count;
    } else if (fields[0] == "shard_map_id" && fields.size() == 3) {
      Result<uint64_t> index = ParseUint64(fields[1]);
      Result<uint64_t> cursor = ParseUint64(fields[2]);
      if (!index.ok() || !cursor.ok() ||
          !shard_cursors.emplace(*index, *cursor).second) {
        return Status::ParseError(
            StrCat("bad shard_map_id record in delta: ", *line));
      }
    } else if (fields[0] == "stats" && fields.size() == 15) {
      CACHEPORTAL_RETURN_NOT_OK(ParseLifetimeStats(fields, 1, &staged_stats));
      saw_stats = true;
    } else if (fields[0] == "type" && fields.size() == 9) {
      Result<uint64_t> tid = ParseUint64(fields[1]);
      if (!tid.ok()) {
        return Status::ParseError(StrCat("bad type record in delta: ", *line));
      }
      TypeOverride override_;
      CACHEPORTAL_RETURN_NOT_OK(
          ParseTypeStats(fields, 2, &override_.cacheable, &override_.stats));
      staged_overrides[*tid] = override_;
    } else if (fields[0] == "sink" && fields.size() == 3) {
      Result<uint64_t> index = ParseUint64(fields[1]);
      Result<uint64_t> length = ParseUint64(fields[2]);
      if (!index.ok() || !length.ok() ||
          pos + *length > payload.size()) {
        return Status::ParseError(
            StrCat("bad sink record in delta: ", *line));
      }
      sink_states[static_cast<size_t>(*index)] = payload.substr(pos, *length);
      pos += *length + 1;
    } else {
      return Status::ParseError(StrCat("unknown delta record: ", *line));
    }
  }
  if (!saw_end || !saw_update_seq || !saw_stats || !shard_count.has_value() ||
      shard_cursors.size() != *shard_count) {
    return Status::ParseError("truncated invalidator delta");
  }
  for (const auto& [index, cursor] : shard_cursors) {
    if (index >= *shard_count) {
      return Status::ParseError(
          StrCat("delta shard cursor index ", index, " out of range"));
    }
  }
  for (const auto& [index, state] : sink_states) {
    if (index >= sinks_.size()) {
      return Status::InvalidArgument(
          StrCat("delta references sink ", index, " but only ",
                 sinks_.size(), " sinks are attached"));
    }
    auto* durable = dynamic_cast<CheckpointableSink*>(sinks_[index]);
    if (durable == nullptr) {
      return Status::InvalidArgument(
          StrCat("delta has durable state for sink ", index,
                 " but the attached sink is not checkpointable"));
    }
    CACHEPORTAL_RETURN_NOT_OK(durable->RestoreState(state));
  }
  for (const auto& [tid, override_] : staged_overrides) {
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
  stats_ = staged_stats;
  std::vector<uint64_t> cursors;
  cursors.reserve(shard_cursors.size());
  for (const auto& [index, cursor] : shard_cursors) {
    (void)index;
    // Same clamp as Restore: a replayed commit delta's cursors came from
    // the dead process's map incarnation; never install one beyond the
    // live map's last assigned id or re-sniffed rows would be skipped.
    cursors.push_back(std::min(cursor, map_->LastId()));
  }
  plane_.SetMapCursors(cursors);
  last_update_seq_ = update_seq;
  last_map_epoch_.reset();
  retire_sweep_due_ = true;
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
