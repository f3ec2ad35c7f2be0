#include "invalidator/stages.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "invalidator/impact.h"
#include "sql/analyzer.h"
#include "sql/printer.h"

namespace cacheportal::invalidator {

StagePolicy MakeStagePolicy(DegradationMode mode,
                            const InvalidatorOptions& options) {
  StagePolicy policy;
  policy.mode = mode;
  policy.poll_budget = options.max_polls_per_cycle;
  switch (mode) {
    case DegradationMode::kNormal:
      break;
    case DegradationMode::kEconomy: {
      size_t economy = options.overload.economy_poll_budget;
      if (economy == 0) {
        policy.skip_polls = true;
      } else {
        policy.poll_budget = policy.poll_budget == 0
                                 ? economy
                                 : std::min(policy.poll_budget, economy);
      }
      break;
    }
    case DegradationMode::kConservative:
      policy.skip_polls = true;
      break;
    case DegradationMode::kEmergency:
      policy.skip_polls = true;
      policy.flush_only = true;
      // The one rung that overrides the exact tier: a table-scoped flush
      // abandons precision wholesale, exact types included. The economy
      // and conservative rungs above keep exact_exempt true — they only
      // ration polls, and the exact tier issues none to ration.
      policy.exact_exempt = false;
      break;
  }
  return policy;
}

// ---------------------------------------------------------------------------
// IngestStage
// ---------------------------------------------------------------------------

Status IngestStage::Run(CycleContext& ctx) {
  // ---- Overload planning: pick this cycle's degradation rung. ----
  // Signals are observed BEFORE the log is consumed (the backlog is the
  // evidence) and are deterministic functions of the clock and pipeline
  // state, so the mode sequence is identical at every worker count.
  DegradationMode mode = DegradationMode::kNormal;
  if (env_.overload != nullptr) {
    mode = env_.overload->Plan(env_.observe_signals());
  }
  ctx.policy = MakeStagePolicy(mode, *env_.options);
  ctx.report.mode = mode;

  // Ids freed before this cycle may be rebound from here on; none freed
  // during it will be (DESIGN.md §11).
  env_.plane->ids().Reclaim();

  // ---- Registration module, online mode: scan the QI/URL map. ----
  // The map's epoch is a cheap "anything changed?" probe: when it equals
  // the last scan's snapshot the row set is untouched and the scan would
  // return nothing. Recorded BEFORE the read, so rows added during the
  // scan force a (possibly empty) rescan next cycle rather than a skip.
  uint64_t epoch = env_.map->epoch();
  bool scan = env_.last_map_epoch == nullptr ||
              !env_.last_map_epoch->has_value() ||
              **env_.last_map_epoch != epoch;
  if (scan) {
    if (env_.last_map_epoch != nullptr) *env_.last_map_epoch = epoch;
    uint64_t max_id = 0;
    for (const sniffer::QiUrlRow& row :
         env_.map->ReadRowsSince(env_.plane->MapCursor())) {
      max_id = std::max(max_id, row.id);
      Result<const QueryInstance*> instance =
          env_.plane->RegisterInstance(row.query);
      if (!instance.ok()) {
        // Unparseable query: nothing we can safely track. Drop its pages
        // from consideration (they were cached under a query we cannot
        // invalidate — treat as immediately suspect).
        LogMessage(LogLevel::kWarning,
                   StrCat("cannot register query instance: ",
                          instance.status().ToString()));
        continue;
      }
      ++ctx.report.new_instances;
      ++env_.stats->instances_registered;
    }
    if (max_id > 0) env_.plane->AdvanceMapCursor(max_id);
  }

  // ---- Retire instances whose pages all left the cache. ----
  // Every cycle, updates or not, so the map's orphan feed stays drained.
  // A query can only lose its last page through RemovePage, which feeds
  // it here; it may have gained a page again since, so the count is
  // re-checked. A full sweep covers what the feed cannot: instances
  // recovered by Restore (they may reference pages a rebuilt map never
  // had) and a feed that overflowed. The feed's ids stay referenced until
  // `orphans` is destroyed, so none is rebound while it is checked.
  sniffer::QiUrlMap::Orphans orphans = env_.map->TakeOrphans();
  std::vector<QueryId> retired;
  const auto check = [&](QueryId query) {
    if (env_.map->NumPagesForQuery(query) == 0) retired.push_back(query);
  };
  if (env_.retire_sweep_due == nullptr || *env_.retire_sweep_due ||
      !orphans.complete) {
    env_.plane->ForEachInstance(
        [&](const QueryType&, const QueryInstance& instance) {
          check(static_cast<QueryId>(instance.instance_id));
        });
    if (env_.retire_sweep_due != nullptr) *env_.retire_sweep_due = false;
  } else {
    for (QueryId query : orphans.queries) check(query);
  }
  for (QueryId query : retired) env_.plane->RetireInstance(query);

  // ---- Invalidation module: pull the update log. ----
  std::vector<db::UpdateRecord> records =
      env_.database->update_log().ReadSince(*env_.last_update_seq);
  if (!records.empty()) *env_.last_update_seq = records.back().seq;
  ctx.report.updates = records.size();
  env_.stats->updates_processed += records.size();

  if (records.empty()) {
    ctx.proceed = false;
    return Status::OK();
  }

  ctx.deltas = db::DeltaSet::FromRecords(records);
  // The internal polling cache must not serve results that predate this
  // batch: drop everything reading an updated table first.
  if (env_.polling_cache != nullptr) {
    env_.polling_cache->Synchronize(ctx.deltas);
  }
  // Keep the information manager's auxiliary structures current: the
  // paper's daemon applies the same update stream it analyzes; we apply
  // before answering polls so index answers match the database state the
  // polls would see.
  env_.info->ApplyDeltas(ctx.deltas);

  // One merged tuple view per updated table (inserts then deletes, the
  // order the per-instance copies used to have), borrowed by every
  // analysis this cycle instead of copied per instance.
  for (const std::string& table : ctx.deltas.Tables()) {
    const db::TableDelta& delta = ctx.deltas.ForTable(table);
    TableTuples view;
    view.table = table;
    view.tuples = delta.MergedRows();
    view.inserts = delta.inserts.size();
    if (!view.tuples.empty()) ctx.merged.push_back(std::move(view));
  }

  // Columnar materialization of the merged views (parallel by index),
  // built once here and probed whole-column per (type, table) anchor by
  // ImpactStage. Borrows the same rows as `merged`.
  ctx.batch_columns.reserve(ctx.merged.size());
  for (const TableTuples& view : ctx.merged) {
    ctx.batch_columns.push_back(sql::ColumnBatch::FromRows(view.tuples));
  }

  ctx.proceed = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ImpactStage
// ---------------------------------------------------------------------------

Status ImpactStage::Run(CycleContext& ctx) {
  MetadataPlane& plane = *env_.plane;

  // ---- Emergency rung: table-scoped flush, no analysis, no polling. ----
  // Precision is abandoned for this cycle: every registered instance
  // reading a table with backlogged updates is invalidated outright, and
  // the cursor has already fast-forwarded past the whole backlog in
  // ingest — unbounded staleness becomes bounded over-invalidation.
  // Instances reading only untouched tables are provably unaffected and
  // skipped.
  if (ctx.policy.flush_only) {
    plane.ForEachInstance([&](const QueryType&, const QueryInstance& instance) {
      const auto query = static_cast<QueryId>(instance.instance_id);
      if (env_.map->NumPagesForQuery(query) == 0) return;
      bool reads_updated_table = false;
      for (const sql::TableRef& ref : instance.statement->from) {
        if (!ctx.deltas.ForTable(ref.table).empty()) {
          reads_updated_table = true;
          break;
        }
      }
      if (!reads_updated_table) return;
      if (ctx.affected.insert(query).second) {
        ++env_.stats->emergency_flushes;
        ++env_.stats->conservative_invalidations;
        ++ctx.report.conservative_invalidations;
      }
    });
    return Status::OK();
  }

  // ---- Impact analysis (Section 4.1.2's grouping). ----
  // Exact-tier types (DESIGN.md §16): candidates come from the same
  // bind-index probes and partition as every compiled type; only the
  // verdict differs — decided from the delta's row images, with no
  // impact analysis and no polls. Snapshotted up front because the
  // ForEach* callbacks below must not re-enter the plane. Empty when the
  // policy's rung revoked the exemption (kEmergency never reaches this
  // point anyway).
  std::set<uint64_t> exact_types;
  if (ctx.policy.exact_exempt) {
    for (const auto& [type_id, decision] : plane.TierAssignments()) {
      if (decision.tier == StrategyTier::kExact) exact_types.insert(type_id);
    }
  }

  // ---- Candidate discovery: one whole-column probe per covered (type,
  // table) pair, producing per-instance candidate row lists plus the
  // rows every instance must consider (the anchored column's NULL /
  // boolean / NaN / missing cells, and every row when the column index
  // is beyond the batch width). Instances absent from every list are
  // provably unaffected — the partition below skips them entirely.
  // Enumerates TYPES, not instances, each under the plane lock, so a
  // concurrent registration of the same type is serialized (and keeps
  // the live/indexed counts in step — both change under the same lock).
  // Probes are read-only in the fan-out.
  std::map<std::pair<uint64_t, size_t>, BindIndex::BatchProbe> probes;

  /// Per-type snapshot driving the partition: the live instance count is
  /// captured under the plane lock at probe time, so it is
  /// consistent with the probes' candidate sets.
  struct TypeBlock {
    uint64_t type_id = 0;
    const QueryType* type = nullptr;
    size_t live = 0;
    /// The batch changed exactly two distinct FROM tables: their merged
    /// views, for the fan-out's in-process delta-join term.
    std::optional<std::pair<size_t, size_t>> delta_join;
    /// The multi-table guard applies: the batch changed three or more
    /// FROM entries, or one table that FROM lists twice. Identical for
    /// every instance (templates parameterize only WHERE literals). Such
    /// a type never reads a probe: it is ineligible for the partition,
    /// and every instance is ejected unpolled.
    bool guarded = false;
  };
  std::vector<TypeBlock> blocks;  // Ascending type_id — the scan order.
  plane.ForEachType([&](const QueryType& type) {
    TypeBlock& block = blocks.emplace_back();
    block.type_id = type.type_id;
    block.type = &type;
    if (type.tmpl.statement == nullptr) return;
    std::vector<size_t> changed;  // Merged view of each changed FROM entry.
    for (const sql::TableRef& ref : type.tmpl.statement->from) {
      for (size_t t = 0; t < ctx.merged.size(); ++t) {
        if (EqualsIgnoreCase(ref.table, ctx.merged[t].table)) {
          changed.push_back(t);
        }
      }
    }
    if (changed.size() > 2 ||
        (changed.size() == 2 && changed[0] == changed[1])) {
      block.guarded = true;
    } else if (changed.size() == 2) {
      block.delta_join.emplace(changed[0], changed[1]);
    }
  });
  for (TypeBlock& block : blocks) {
    plane.With([&](MetadataPlane::State& state) {
      block.live = state.registry.NumInstancesOfType(block.type_id);
      if (block.live == 0 || block.guarded) return;
      auto matcher_it = state.matchers.find(block.type_id);
      if (matcher_it == state.matchers.end() ||
          !matcher_it->second.handled()) {
        return;
      }
      // Exclusion is only sound if every live instance of the type is
      // indexed; a mismatch (cannot happen while all registrations and
      // retirements flow through the plane) falls back to the
      // interpreted path for the whole type.
      if (state.bind_index.IndexedCountOfType(block.type_id) != block.live) {
        return;
      }
      for (size_t t = 0; t < ctx.merged.size(); ++t) {
        const CompiledAnchor* anchor =
            matcher_it->second.AnchorFor(ctx.merged[t].table);
        if (anchor == nullptr) continue;
        env_.cycle_matcher_stats->probes += ctx.merged[t].tuples.size();
        ++env_.cycle_matcher_stats->batch_probes;
        state.bind_index.ProbeBatch(
            block.type_id, *anchor,
            ctx.batch_columns[t].Column(anchor->column_index),
            &probes[std::make_pair(block.type_id, t)],
            env_.cycle_matcher_stats);
      }
    });
  }

  // ---- Partition: build the work list per type, skipping the fan-out —
  // and the per-instance state entirely — for instances the probes
  // proved unaffected. A type is eligible when the multi-table guard
  // does not apply and every merged view either (a) has a probe whose
  // all_rows list is empty — then an instance absent from per_id
  // short-circuits that table with zero AST work — or (b) is a table
  // outside the type's FROM list, which AnalyzeDelta dismisses without
  // reading a tuple. An eligible type materializes only the candidates
  // in some covering per_id, in SQL-text order (polling order downstream
  // depends on it); the rest fold into one aggregate record per type,
  // merged below. An ineligible type materializes everyone, in the same
  // order.
  // Exact-tier types partition the same way: a non-candidate's WHERE is
  // definitely FALSE for every old and new row image in the batch, so
  // no membership can flip and no content can change. So do delta-join
  // types: a non-candidate has no candidate row on either side, hence no
  // poll and no pair.
  //
  // The work list's QueryInstance pointers stay valid without holding
  // the plane lock: instances are node-mapped and only the cycle thread
  // (IngestStage, DeliverStage) erases them. Registration may insert
  // concurrently; inserts never move nodes.
  struct SkippedBlock {
    uint64_t type_id = 0;
    uint64_t count = 0;           // Instances proven unaffected.
    uint64_t covered_tuples = 0;  // Tuples excluded per instance.
    uint64_t covered_views = 0;   // Tables short-circuited per instance.
  };
  std::vector<SkippedBlock> skipped;
  std::vector<InstanceAnalysis>& work = ctx.work;
  std::vector<const QueryInstance*> fetched;
  for (const TypeBlock& block : blocks) {
    if (block.live == 0) continue;
    const bool exact = exact_types.count(block.type_id) > 0;
    const sql::SelectStatement* statement = block.type->tmpl.statement.get();

    std::vector<const BindIndex::BatchProbe*> covering(ctx.merged.size(),
                                                       nullptr);
    uint64_t covered_tuples = 0;
    uint64_t covered_views = 0;
    bool eligible = statement != nullptr && !block.guarded;
    if (eligible) {
      for (size_t t = 0; eligible && t < ctx.merged.size(); ++t) {
        auto probe_it = probes.find(std::make_pair(block.type_id, t));
        if (probe_it != probes.end()) {
          if (!probe_it->second.all_rows.empty()) {
            eligible = false;  // Some tuples reach every instance.
            break;
          }
          covering[t] = &probe_it->second;
          covered_tuples += ctx.merged[t].tuples.size();
          ++covered_views;
          continue;
        }
        // Uncovered view: only harmless when the table is not in the
        // type's FROM list (identical for every instance of the type).
        for (const sql::TableRef& ref : statement->from) {
          if (AsciiToLower(ref.table) == ctx.merged[t].table) {
            eligible = false;
            break;
          }
        }
      }
    }

    if (!eligible) {
      plane.With([&](MetadataPlane::State& state) {
        state.registry.ForEachInstanceOfType(
            block.type_id, [&](const QueryInstance& instance) {
              InstanceAnalysis analysis;
              analysis.type_id = block.type_id;
              analysis.instance_id = instance.instance_id;
              analysis.instance = &instance;
              analysis.exact = exact;
              analysis.multi_table_guard = block.guarded && !exact;
              analysis.delta_join = block.delta_join;
              work.push_back(std::move(analysis));
            });
      });
      continue;
    }

    // Candidates: the union of the covering probes' per_id keys. Every
    // key is a live indexed instance of this type, so the remainder —
    // live minus candidates — is exactly the skipped population.
    std::vector<uint64_t> candidate_ids;
    for (size_t t = 0; t < ctx.merged.size(); ++t) {
      if (covering[t] == nullptr) continue;
      for (const auto& [id, rows] : covering[t]->per_id) {
        candidate_ids.push_back(id);
      }
    }
    std::sort(candidate_ids.begin(), candidate_ids.end());
    candidate_ids.erase(
        std::unique(candidate_ids.begin(), candidate_ids.end()),
        candidate_ids.end());
    fetched.clear();
    if (!candidate_ids.empty()) {
      plane.With([&](MetadataPlane::State& state) {
        for (uint64_t id : candidate_ids) {
          const QueryInstance* instance = state.registry.FindInstanceById(id);
          if (instance != nullptr && instance->type_id == block.type_id) {
            fetched.push_back(instance);
          }
        }
      });
      std::sort(fetched.begin(), fetched.end(),
                [](const QueryInstance* a, const QueryInstance* b) {
                  return a->sql < b->sql;
                });
      for (const QueryInstance* instance : fetched) {
        InstanceAnalysis analysis;
        analysis.type_id = block.type_id;
        analysis.instance_id = instance->instance_id;
        analysis.instance = instance;
        analysis.exact = exact;
        analysis.delta_join = block.delta_join;
        work.push_back(std::move(analysis));
      }
    }
    if (block.live > fetched.size()) {
      skipped.push_back({block.type_id, block.live - fetched.size(),
                         covered_tuples, covered_views});
    }
  }

  // Fan out: instances are independent given the batch's deltas. Workers
  // touch only const reads (deltas, schemas, the QI/URL map, the probe
  // results, join-index answers behind a shared lock) and their own work
  // slot — no plane lock, so registration proceeds concurrently. The
  // analyzer is stateless; one per cycle, shared by all workers.
  const std::vector<TableTuples>& merged = ctx.merged;
  const ImpactAnalyzer analyzer(env_.database);
  RunStageParallel(env_.pool, work.size(), [&](size_t slot) {
    InstanceAnalysis& a = work[slot];
    const QueryInstance& instance = *a.instance;

    if (a.exact) {
      // Exact tier: the delta for the candidate's single FROM table
      // decides membership changes from its row images — no impact
      // analysis, no polls, never condemned. Views over other tables
      // cannot affect a single-table query and are skipped outright
      // (the checked bit still arms so the merge counts the analysis,
      // exactly like the conservative walk does).
      Micros check_start = env_.clock->NowMicros();
      const sql::SelectStatement& statement = *instance.statement;
      const db::Table* table =
          statement.from.empty()
              ? nullptr
              : env_.database->FindTable(statement.from[0].table);
      bool affected = false;
      for (const TableTuples& view : merged) {
        a.checked = true;
        if (table == nullptr) {
          // Schema vanished under an assigned tier: eject conservatively
          // rather than risk staleness.
          affected = true;
          break;
        }
        if (!EqualsIgnoreCase(statement.from[0].table, view.table)) continue;
        if (ExactInstanceAffected(statement, table->schema(),
                                  ctx.deltas.ForTable(view.table))) {
          affected = true;
          break;
        }
      }
      a.check_time = env_.clock->NowMicros() - check_start;
      if (a.checked && affected) a.affected = true;
      return;
    }

    if (a.multi_table_guard) return;

    Micros check_start = env_.clock->NowMicros();
    bool affected = false;
    std::vector<std::unique_ptr<sql::SelectStatement>> polls;
    std::vector<uint32_t> rows;
    std::vector<const db::Row*> subset;
    // Each delta-join side's candidate rows, kept for the pair term.
    std::vector<uint32_t> join_rows[2];
    for (size_t t = 0; t < merged.size(); ++t) {
      const TableTuples& view = merged[t];
      a.checked = true;
      std::vector<uint32_t>* join_side = nullptr;
      if (a.delta_join.has_value()) {
        if (t == a.delta_join->first) join_side = &join_rows[0];
        if (t == a.delta_join->second) join_side = &join_rows[1];
      }
      const std::vector<const db::Row*>* tuples = &view.tuples;
      auto probe_it = probes.find(std::make_pair(a.type_id, t));
      if (probe_it == probes.end()) {
        if (join_side != nullptr) {
          join_side->resize(view.tuples.size());
          std::iota(join_side->begin(), join_side->end(), 0u);
        }
      } else {
        // Sorted-merge the tuples every instance must see with this
        // instance's candidates: delta order is preserved, so verdicts
        // and polling SQL match an unpruned analysis byte for byte.
        const BindIndex::BatchProbe& probe = probe_it->second;
        auto own_it = probe.per_id.find(a.instance_id);
        static const std::vector<uint32_t> kNone;
        const std::vector<uint32_t>& own =
            own_it == probe.per_id.end() ? kNone : own_it->second;
        std::vector<uint32_t>& kept = join_side != nullptr ? *join_side : rows;
        kept.clear();
        kept.reserve(probe.all_rows.size() + own.size());
        std::merge(probe.all_rows.begin(), probe.all_rows.end(), own.begin(),
                   own.end(), std::back_inserter(kept));
        subset.clear();
        subset.reserve(kept.size());
        for (uint32_t row : kept) subset.push_back(view.tuples[row]);
        a.matcher_excluded += view.tuples.size() - subset.size();
        if (subset.empty()) {
          // Every tuple's probe excluded this instance: provably
          // unaffected by this table with zero AST work.
          ++a.matcher_short_circuits;
          continue;
        }
        tuples = &subset;
      }

      if (env_.options->batch_deltas) {
        Result<ImpactResult> impact =
            analyzer.AnalyzeDelta(*instance.statement, view.table, *tuples);
        if (!impact.ok()) {
          a.status = impact.status();
          return;
        }
        if (impact->kind == ImpactKind::kAffected) {
          affected = true;
          break;
        }
        if (impact->kind == ImpactKind::kNeedsPolling) {
          polls.push_back(std::move(impact->polling_query));
        }
      } else {
        for (const db::Row* tuple : *tuples) {
          Result<ImpactResult> impact =
              analyzer.AnalyzeTuple(*instance.statement, view.table, *tuple);
          if (!impact.ok()) {
            a.status = impact.status();
            return;
          }
          if (impact->kind == ImpactKind::kAffected) {
            affected = true;
            break;
          }
          if (impact->kind == ImpactKind::kNeedsPolling) {
            polls.push_back(std::move(impact->polling_query));
          }
        }
        if (affected) break;
      }
    }
    if (!affected && a.delta_join.has_value()) {
      // The pairs neither side's poll can see: both sides' tuples left
      // the post state (DESIGN.md §10).
      Result<ImpactAnalyzer::DeltaJoinResult> pairs =
          analyzer.AnalyzeDeltaJoin(
              *instance.statement, merged[a.delta_join->first], join_rows[0],
              merged[a.delta_join->second], join_rows[1]);
      if (!pairs.ok()) {
        a.status = pairs.status();
        return;
      }
      a.delta_join_pairs = pairs->pairs;
      a.delta_join_hit = pairs->affected;
      affected = pairs->affected;
    }
    a.check_time = env_.clock->NowMicros() - check_start;
    if (!a.checked) return;
    if (affected) {
      a.affected = true;
      return;
    }
    if (polls.empty()) return;

    // Try the information manager's indexes before scheduling DBMS
    // polls.
    for (auto& poll : polls) {
      std::optional<bool> answer = env_.info->AnswerPoll(*poll);
      if (answer.has_value()) {
        ++a.index_answers;
        if (*answer) {
          a.index_affected = true;
          return;
        }
      } else {
        a.remaining_polls.push_back(std::move(poll));
      }
    }
    a.affected_pages =
        env_.map->NumPagesForQuery(static_cast<QueryId>(a.instance_id));
  });

  // Serial merge, in work-list order: fold verdicts into the lifetime and
  // per-type stats and collect the polling tasks. Work is grouped by
  // type, so each type block merges under one brief hold of the plane
  // lock — identical results to the serial loop.
  size_t i = 0;
  while (i < work.size()) {
    uint64_t type_id = work[i].type_id;
    size_t j = i;
    while (j < work.size() && work[j].type_id == type_id) ++j;
    Status block_status;
    plane.With([&](MetadataPlane::State& state) {
      QueryType* mutable_type = state.registry.FindType(type_id);
      for (size_t k = i; k < j; ++k) {
        InstanceAnalysis& a = work[k];
        if (!a.status.ok()) {
          block_status = a.status;
          return;
        }

        if (a.multi_table_guard) {
          ++ctx.report.checks;
          ++env_.stats->instance_checks;
          ++env_.stats->affected_immediately;
          if (mutable_type != nullptr) {
            ++mutable_type->stats.checks;
            ++mutable_type->stats.affected;
          }
          ctx.affected.insert(a.instance_id);
          continue;
        }
        if (!a.checked) continue;

        env_.cycle_matcher_stats->tuples_excluded += a.matcher_excluded;
        env_.cycle_matcher_stats->instances_short_circuited +=
            a.matcher_short_circuits;
        env_.cycle_matcher_stats->delta_join_pairs += a.delta_join_pairs;
        env_.cycle_matcher_stats->delta_join_hits += a.delta_join_hit;
        ++ctx.report.checks;
        ++env_.stats->instance_checks;
        if (mutable_type != nullptr) {
          QueryTypeStats& ts = mutable_type->stats;
          ++ts.checks;
          ts.total_invalidation_time += a.check_time;
          ts.max_invalidation_time =
              std::max(ts.max_invalidation_time, a.check_time);
        }

        if (a.affected) {
          ctx.affected.insert(a.instance_id);
          ++env_.stats->affected_immediately;
          if (mutable_type != nullptr) ++mutable_type->stats.affected;
          continue;
        }
        env_.stats->polls_answered_by_index += a.index_answers;
        ctx.report.polls_answered_by_index += a.index_answers;
        if (a.index_affected) {
          ctx.affected.insert(a.instance_id);
          if (mutable_type != nullptr) ++mutable_type->stats.affected;
          continue;
        }
        if (a.remaining_polls.empty()) {
          ++env_.stats->unaffected;
          continue;
        }
        for (auto& poll : a.remaining_polls) {
          PollingTask task;
          task.instance_sql = a.instance->sql;
          task.instance_id = a.instance_id;
          task.type_id = a.type_id;
          task.query = std::move(poll);
          task.affected_pages = a.affected_pages;
          ctx.tasks.push_back(std::move(task));
          if (mutable_type != nullptr) ++mutable_type->stats.polling_queries;
        }
      }
    });
    CACHEPORTAL_RETURN_NOT_OK(block_status);
    i = j;
  }

  // Fold the partition's fully-skipped type blocks: the columnar probes
  // short-circuited every table for `count` instances before any
  // per-instance state existed. Record exactly what a materialized
  // instance would have — one check, every covered tuple excluded,
  // one short-circuit per covered table, verdict unaffected (check_time
  // zero; the fast path reads no clock). All the touched counters are
  // order-insensitive sums, so folding after the per-instance merge is
  // byte-identical to interleaving.
  for (const SkippedBlock& block : skipped) {
    plane.With([&](MetadataPlane::State& state) {
      QueryType* mutable_type = state.registry.FindType(block.type_id);
      if (mutable_type != nullptr) mutable_type->stats.checks += block.count;
    });
    env_.cycle_matcher_stats->tuples_excluded +=
        block.covered_tuples * block.count;
    env_.cycle_matcher_stats->instances_short_circuited +=
        block.covered_views * block.count;
    env_.cycle_matcher_stats->fast_path_instances += block.count;
    ctx.report.checks += block.count;
    env_.stats->instance_checks += block.count;
    env_.stats->unaffected += block.count;
  }

  return Status::OK();
}

// ---------------------------------------------------------------------------
// PollStage
// ---------------------------------------------------------------------------

namespace {

/// One instance's polling work in the parallel polling fan-out. The
/// scheduler emits an instance's polls contiguously, so grouping is a
/// single pass; polls within a group run in order and short-circuit on
/// the first hit or failure, exactly like the serial loop.
struct PollGroup {
  std::string instance_sql;
  uint64_t instance_id = 0;
  uint64_t type_id = 0;
  std::vector<std::unique_ptr<sql::SelectStatement>> queries;

  // Outcome.
  uint64_t polls_issued = 0;
  bool poll_hit = false;
  bool conservative = false;  // A poll failed; invalidate conservatively.
  std::string failure;        // The failed poll's status, for the log.
};

/// One consolidated polling statement: the OR of the residual WHEREs of
/// several instances' polls against one (type, target table), executed
/// as a single DBMS round trip and demultiplexed in-process.
struct MergedPoll {
  sql::TableRef from;
  std::vector<size_t> groups;  // Member PollGroup indexes, in group order.
  struct MemberRef {
    size_t group = 0;
    size_t query = 0;  // Index into that group's queries.
  };
  std::vector<MemberRef> members;
  std::unique_ptr<sql::SelectStatement> statement;

  // Outcome (written by the one worker owning this poll). `hit_best`
  // maps each hit member group to the smallest satisfied query index —
  // the query the group's own serial loop would have stopped at — so
  // the merge can charge the group the identical polls_issued count.
  bool failed = false;
  std::string failure;
  std::map<size_t, size_t> hit_best;
};

/// Does `row` (a SELECT * result over `from`) satisfy a member poll's
/// residual WHERE? Decided with the same substitution + fold the impact
/// analyzer and the executor use, so the demultiplexed verdict equals
/// what the member's own `SELECT 1 ... LIMIT 1` poll would have returned.
bool RowSatisfies(const sql::Expression& where, const sql::TableRef& from,
                  const std::vector<std::string>& columns,
                  const db::Row& row) {
  auto substituter = [&](const std::string& tbl, const std::string& col)
      -> std::optional<sql::Value> {
    if (!tbl.empty() && !EqualsIgnoreCase(tbl, from.EffectiveName())) {
      return std::nullopt;
    }
    for (size_t i = 0; i < columns.size() && i < row.size(); ++i) {
      if (EqualsIgnoreCase(columns[i], col)) return row[i];
    }
    return std::nullopt;
  };
  sql::FoldResult folded =
      sql::FoldConstants(*sql::SubstituteColumns(where, substituter));
  // A residual would mean the row lacks a referenced column (cannot
  // happen: SELECT * carries the whole schema); count it as a hit rather
  // than risk staleness.
  return folded.outcome == sql::FoldOutcome::kTrue ||
         folded.outcome == sql::FoldOutcome::kResidual;
}

}  // namespace

Status PollStage::Run(CycleContext& ctx) {
  // ---- Schedule and execute polling queries, parallel phase. ----
  // The degradation rung already set this cycle's effective polling
  // budget in the stage policy: kEconomy shrank it, kConservative (or an
  // economy budget of 0) skips polling entirely — every undecided
  // instance is condemned.
  InvalidationScheduler::Schedule schedule;
  if (ctx.policy.skip_polls) {
    // Condemn whole instances exactly like the scheduler would: one
    // representative task per instance, in task order.
    std::set<std::string> condemned;
    for (PollingTask& task : ctx.tasks) {
      if (condemned.insert(task.instance_sql).second) {
        schedule.conservative.push_back(std::move(task));
      }
    }
  } else {
    schedule = env_.scheduler->BuildWithBudget(std::move(ctx.tasks),
                                               ctx.policy.poll_budget);
  }
  ctx.tasks.clear();

  // Condemn budget-overflow instances BEFORE any poll is issued: a
  // condemned instance is invalidated regardless, so polling any of its
  // queries would be pure DBMS waste.
  for (PollingTask& task : schedule.conservative) {
    if (ctx.affected.insert(task.instance_id).second) {
      ++env_.stats->conservative_invalidations;
      ++ctx.report.conservative_invalidations;
    }
  }

  // Group the admitted polls per instance (the scheduler emits them
  // contiguously); instances the analysis already decided need no polls.
  std::vector<PollGroup> poll_groups;
  for (PollingTask& task : schedule.to_poll) {
    if (ctx.affected.contains(task.instance_id)) continue;
    if (poll_groups.empty() ||
        poll_groups.back().instance_sql != task.instance_sql) {
      poll_groups.emplace_back();
      poll_groups.back().instance_sql = task.instance_sql;
      poll_groups.back().instance_id = task.instance_id;
      poll_groups.back().type_id = task.type_id;
    }
    poll_groups.back().queries.push_back(std::move(task.query));
  }

  // Consolidation (the paper's type-level grouping applied to polling):
  // instances of one type polling one single-table target share their
  // residuals' shape, so their polls merge into chunks of
  // `SELECT * FROM target WHERE (r1) OR (r2) OR ...` — one DBMS round
  // trip per chunk — and each returned row is matched back to its member
  // residuals in-process. Buckets with a single instance keep the exact
  // per-query path. Which instances end up affected is unchanged, and so
  // is polls_issued (the merge below reconstructs each member's serial
  // short-circuit count from the demux); only poll_round_trips (and, if
  // a merged statement fails, the blast radius of conservatism) differs.
  std::vector<MergedPoll> merged_polls;
  std::vector<size_t> classic_groups;
  if (env_.options->consolidate_polls && poll_groups.size() > 1) {
    std::vector<bool> consolidated(poll_groups.size(), false);
    std::map<std::tuple<uint64_t, std::string, std::string>,
             std::vector<size_t>>
        buckets;
    for (size_t g = 0; g < poll_groups.size(); ++g) {
      const PollGroup& group = poll_groups[g];
      const sql::TableRef* target = nullptr;
      bool mergeable = !group.queries.empty();
      for (const auto& query : group.queries) {
        if (query->from.size() != 1 || query->where == nullptr) {
          mergeable = false;
          break;
        }
        if (target == nullptr) {
          target = &query->from[0];
        } else if (!EqualsIgnoreCase(query->from[0].table, target->table) ||
                   !EqualsIgnoreCase(query->from[0].alias, target->alias)) {
          mergeable = false;
          break;
        }
      }
      if (!mergeable) continue;
      buckets[{group.type_id, AsciiToLower(target->table),
               AsciiToLower(target->alias)}]
          .push_back(g);
    }
    for (const auto& [bucket_key, bucket_groups] : buckets) {
      if (bucket_groups.size() < 2) continue;
      size_t chunk = env_.options->consolidated_poll_chunk == 0
                         ? bucket_groups.size()
                         : env_.options->consolidated_poll_chunk;
      for (size_t base = 0; base < bucket_groups.size(); base += chunk) {
        size_t end = std::min(base + chunk, bucket_groups.size());
        MergedPoll poll;
        poll.from = poll_groups[bucket_groups[base]].queries[0]->from[0];
        sql::ExpressionPtr disjunction;
        for (size_t j = base; j < end; ++j) {
          size_t g = bucket_groups[j];
          poll.groups.push_back(g);
          consolidated[g] = true;
          for (size_t q = 0; q < poll_groups[g].queries.size(); ++q) {
            poll.members.push_back({g, q});
            sql::ExpressionPtr clause =
                poll_groups[g].queries[q]->where->Clone();
            disjunction = disjunction == nullptr
                              ? std::move(clause)
                              : std::make_unique<sql::BinaryExpr>(
                                    sql::BinaryOp::kOr, std::move(disjunction),
                                    std::move(clause));
          }
        }
        auto statement = std::make_unique<sql::SelectStatement>();
        sql::SelectItem star;
        star.star = true;
        statement->items.push_back(std::move(star));
        statement->from.push_back(poll.from);
        statement->where = std::move(disjunction);
        poll.statement = std::move(statement);
        merged_polls.push_back(std::move(poll));
      }
    }
    for (size_t g = 0; g < poll_groups.size(); ++g) {
      if (!consolidated[g]) classic_groups.push_back(g);
    }
  } else {
    classic_groups.reserve(poll_groups.size());
    for (size_t g = 0; g < poll_groups.size(); ++g) classic_groups.push_back(g);
  }

  // Fan out: one worker task per classic instance (its polls run in
  // order and stop at the first hit or failure, like the serial loop) or
  // per merged statement (one round trip, then in-process demux).
  RunStageParallel(
      env_.pool, classic_groups.size() + merged_polls.size(), [&](size_t u) {
        if (u < classic_groups.size()) {
          PollGroup& group = poll_groups[classic_groups[u]];
          for (const auto& query : group.queries) {
            std::string poll_sql = sql::StatementToSql(*query);
            ++group.polls_issued;
            Result<db::QueryResult> result = env_.execute_poll(poll_sql);
            if (!result.ok()) {
              group.conservative = true;
              group.failure = result.status().ToString();
              return;
            }
            if (!result->rows.empty()) {
              group.poll_hit = true;
              return;
            }
          }
          return;
        }
        MergedPoll& poll = merged_polls[u - classic_groups.size()];
        std::string poll_sql = sql::StatementToSql(*poll.statement);
        Result<db::QueryResult> result = env_.execute_poll(poll_sql);
        if (!result.ok()) {
          poll.failed = true;
          poll.failure = result.status().ToString();
          return;
        }
        // Demultiplex: find each member group's FIRST satisfied query.
        // A later row can satisfy an earlier query of an already-hit
        // group, so a member is settled only once its group's best index
        // reaches it; when every group bottoms out at query 0 the
        // remaining rows can't change anything.
        size_t settled = 0;
        for (const db::Row& row : result->rows) {
          if (settled == poll.groups.size()) break;
          for (const MergedPoll::MemberRef& member : poll.members) {
            auto best_it = poll.hit_best.find(member.group);
            if (best_it != poll.hit_best.end() &&
                best_it->second <= member.query) {
              continue;
            }
            const auto& query = poll_groups[member.group].queries[member.query];
            if (RowSatisfies(*query->where, poll.from, result->columns, row)) {
              if (best_it == poll.hit_best.end()) {
                poll.hit_best.emplace(member.group, member.query);
              } else {
                best_it->second = member.query;
              }
              if (member.query == 0) ++settled;
            }
          }
        }
      });

  // Serial merge in deterministic order: classic groups first (in group
  // order), then merged polls (in bucket order).
  for (size_t g : classic_groups) {
    PollGroup& group = poll_groups[g];
    env_.stats->polls_issued += group.polls_issued;
    ctx.report.polls_issued += group.polls_issued;
    env_.cycle_matcher_stats->poll_round_trips += group.polls_issued;
    if (group.conservative) {
      // A failed poll must not leak staleness: invalidate conservatively.
      LogMessage(LogLevel::kWarning,
                 StrCat("polling query failed (", group.failure,
                        "); invalidating conservatively"));
      ctx.affected.insert(group.instance_id);
      ++env_.stats->conservative_invalidations;
      ++ctx.report.conservative_invalidations;
      continue;
    }
    if (group.poll_hit) {
      ++env_.stats->poll_hits;
      ctx.affected.insert(group.instance_id);
    }
  }
  for (MergedPoll& poll : merged_polls) {
    // polls_issued stays the LOGICAL member-poll count — what the serial
    // per-query loop would have issued — so StatsReport() is identical
    // at every consolidation setting and chunk size; the physical
    // statement count rides in MatcherStats as poll_round_trips.
    ++env_.cycle_matcher_stats->poll_round_trips;
    ++env_.cycle_matcher_stats->consolidated_polls;
    env_.cycle_matcher_stats->consolidated_members += poll.members.size();
    if (poll.failed) {
      // One failed round trip decides every member conservatively; each
      // member is charged one poll, exactly like a serial group whose
      // first poll fails.
      LogMessage(LogLevel::kWarning,
                 StrCat("consolidated polling query failed (", poll.failure,
                        "); invalidating ", poll.groups.size(),
                        " instances conservatively"));
      for (size_t g : poll.groups) {
        ++env_.stats->polls_issued;
        ++ctx.report.polls_issued;
        ctx.affected.insert(poll_groups[g].instance_id);
        ++env_.stats->conservative_invalidations;
        ++ctx.report.conservative_invalidations;
      }
      continue;
    }
    for (size_t g : poll.groups) {
      auto hit_it = poll.hit_best.find(g);
      // Serial equivalence: a hit group stops at its first satisfied
      // query (best + 1 polls); a miss group runs them all.
      uint64_t issued = hit_it != poll.hit_best.end()
                            ? hit_it->second + 1
                            : poll_groups[g].queries.size();
      env_.stats->polls_issued += issued;
      ctx.report.polls_issued += issued;
      if (hit_it != poll.hit_best.end()) {
        ++env_.stats->poll_hits;
        ctx.affected.insert(poll_groups[g].instance_id);
      }
    }
  }

  return Status::OK();
}

// ---------------------------------------------------------------------------
// DeliverStage
// ---------------------------------------------------------------------------

namespace {

/// A fully built eject message, ready for per-sink delivery.
struct Eject {
  PageId page = 0;
  std::string page_key;
  http::HttpRequest request;
};

/// Per-sink delivery counters, accumulated on the worker that owns the
/// sink and merged serially.
struct SinkTally {
  uint64_t sent = 0;
  uint64_t failures = 0;
  std::vector<std::string> warnings;
};

}  // namespace

Status DeliverStage::Run(CycleContext& ctx) {
  // ---- Generate invalidation messages, parallel phase. ----
  ctx.report.affected_instances = ctx.affected.size();

  // Serial: collect the deduplicated page list — instances by SQL text,
  // each one's pages by cache key, so eject and retirement order do not
  // depend on id assignment — and build each eject message, a normal
  // HTTP request addressed at the page, carrying the Cache-Control:
  // eject extension (Section 4.2.4). Every affected id is a live
  // instance's, so its text is readable until it retires below.
  const IdInterner& ids = env_.plane->ids();
  std::vector<QueryId> affected(ctx.affected.begin(), ctx.affected.end());
  std::sort(affected.begin(), affected.end(), [&](QueryId a, QueryId b) {
    return ids.queries.Text(a) < ids.queries.Text(b);
  });
  std::vector<Eject> ejects;
  std::unordered_set<PageId> pages_done;
  for (QueryId query : affected) {
    for (PageId page : env_.map->PageIdsOfQuery(query)) {
      if (!pages_done.insert(page).second) continue;
      Eject eject;
      eject.page = page;
      eject.page_key = ids.pages.Text(page);
      Result<http::PageId> id = http::PageId::FromCacheKey(eject.page_key);
      if (id.ok()) {
        eject.request.method = http::Method::kGet;
        eject.request.host = id->host();
        eject.request.path = id->path();
        eject.request.get_params = id->get_params();
        eject.request.post_params = id->post_params();
        eject.request.cookies = id->cookie_params();
      } else {
        LogMessage(LogLevel::kWarning,
                   StrCat("unparseable cache key '", eject.page_key,
                          "': ", id.status().ToString()));
      }
      http::CacheControl cc;
      cc.eject = true;
      eject.request.headers.Set("Cache-Control", cc.ToHeaderValue());
      ejects.push_back(std::move(eject));
    }
  }

  // Fan out across sinks: each sink is owned by one worker task, which
  // delivers every message in order (preserving the per-sink FIFO a
  // ReliableDeliveryQueue depends on) — sinks never see concurrent calls.
  const std::vector<InvalidationSink*>& sinks = *env_.sinks;
  std::vector<SinkTally> tallies(sinks.size());
  RunStageParallel(env_.pool, sinks.size(), [&](size_t s) {
    InvalidationSink* sink = sinks[s];
    SinkTally& tally = tallies[s];
    for (const Eject& eject : ejects) {
      Status sent = sink->SendInvalidation(eject.request, eject.page_key);
      ++tally.sent;
      if (!sent.ok()) {
        // A sink that rejects a message owns no retry state — without a
        // ReliableDeliveryQueue in front, this page may stay stale in
        // that cache. Surface it loudly (at the merge).
        ++tally.failures;
        tally.warnings.push_back(
            StrCat("invalidation delivery failed for '", eject.page_key,
                   "': ", sent.ToString()));
      }
    }
  });
  for (const SinkTally& tally : tallies) {
    env_.stats->messages_sent += tally.sent;
    env_.stats->send_failures += tally.failures;
    for (const std::string& warning : tally.warnings) {
      LogMessage(LogLevel::kWarning, warning);
    }
  }

  // Serial post-pass: ejected pages leave the map (retiring their rows
  // for every instance that fed them), and instances left without pages
  // are unregistered.
  for (const Eject& eject : ejects) {
    env_.map->RemovePage(eject.page);
    ++ctx.report.pages_invalidated;
    ++env_.stats->pages_invalidated;
  }
  for (QueryId query : affected) {
    if (env_.map->NumPagesForQuery(query) == 0) {
      env_.plane->RetireInstance(query);
    }
  }

  return Status::OK();
}

}  // namespace cacheportal::invalidator
