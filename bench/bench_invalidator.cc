// Invalidator throughput, backing Section 2.4's claim that the
// invalidator is not a bottleneck: cost of one synchronization cycle as
// the number of cached query instances and the update-batch size grow,
// plus the effect of join indexes on DBMS polling traffic.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <atomic>
#include <memory>
#include <thread>

#include "common/clock.h"
#include "common/env.h"
#include "common/strings.h"
#include "db/database.h"
#include "invalidator/durability.h"
#include "invalidator/invalidator.h"
#include "sniffer/qiurl_map.h"

namespace {

using namespace cacheportal;

/// A self-contained world: the Example 4.1 schema, `instances` cached
/// query instances (half single-table, half joins), ready for cycles.
struct World {
  World(int instances, bool with_join_index,
        invalidator::InvalidatorOptions options = {}, int mileage_rows = 100)
      : db(&clock) {
    db.CreateTable(db::TableSchema("Car",
                                   {{"maker", db::ColumnType::kString},
                                    {"model", db::ColumnType::kString},
                                    {"price", db::ColumnType::kInt}}))
        .ok();
    db.CreateTable(db::TableSchema("Mileage",
                                   {{"model", db::ColumnType::kString},
                                    {"EPA", db::ColumnType::kInt}}))
        .ok();
    for (int i = 0; i < mileage_rows; ++i) {
      db.ExecuteSql(
            StrCat("INSERT INTO Mileage VALUES ('m", i, "', ", i % 50, ")"))
          .value();
    }
    invalidator =
        std::make_unique<invalidator::Invalidator>(&db, &map, &clock,
                                                   options);
    if (with_join_index) {
      invalidator->CreateJoinIndex("Mileage", "model").ok();
    }
    invalidator->RunCycle().value();  // Drain seeding.
    // All join instances with thresholds far above the inserted prices:
    // every cycle, every instance needs its join side checked (polling or
    // join index), and the empty poll keeps instances registered.
    num_instances = instances;
    RecacheMissing();
  }

  /// (Re-)caches every instance whose pages left the map — steady-state
  /// refill for modes that invalidate instances each cycle (conservative
  /// and emergency rungs).
  void RecacheMissing() {
    for (int i = 0; i < num_instances; ++i) {
      std::string sql =
          StrCat("SELECT Car.model FROM Car, Mileage WHERE Car.model "
                 "= Mileage.model AND Car.price < ",
                 10000000 + i);
      if (!map.PagesForQuery(sql).empty()) continue;
      map.Add(sql, StrCat("shop/p", i, "?##"), "/r", 0);
    }
  }

  void AddUpdates(int n) {
    for (int i = 0; i < n; ++i) {
      // Models outside Mileage: the price predicate passes, the join
      // must be decided, and the verdict is "no partner" (no churn).
      db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('mk', 'zz", i, "', ",
                           500000 + i, ")"))
          .value();
    }
  }

  ManualClock clock;
  db::Database db;
  sniffer::QiUrlMap map;
  std::unique_ptr<invalidator::Invalidator> invalidator;
  int num_instances = 0;
};

/// A point-lookup world for the type-compiled matcher: `instances`
/// single-table instances of one type, each with a distinct bind value.
/// Every cycle inserts tuples matching none of them, so the interpreted
/// path substitutes every instance's WHERE AST per tuple while the
/// bind-value index answers each tuple with one hash probe — the
/// O(instances) vs O(1) contrast.
struct EqWorld {
  /// mode 0 = interpreted: the template is written `NOT (maker <> ...)`,
  /// which the matcher cannot anchor, with the exact tier off, so the
  /// type lands on the interpret tier and every instance is analyzed;
  /// 2 = the default options on `maker = ...`: columnar batch probes +
  /// fast-path instance skipping, the type on the exact tier; 3 = mode 2
  /// with the exact tier off. `register_now` false leaves the instances
  /// in the map only, for the first cycle to register.
  EqWorld(int instances, int mode, bool register_now = true)
      : db(&clock), unanchored(mode == 0) {
    db.CreateTable(db::TableSchema("Car",
                                   {{"maker", db::ColumnType::kString},
                                    {"model", db::ColumnType::kString},
                                    {"price", db::ColumnType::kInt}}))
        .ok();
    invalidator::InvalidatorOptions options;
    options.exact_strategy = mode == 2;
    invalidator =
        std::make_unique<invalidator::Invalidator>(&db, &map, &clock,
                                                   options);
    for (int i = 0; i < instances; ++i) map.Add(Sql(i), Page(i), "/r", 0);
    if (register_now) invalidator->RunCycle().value();
  }

  std::string Sql(int i) const {
    return unanchored
               ? StrCat("SELECT model FROM Car WHERE NOT (maker <> 'maker", i,
                        "')")
               : StrCat("SELECT model FROM Car WHERE maker = 'maker", i, "'");
  }
  static std::string Page(int i) { return StrCat("shop/p", i, "?##"); }

  void AddUpdates(int n) {
    for (int i = 0; i < n; ++i) {
      db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('nobody', 'zz", i,
                           "', ", 500000 + i, ")"))
          .value();
    }
  }

  /// One cycle with updates, untimed: what a timed loop must not charge
  /// to its first iteration.
  void WarmUp() {
    AddUpdates(4);
    invalidator->RunCycle().value();
  }

  ManualClock clock;
  db::Database db;
  const bool unanchored;
  sniffer::QiUrlMap map;
  std::unique_ptr<invalidator::Invalidator> invalidator;
};

/// Full cycle cost as the instance count grows, across the EqWorld modes
/// (range(1)): 0 the unanchored template, interpreted per-instance AST
/// substitution; 2 the default options (columnar batch evaluator:
/// whole-column probes + fast-path instance skipping, exact tier on);
/// 3 mode 2 with the exact tier off. Updates match no instance, so
/// instances stay registered and the measurement is steady-state: one
/// untimed cycle with updates runs first (BM_FirstCycleVsInstances times
/// the cold one). The matcher counters are per cycle. The 10^6-instance
/// point runs only the indexed modes — the interpreted path is quadratic
/// there.
void BM_CycleVsInstances(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(1));
  EqWorld world(static_cast<int>(state.range(0)), mode);
  if (mode == 0) {
    for (const auto& [type_id, decision] :
         world.invalidator->metadata().TierAssignments()) {
      if (decision.tier != invalidator::StrategyTier::kInterpret) {
        state.SkipWithError("mode 0's type did not land on interpret");
        return;
      }
    }
  }
  world.WarmUp();
  const invalidator::MatcherStats warm = world.invalidator->matcher_stats();
  for (auto _ : state) {
    state.PauseTiming();
    world.AddUpdates(4);
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  const invalidator::MatcherStats ms = world.invalidator->matcher_stats();
  const auto per_cycle = [](uint64_t total, uint64_t before) {
    return benchmark::Counter(static_cast<double>(total - before),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["tuples-excluded"] =
      per_cycle(ms.tuples_excluded, warm.tuples_excluded);
  state.counters["short-circuits"] = per_cycle(
      ms.instances_short_circuited, warm.instances_short_circuited);
  state.counters["fast-path"] =
      per_cycle(ms.fast_path_instances, warm.fast_path_instances);
  state.counters["batch-probes"] =
      per_cycle(ms.batch_probes, warm.batch_probes);
}
BENCHMARK(BM_CycleVsInstances)
    ->ArgsProduct({{100, 1000, 10000, 100000}, {0, 2}})
    ->Args({1000000, 2})
    ->Args({100000, 3})
    ->Args({1000000, 3})
    ->ArgNames({"instances", "mode"})
    ->Unit(benchmark::kMillisecond);

/// The cold first cycle on default options, as its own point: it
/// registers every instance from the QI/URL map (parse, template, bind
/// index) and then analyzes 4 updates.
void BM_FirstCycleVsInstances(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto world = std::make_unique<EqWorld>(static_cast<int>(state.range(0)),
                                           /*mode=*/2,
                                           /*register_now=*/false);
    world->AddUpdates(4);
    state.ResumeTiming();
    auto report = world->invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
    state.PauseTiming();
    world.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FirstCycleVsInstances)
    ->RangeMultiplier(10)
    ->Range(1000, 1000000)
    ->ArgName("instances")
    ->Unit(benchmark::kMillisecond);

/// Steady-state cycles on default options while the cache evicts: before
/// each cycle `range(1)` pages leave the map (their queries orphaned) and
/// the pages evicted the cycle before come back (their queries register
/// again). The cycle retires the orphans from the map's feed, so its cost
/// follows the evictions, not the instance count.
void BM_CycleWithEvictions(benchmark::State& state) {
  const int instances = static_cast<int>(state.range(0));
  const int evictions = static_cast<int>(state.range(1));
  EqWorld world(instances, /*mode=*/2);
  world.WarmUp();
  int next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int k = 0; k < evictions; ++k) {
      int back = (next + instances - evictions + k) % instances;
      int out = (next + k) % instances;
      world.map.Add(world.Sql(back), EqWorld::Page(back), "/r", 0);
      world.map.RemovePage(EqWorld::Page(out));
    }
    next = (next + evictions) % instances;
    world.AddUpdates(4);
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["instances"] =
      static_cast<double>(world.invalidator->metadata().NumInstances());
}
BENCHMARK(BM_CycleWithEvictions)
    ->ArgsProduct({{1000, 10000, 100000, 1000000}, {64}})
    ->ArgNames({"instances", "evictions"})
    ->Unit(benchmark::kMillisecond);

/// Residual-poll consolidation: `range(0)` join instances of one type,
/// each needing its join side decided every cycle. Consolidation off
/// (range(1)=0) issues one polling query per instance; on (range(1)=1)
/// the per-type disjunctions cut DBMS round trips to
/// ceil(instances/chunk) with identical verdicts.
void BM_ConsolidatedPolls(benchmark::State& state) {
  invalidator::InvalidatorOptions options;
  options.consolidate_polls = state.range(1) != 0;
  World world(static_cast<int>(state.range(0)), false, options);
  for (auto _ : state) {
    state.PauseTiming();
    world.AddUpdates(1);
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  // polls_issued counts LOGICAL member polls and is identical in both
  // modes by design; the round-trip counter is what consolidation cuts.
  state.counters["round-trips/cycle"] =
      static_cast<double>(world.invalidator->matcher_stats().poll_round_trips) /
      static_cast<double>(std::max<uint64_t>(1, world.invalidator->stats().cycles));
}
BENCHMARK(BM_ConsolidatedPolls)
    ->ArgsProduct({{16, 64, 256}, {0, 1}})
    ->ArgNames({"instances", "consolidated"})
    ->Unit(benchmark::kMillisecond);

/// Browse's heavy join page, `SmallT.grp = LargeT.grp AND SmallT.grp =
/// $1`, with one instance per group (range(0)) and one LargeT insert per
/// cycle. LargeT's anchor is derived through the join term from SmallT's,
/// so only the instance of the tuple's group is a candidate: polls per
/// update stay at 1 as the instance count grows (every instance was one
/// before). Inserts go to even groups, which have no SmallT row, so each
/// poll comes back empty and every instance stays registered.
void BM_JoinClosureCycle(benchmark::State& state) {
  const int instances = static_cast<int>(state.range(0));
  ManualClock clock;
  db::Database db(&clock);
  for (const char* table : {"SmallT", "LargeT"}) {
    db.CreateTable(db::TableSchema(table, {{"id", db::ColumnType::kInt},
                                           {"grp", db::ColumnType::kInt},
                                           {"val", db::ColumnType::kInt}}))
        .ok();
    db.CreateIndex(table, "grp").ok();
  }
  int next_id = 0;
  for (int g = 0; g < instances; ++g) {
    if (g % 2 == 1) {
      db.ExecuteSql(StrCat("INSERT INTO SmallT VALUES (", next_id++, ", ", g,
                           ", 1)"))
          .value();
    }
    db.ExecuteSql(StrCat("INSERT INTO LargeT VALUES (", next_id++, ", ", g,
                         ", 1)"))
        .value();
  }
  sniffer::QiUrlMap map;
  invalidator::Invalidator inv(&db, &map, &clock, {});
  for (int g = 0; g < instances; ++g) {
    map.Add(StrCat("SELECT COUNT(*) AS pairs, MAX(LargeT.val) AS best FROM "
                   "SmallT, LargeT WHERE SmallT.grp = LargeT.grp AND "
                   "SmallT.grp = ",
                   g),
            StrCat("shop/p", g, "?##"), "/r", 0);
  }
  int next_group = 0;
  auto insert = [&] {
    db.ExecuteSql(StrCat("INSERT INTO LargeT VALUES (", next_id++, ", ",
                         next_group, ", 2)"))
        .value();
    next_group = (next_group + 2) % instances;
  };
  insert();
  inv.RunCycle().value();  // Registers every instance, untimed.
  const uint64_t polls_before = inv.stats().polls_issued;
  const uint64_t trips_before = inv.matcher_stats().poll_round_trips;
  for (auto _ : state) {
    state.PauseTiming();
    insert();
    state.ResumeTiming();
    auto report = inv.RunCycle();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  const double cycles = static_cast<double>(state.iterations());
  state.counters["polls/update"] =
      static_cast<double>(inv.stats().polls_issued - polls_before) / cycles;
  state.counters["round-trips/cycle"] =
      static_cast<double>(inv.matcher_stats().poll_round_trips -
                          trips_before) /
      cycles;
  state.counters["instances"] =
      static_cast<double>(inv.metadata().NumInstances());
}
BENCHMARK(BM_JoinClosureCycle)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->ArgName("instances")
    ->Unit(benchmark::kMillisecond);

/// Delta-join decomposition: `instances` cached heavy-page instances
/// (`SmallT.grp = LargeT.grp AND SmallT.grp = g`, one per group) and, each
/// cycle, a batch that changes both tables. Cycle k inserts a SmallT and
/// a LargeT row into group k, giving its page a first join pair (a poll
/// hit), and deletes the two rows cycle k - 1 inserted, taking away the
/// only pair of group k - 1 (neither side's poll sees it; the in-process
/// pair term does). Two pages are ejected per cycle at every instance
/// count. Ejected pages are re-cached untimed, so the cycle pays for
/// re-registering them: the multi-table guard this replaced ejected, and
/// re-registered, every instance each cycle.
void BM_TwoTableBatchCycle(benchmark::State& state) {
  const int instances = static_cast<int>(state.range(0));
  ManualClock clock;
  db::Database db(&clock);
  for (const char* table : {"SmallT", "LargeT"}) {
    db.CreateTable(db::TableSchema(table, {{"id", db::ColumnType::kInt},
                                           {"grp", db::ColumnType::kInt},
                                           {"val", db::ColumnType::kInt}}))
        .ok();
    db.CreateIndex(table, "grp").ok();
  }
  sniffer::QiUrlMap map;
  invalidator::Invalidator inv(&db, &map, &clock, {});
  std::vector<std::string> sqls;
  for (int g = 0; g < instances; ++g) {
    sqls.push_back(
        StrCat("SELECT COUNT(*) AS pairs, MAX(LargeT.val) AS best FROM "
               "SmallT, LargeT WHERE SmallT.grp = LargeT.grp AND "
               "SmallT.grp = ",
               g));
  }
  auto recache_missing = [&] {
    for (int g = 0; g < instances; ++g) {
      if (map.NumPagesForQuery(sqls[g]) == 0) {
        map.Add(sqls[g], StrCat("shop/p", g, "?##"), "/r", 0);
      }
    }
  };
  int cycle = 0;
  auto batch = [&] {
    const int group = cycle % instances;
    for (const char* table : {"SmallT", "LargeT"}) {
      if (cycle > 0) {
        db.ExecuteSql(StrCat("DELETE FROM ", table, " WHERE id = ", cycle - 1))
            .value();
      }
      db.ExecuteSql(StrCat("INSERT INTO ", table, " VALUES (", cycle, ", ",
                           group, ", 1)"))
          .value();
    }
    ++cycle;
  };
  recache_missing();
  inv.RunCycle().value();  // Registers every instance, untimed.
  batch();
  inv.RunCycle().value();  // The first batch has no deletes.
  const invalidator::InvalidatorStats before = inv.stats();
  const invalidator::MatcherStats matcher_before = inv.matcher_stats();
  for (auto _ : state) {
    state.PauseTiming();
    recache_missing();
    batch();
    state.ResumeTiming();
    auto report = inv.RunCycle();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  const invalidator::InvalidatorStats& after = inv.stats();
  const invalidator::MatcherStats matcher = inv.matcher_stats();
  const double cycles = static_cast<double>(state.iterations());
  state.counters["ejects/cycle"] =
      static_cast<double>(after.pages_invalidated - before.pages_invalidated) /
      cycles;
  state.counters["polls/update"] =
      static_cast<double>(after.polls_issued - before.polls_issued) /
      static_cast<double>(after.updates_processed - before.updates_processed);
  state.counters["round-trips/cycle"] =
      static_cast<double>(matcher.poll_round_trips -
                          matcher_before.poll_round_trips) /
      cycles;
  state.counters["delta-join-pairs/cycle"] =
      static_cast<double>(matcher.delta_join_pairs -
                          matcher_before.delta_join_pairs) /
      cycles;
  state.counters["delta-join-hits/cycle"] =
      static_cast<double>(matcher.delta_join_hits -
                          matcher_before.delta_join_hits) /
      cycles;
}
BENCHMARK(BM_TwoTableBatchCycle)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->ArgName("instances")
    ->Unit(benchmark::kMillisecond);

/// Same with join indexes: polls answered inside the invalidator.
void BM_CycleVsInstancesWithIndex(benchmark::State& state) {
  World world(static_cast<int>(state.range(0)), true);
  for (auto _ : state) {
    state.PauseTiming();
    world.AddUpdates(10);
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["polls/cycle"] = static_cast<double>(
      world.invalidator->stats().polls_issued /
      std::max<uint64_t>(1, world.invalidator->stats().cycles));
  state.counters["idx-answers/cycle"] = static_cast<double>(
      world.invalidator->stats().polls_answered_by_index /
      std::max<uint64_t>(1, world.invalidator->stats().cycles));
}
BENCHMARK(BM_CycleVsInstancesWithIndex)->Arg(10)->Arg(100)->Arg(1000);

/// A world where the false-eject rate has a by-construction ground
/// truth: `instances` exact-eligible range instances (`SELECT maker,
/// model ... WHERE price < T`) over a Car table with a `stock` column,
/// and every cycle's updates are in-place UPDATEs touching only
/// `stock` — a column no instance's result reads and no WHERE mentions.
/// No cached page's bytes can change, so every eject is a false eject.
struct StrategyWorld {
  StrategyWorld(int instances, bool exact) : db(&clock) {
    db.CreateTable(db::TableSchema("Car",
                                   {{"maker", db::ColumnType::kString},
                                    {"model", db::ColumnType::kString},
                                    {"price", db::ColumnType::kInt},
                                    {"stock", db::ColumnType::kInt}}))
        .ok();
    for (int i = 0; i < 200; ++i) {
      // All prices below every instance threshold: each updated row's
      // WHERE verdict is TRUE, so the conservative walk ejects.
      db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('mk', 'm", i, "', ",
                           (i % 200) * 100, ", 5)"))
          .value();
    }
    invalidator::InvalidatorOptions options;
    options.exact_strategy = exact;
    invalidator =
        std::make_unique<invalidator::Invalidator>(&db, &map, &clock,
                                                   options);
    invalidator->RunCycle().value();  // Drain seeding.
    num_instances = instances;
    RecacheMissing();
    invalidator->RunCycle().value();  // Register instances untimed.
  }

  void RecacheMissing() {
    for (int i = 0; i < num_instances; ++i) {
      std::string sql =
          StrCat("SELECT maker, model FROM Car WHERE price < ", 20000 + i);
      if (!map.PagesForQuery(sql).empty()) continue;
      map.Add(sql, StrCat("shop/p", i, "?##"), "/r", 0);
    }
  }

  void Mutate(int n) {
    for (int i = 0; i < n; ++i) {
      db.ExecuteSql(StrCat("UPDATE Car SET stock = ", next_stock++,
                           " WHERE model = 'm", i % 200, "'"))
          .value();
    }
  }

  ManualClock clock;
  db::Database db;
  sniffer::QiUrlMap map;
  std::unique_ptr<invalidator::Invalidator> invalidator;
  int num_instances = 0;
  int next_stock = 100;
};

/// Cycle cost and eject precision, exact tier (range(1)=1) versus the
/// conservative impact walk (range(1)=0), on the irrelevant-update
/// workload above. The counters carry the tentpole's claim: the
/// conservative walk ejects ~every instance every cycle (all false),
/// the exact tier ejects none, and neither path issues DBMS polls.
void BM_CycleVsStrategy(benchmark::State& state) {
  StrategyWorld world(static_cast<int>(state.range(0)),
                      state.range(1) == 1);
  uint64_t ejects = 0;
  for (auto _ : state) {
    state.PauseTiming();
    world.RecacheMissing();  // Refill what the previous cycle ejected.
    world.Mutate(8);
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle().value();
    ejects += report.affected_instances;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  double decisions =
      static_cast<double>(state.iterations()) * state.range(0);
  state.counters["false-ejects"] = static_cast<double>(ejects);
  state.counters["false-eject-rate"] =
      decisions > 0 ? static_cast<double>(ejects) / decisions : 0;
  state.counters["polls"] =
      static_cast<double>(world.invalidator->stats().polls_issued);
}
BENCHMARK(BM_CycleVsStrategy)
    ->ArgsProduct({{100, 1000}, {0, 1}})
    ->ArgNames({"instances", "exact"})
    ->Unit(benchmark::kMillisecond);

/// Cycle cost versus update-batch size at a fixed 100 instances.
void BM_CycleVsBatchSize(benchmark::State& state) {
  World world(100, false);
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    world.AddUpdates(batch);
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_CycleVsBatchSize)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

/// Parallel-pipeline scaling: a poll-heavy cycle (no join index, so every
/// join instance's poll goes to the DBMS and scans a 2000-row Mileage)
/// swept across worker counts. UseRealTime is required: pooled work runs
/// off the benchmark thread, so its CPU-time clock would miss it.
void BM_CycleVsWorkers(benchmark::State& state) {
  invalidator::InvalidatorOptions options;
  options.worker_threads = static_cast<size_t>(state.range(0));
  World world(200, false, options, /*mileage_rows=*/2000);
  for (auto _ : state) {
    state.PauseTiming();
    world.AddUpdates(10);
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * 200);
  state.counters["polls/cycle"] = static_cast<double>(
      world.invalidator->stats().polls_issued /
      std::max<uint64_t>(1, world.invalidator->stats().cycles));
}
BENCHMARK(BM_CycleVsWorkers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// Overload sweep: cycle cost across (update rate × degradation mode).
/// range(0) is the update-batch size per cycle; range(1) pins the ladder
/// to one rung by watermark choice (0 = controller off, 1 = economy,
/// 2 = conservative, 3 = emergency). Counters report what each rung
/// trades: backlog age observed at the cycle (staleness pressure) and
/// the over-invalidation rate (conservative + emergency decisions per
/// consumed update).
void BM_CycleVsOverloadMode(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  invalidator::InvalidatorOptions options;
  if (mode > 0) {
    auto& ov = options.overload;
    ov.enabled = true;
    ov.min_dwell = 0;
    ov.staleness_bound = 3600 * kMicrosPerSecond;  // Depth drives mode.
    // Pin the requested rung: the thresholds at or below it are 1 (any
    // backlog qualifies), the ones above it unreachable.
    ov.economy_backlog = 1;
    ov.conservative_backlog = mode >= 2 ? 1 : uint64_t{1} << 40;
    ov.emergency_backlog = mode >= 3 ? 1 : uint64_t{1} << 40;
    ov.economy_poll_budget = 4;
  }
  World world(200, false, options);
  for (auto _ : state) {
    state.PauseTiming();
    world.RecacheMissing();  // Refill what the degraded rungs flushed.
    world.AddUpdates(batch);
    world.clock.Advance(kMicrosPerSecond);
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
  }
  const auto& stats = world.invalidator->stats();
  const uint64_t cycles = std::max<uint64_t>(1, stats.cycles);
  const uint64_t updates = std::max<uint64_t>(1, stats.updates_processed);
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["polls/cycle"] =
      static_cast<double>(stats.polls_issued / cycles);
  state.counters["over-inval-rate"] =
      static_cast<double>(stats.conservative_invalidations) /
      static_cast<double>(updates);
  if (world.invalidator->overload_controller() != nullptr) {
    state.counters["max-backlog-age-us"] = static_cast<double>(
        world.invalidator->overload_controller()->stats().max_backlog_age);
  }
}
BENCHMARK(BM_CycleVsOverloadMode)
    ->ArgsProduct({{16, 64, 256}, {0, 1, 2, 3}})
    ->ArgNames({"updates", "mode"});

/// A many-type world for the metadata plane: `kTables` one-column
/// tables, each contributing one query type (`a < $1`), instances spread
/// round-robin. Updates never match a predicate, so instances stay
/// registered and cycles are steady-state impact analysis over every
/// type.
struct ManyTypeWorld {
  static constexpr int kTables = 16;

  ManyTypeWorld(int instances, size_t workers) : db(&clock) {
    for (int t = 0; t < kTables; ++t) {
      db.CreateTable(
            db::TableSchema(StrCat("T", t), {{"a", db::ColumnType::kInt}}))
          .ok();
    }
    invalidator::InvalidatorOptions options;
    options.worker_threads = workers;
    invalidator =
        std::make_unique<invalidator::Invalidator>(&db, &map, &clock,
                                                   options);
    for (int i = 0; i < instances; ++i) {
      map.Add(InstanceSql(i), StrCat("shop/p", i, "?##"), "/r", 0);
    }
    invalidator->RunCycle().value();  // Register instances untimed.
  }

  /// Thresholds stay far below the inserted values, so no instance is
  /// ever invalidated.
  static std::string InstanceSql(int i) {
    return StrCat("SELECT a FROM T", i % kTables, " WHERE a < ",
                  1000000 + i);
  }

  void AddUpdates(int n) {
    for (int i = 0; i < n; ++i) {
      db.ExecuteSql(
            StrCat("INSERT INTO T", i % kTables, " VALUES (", 5000000 + i,
                   ")"))
          .value();
    }
  }

  ManualClock clock;
  db::Database db;
  sniffer::QiUrlMap map;
  std::unique_ptr<invalidator::Invalidator> invalidator;
};

/// Registration throughput while a cycle churns — the cost of the
/// metadata plane's one lock for a caller that registers off the cycle
/// thread. A background thread runs update + cycle back to back; the
/// timed thread streams QI/URL-map adds and registrations over a bounded
/// rotating SQL set (after the first rotation every call is the known-SQL
/// fast path: one lookup under the plane lock), waiting whenever a cycle
/// phase holds that lock.
void BM_RegistrationDuringCycle(benchmark::State& state) {
  ManyTypeWorld world(1000, /*workers=*/2);
  std::atomic<bool> stop{false};
  std::thread cycler([&world, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      world.AddUpdates(4);
      world.invalidator->RunCycle().value();
    }
  });
  constexpr int kRotation = 4096;
  constexpr int kOffset = 100000;  // Disjoint from the seeded instances.
  int64_t i = 0;
  for (auto _ : state) {
    const int slot = static_cast<int>(i % kRotation);
    const std::string sql = ManyTypeWorld::InstanceSql(kOffset + slot);
    world.map.Add(sql, StrCat("reg/p", slot, "?##"), "/r", 0);
    Status status = world.invalidator->RegisterInstance(sql);
    benchmark::DoNotOptimize(status);
    ++i;
  }
  stop.store(true, std::memory_order_relaxed);
  cycler.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistrationDuringCycle)->UseRealTime();

/// Restart cost versus registered instances, with and without a
/// snapshot covering them. The timed region is DurabilityCoordinator
/// Open(): snapshot load + WAL-suffix replay — the time until the
/// process can serve again (the registry itself rebuilds lazily, inside
/// the first cycle). With snapshot=1 the WAL suffix is 3 commits
/// regardless of instance count; with snapshot=0 the suffix IS the full
/// registration history, so Open degrades to O(total state) — the
/// contrast the snapshot machinery exists to buy.
void BM_RecoveryVsInstances(benchmark::State& state) {
  const int instances = static_cast<int>(state.range(0));
  const bool snapshot = state.range(1) != 0;
  ManualClock clock;
  db::Database db(&clock);
  db.CreateTable(db::TableSchema("Car",
                                 {{"maker", db::ColumnType::kString},
                                  {"model", db::ColumnType::kString},
                                  {"price", db::ColumnType::kInt}}))
      .ok();
  sniffer::QiUrlMap map;
  SimEnv env;
  invalidator::DurabilityOptions dopts;
  dopts.dir = "meta";
  dopts.env = &env;
  dopts.snapshot_every_cycles = 0;

  // The doomed process: register everything, journal it, maybe snapshot,
  // then commit a short post-snapshot suffix.
  {
    invalidator::Invalidator inv(&db, &map, &clock);
    invalidator::DurabilityCoordinator coord(&inv, dopts);
    if (!coord.Open().ok()) state.SkipWithError("setup open failed");
    for (int i = 0; i < instances; ++i) {
      map.Add(StrCat("SELECT model FROM Car WHERE maker = 'maker", i, "'"),
              StrCat("shop/p", i, "?##"), "/r", 0);
    }
    coord.RunCycle().value();
    if (snapshot && !coord.Snapshot().ok()) {
      state.SkipWithError("setup snapshot failed");
    }
    for (int r = 0; r < 3; ++r) {
      db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('nobody', 'zz", r,
                           "', ", 500000 + r, ")"))
          .value();
      coord.RunCycle().value();
    }
  }

  uint64_t replayed = 0;
  uint64_t staged = 0;
  for (auto _ : state) {
    state.PauseTiming();
    env.Recover();  // Power-cut the previous incarnation's handles.
    invalidator::Invalidator inv(&db, &map, &clock);
    invalidator::DurabilityCoordinator coord(&inv, dopts);
    state.ResumeTiming();
    if (!coord.Open().ok()) state.SkipWithError("recovery open failed");
    state.PauseTiming();
    replayed = coord.store().stats().records_recovered;
    staged = inv.pending_restore_ops();
    inv.ApplyPendingRestore();  // The lazy drain, outside the timing.
    benchmark::DoNotOptimize(inv.metadata().NumInstances());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * instances);
  state.counters["wal-records-replayed"] = static_cast<double>(replayed);
  state.counters["staged-restore-ops"] = static_cast<double>(staged);
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    state.counters["maxrss-mb"] =
        static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
}
BENCHMARK(BM_RecoveryVsInstances)
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1}})
    ->ArgNames({"instances", "snapshot"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
