#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/env.h"
#include "common/fault_injector.h"
#include "common/strings.h"
#include "core/cache_portal.h"
#include "core/reliable_delivery.h"
#include "db/database.h"
#include "invalidator/durability.h"
#include "invalidator/invalidator.h"
#include "sniffer/qiurl_map.h"

namespace cacheportal::invalidator {
namespace {

class RecordingSink : public InvalidationSink {
 public:
  Status SendInvalidation(const http::HttpRequest&,
                          const std::string& cache_key) override {
    invalidated.insert(cache_key);
    return Status::OK();
  }
  std::set<std::string> invalidated;
};

/// The site the invalidator process attaches to. It lives OUTSIDE the
/// simulated filesystem: a crash kills the invalidator, not the
/// database, exactly like production.
struct Site {
  ManualClock clock;
  db::Database db;
  sniffer::QiUrlMap map;

  Site() : db(&clock) {
    EXPECT_TRUE(
        db.CreateTable(db::TableSchema(
                           "Car", {{"maker", db::ColumnType::kString},
                                   {"model", db::ColumnType::kString},
                                   {"price", db::ColumnType::kInt}}))
            .ok());
    db.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 18000)").value();
    db.ExecuteSql("INSERT INTO Car VALUES ('Toyota', 'Camry', 26000)").value();
  }
};

struct IncarnationOptions {
  size_t workers = 1;
  bool sync_every_commit = true;
  uint64_t snapshot_every_cycles = 3;
};

/// One process lifetime: an Invalidator plus its DurabilityCoordinator
/// over the (shared, crashable) SimEnv directory "meta".
struct Incarnation {
  RecordingSink sink;
  std::unique_ptr<Invalidator> inv;
  std::unique_ptr<DurabilityCoordinator> coord;

  Incarnation(Site* site, SimEnv* env, IncarnationOptions opts = {}) {
    InvalidatorOptions iopts;
    iopts.worker_threads = opts.workers;
    inv = std::make_unique<Invalidator>(&site->db, &site->map, &site->clock,
                                        iopts);
    inv->AddSink(&sink);
    DurabilityOptions dopts;
    dopts.dir = "meta";
    dopts.env = env;
    dopts.sync_every_commit = opts.sync_every_commit;
    dopts.snapshot_every_cycles = opts.snapshot_every_cycles;
    coord = std::make_unique<DurabilityCoordinator>(inv.get(), dopts);
  }
};

/// Drops the coordinator's "  storage: ..." line (its counters honestly
/// differ between a process that recovered and one that never died).
std::string StripStorage(const std::string& report) {
  std::string out;
  for (std::string_view line : StrSplit(report, '\n')) {
    if (line.rfind("  storage:", 0) == 0) continue;
    out.append(line);
    out.push_back('\n');
  }
  if (!out.empty() && report.back() != '\n') out.pop_back();
  return out;
}

constexpr int kRounds = 6;

/// Deterministic per-round site activity. Every insert under 20000
/// touches the "cheap" page; Honda rows touch the "honda" page.
void DoUpdates(Site* site, int round) {
  const char* makers[] = {"Toyota", "Honda", "Ford", "Kia"};
  site->db
      .ExecuteSql(StrCat("INSERT INTO Car VALUES ('", makers[round % 4],
                         "', 'M", round, "', ", 4000 + round * 3100, ")"))
      .value();
  if (round % 2 == 1) {
    site->db
        .ExecuteSql(
            StrCat("DELETE FROM Car WHERE price > ", 26000 - round * 1000))
        .value();
  }
}

/// (Re-)adds the QI/URL rows — ejected pages re-enter the cache between
/// cycles, as a live site's request traffic would re-populate them.
void DoMapAdds(Site* site) {
  site->map.Add("SELECT * FROM Car WHERE price < 20000", "shop/cheap?##",
                "/r", 0);
  site->map.Add("SELECT * FROM Car WHERE maker = 'Honda'", "shop/honda?##",
                "/r", 0);
}

/// Runs rounds [start, kRounds). Returns the index of the round whose
/// cycle failed (the injected crash), or kRounds when all committed.
/// `skip_first_updates` resumes a crashed round whose site updates
/// already committed — the database survived; only the process died.
int RunRounds(Site* site, Incarnation* in, int start, bool skip_first_updates,
              std::vector<std::string>* reports) {
  for (int r = start; r < kRounds; ++r) {
    if (!(skip_first_updates && r == start)) DoUpdates(site, r);
    DoMapAdds(site);
    if (!in->coord->RunCycle().ok()) return r;
    if (reports != nullptr) {
      reports->push_back(StripStorage(in->inv->StatsReport()));
    }
  }
  return kRounds;
}

TEST(InvalidatorStorageTest, CrashRecoveryReplaysOutageUpdates) {
  Site site;
  SimEnv env;
  {
    Incarnation in1(&site, &env);
    ASSERT_TRUE(in1.coord->Open().ok());
    DoMapAdds(&site);
    in1.coord->RunCycle().value();  // Registers; journals; commits.
  }
  env.Recover();  // Power cut after the process died.
  // An update commits during the outage.
  site.db.ExecuteSql("INSERT INTO Car VALUES ('Kia', 'Rio', 9000)").value();

  Incarnation in2(&site, &env);
  ASSERT_TRUE(in2.coord->Open().ok());
  in2.coord->FinishRecovery();
  // The durable cursor is behind the log tail: the outage-time insert is
  // still unconsumed (a fresh, non-recovering invalidator would attach
  // at the tail and silently miss it).
  EXPECT_LT(in2.inv->consumed_update_seq(), site.db.update_log().LastSeq());
  EXPECT_EQ(in2.inv->metadata().NumInstances(), 2u);  // Registry rebuilt.
  in2.coord->RunCycle().value();
  EXPECT_TRUE(in2.sink.invalidated.contains("shop/cheap?##"));
}

// A real process restart rebuilds the sniffer's QI/URL map from live
// traffic: row ids restart at 1, BELOW the map cursors the dead process
// persisted. Recovery must clamp the cursors to the live map's tail, or
// every re-sniffed row would be silently skipped and updates would never
// eject the re-cached pages again.
TEST(InvalidatorStorageTest, RebuiltMapAfterRestartStillInvalidates) {
  Site site;
  SimEnv env;
  {
    Incarnation in1(&site, &env);
    ASSERT_TRUE(in1.coord->Open().ok());
    DoMapAdds(&site);
    in1.coord->RunCycle().value();  // Cursors advance past the map rows.
  }
  env.Recover();

  // The restarted process sees an EMPTY map (unlike Site's, which models
  // the map surviving). Ids restart from 1 as traffic re-populates it.
  sniffer::QiUrlMap rebuilt_map;
  RecordingSink sink;
  Invalidator inv(&site.db, &rebuilt_map, &site.clock);
  inv.AddSink(&sink);
  DurabilityOptions dopts;
  dopts.dir = "meta";
  dopts.env = &env;
  DurabilityCoordinator coord(&inv, dopts);
  ASSERT_TRUE(coord.Open().ok());
  coord.FinishRecovery();
  EXPECT_EQ(inv.metadata().NumInstances(), 2u);  // Registry replayed.

  rebuilt_map.Add("SELECT * FROM Car WHERE price < 20000", "shop/cheap?##",
                  "/r", 0);
  site.db.ExecuteSql("INSERT INTO Car VALUES ('Kia', 'Rio', 9000)").value();
  coord.RunCycle().value();
  EXPECT_TRUE(sink.invalidated.contains("shop/cheap?##"));
}

TEST(InvalidatorStorageTest, CleanRestartIsInvisible) {
  Site site;
  SimEnv env;
  std::string before;
  {
    Incarnation in1(&site, &env);
    ASSERT_TRUE(in1.coord->Open().ok());
    DoMapAdds(&site);
    in1.coord->RunCycle().value();
    DoUpdates(&site, 0);
    DoMapAdds(&site);
    in1.coord->RunCycle().value();
    before = StripStorage(in1.inv->StatsReport());
  }
  Incarnation in2(&site, &env);
  ASSERT_TRUE(in2.coord->Open().ok());
  in2.coord->FinishRecovery();
  // Per-type statistics, lifetime counters, cursor positions — the whole
  // report minus the storage line is byte-identical.
  EXPECT_EQ(StripStorage(in2.inv->StatsReport()), before);
  EXPECT_EQ(in2.inv->consumed_update_seq(), site.db.update_log().LastSeq());
}

TEST(InvalidatorStorageTest, SnapshotBoundsReplayAfterRestart) {
  Site site;
  SimEnv env;
  IncarnationOptions opts;
  opts.snapshot_every_cycles = 0;  // Only explicit snapshots.
  uint64_t total_appended = 0;
  {
    Incarnation in1(&site, &env, opts);
    ASSERT_TRUE(in1.coord->Open().ok());
    DoMapAdds(&site);
    in1.coord->RunCycle().value();
    for (int r = 0; r < 3; ++r) {
      DoUpdates(&site, r);
      DoMapAdds(&site);
      in1.coord->RunCycle().value();
    }
    ASSERT_TRUE(in1.coord->Snapshot().ok());
    DoUpdates(&site, 3);
    DoMapAdds(&site);
    in1.coord->RunCycle().value();  // One post-snapshot commit.
    total_appended = in1.coord->store().stats().records_appended;
  }
  env.Recover();

  Incarnation in2(&site, &env, opts);
  ASSERT_TRUE(in2.coord->Open().ok());
  in2.coord->FinishRecovery();
  // O(delta): replay reads only the post-snapshot suffix (one commit
  // plus that round's registration churn) — not the whole history the
  // first process journaled.
  EXPECT_LT(in2.coord->store().stats().records_recovered, total_appended);
  EXPECT_LE(in2.coord->store().stats().records_recovered, 4u);
  EXPECT_NE(in2.coord->Report().find("replayed-commits=1"),
            std::string::npos);
  // And the recovered process still invalidates correctly.
  site.db.ExecuteSql("INSERT INTO Car VALUES ('Kia', 'Rio', 7000)").value();
  DoMapAdds(&site);
  in2.coord->RunCycle().value();
  EXPECT_TRUE(in2.sink.invalidated.contains("shop/cheap?##"));
}

/// Satellite: UpdateLog::TrimThrough coordinates with durability — the
/// log may drop a prefix only once the on-disk state durably covers it.
TEST(InvalidatorStorageTest, TrimThroughDurablePositionSurvivesCrash) {
  Site site;
  SimEnv env;
  IncarnationOptions opts;
  opts.sync_every_commit = false;  // Commits buffer; durable position lags.
  opts.snapshot_every_cycles = 0;
  Incarnation in1(&site, &env, opts);
  ASSERT_TRUE(in1.coord->Open().ok());
  // At Open the durable position is the attach point: records at or
  // below it predate deployment and are never consumed, even across a
  // crash+recover, so they are already trimmable.
  const uint64_t attach_seq = in1.coord->durable_update_seq();
  EXPECT_EQ(attach_seq, site.db.update_log().LastSeq());
  DoMapAdds(&site);
  in1.coord->RunCycle().value();
  DoUpdates(&site, 0);
  in1.coord->RunCycle().value();
  // Nothing synced since: the durable position has not moved past the
  // attach point, so the coordinated trim spares every deployment-era
  // record the post-crash replay still needs.
  EXPECT_EQ(in1.coord->durable_update_seq(), attach_seq);
  EXPECT_GT(in1.inv->consumed_update_seq(), attach_seq);
  site.db.update_log().TrimThrough(in1.coord->durable_update_seq());
  EXPECT_GT(site.db.update_log().size(), 0u);

  // A snapshot makes the consumed position durable; NOW the prefix is
  // droppable — and recovery must never need it back.
  ASSERT_TRUE(in1.coord->Snapshot().ok());
  EXPECT_EQ(in1.coord->durable_update_seq(), in1.inv->consumed_update_seq());
  EXPECT_GT(site.db.update_log().TrimThrough(in1.coord->durable_update_seq()),
            0u);

  env.Recover();
  Incarnation in2(&site, &env, opts);
  ASSERT_TRUE(in2.coord->Open().ok());
  in2.coord->FinishRecovery();
  EXPECT_EQ(in2.inv->consumed_update_seq(), in1.inv->consumed_update_seq());
  DoUpdates(&site, 1);  // Honda M1 at 7100: both pages go stale.
  DoMapAdds(&site);
  in2.coord->RunCycle().value();
  EXPECT_TRUE(in2.sink.invalidated.contains("shop/cheap?##"));
  EXPECT_TRUE(in2.sink.invalidated.contains("shop/honda?##"));
}

/// Satellite regression: the record whose seq equals durable_update_seq()
/// EXACTLY must land on the same side of every boundary. TrimThrough
/// drops seq <= durable, replay re-reads seq > durable, and a restarted
/// process attaches AT durable — so the boundary record is consumed
/// exactly once (before the snapshot), is trimmable immediately after
/// it, and is never wanted back by recovery. An off-by-one in any of
/// the three (trim keeping it, replay re-consuming it, or restart
/// attaching one past it) would either double-apply or lose it; this
/// test pins all three against a no-crash oracle.
TEST(InvalidatorStorageTest, BoundaryRecordAtDurableSeqTrimsAndReplaysOnce) {
  Site site;
  SimEnv env;
  IncarnationOptions opts;
  opts.sync_every_commit = false;
  opts.snapshot_every_cycles = 0;  // Durable position moves only on demand.

  // No-crash oracle over the identical workload (its own site + env).
  std::string oracle_report;
  std::set<std::string> oracle_ejects;
  {
    Site osite;
    SimEnv oenv;
    Incarnation oracle(&osite, &oenv, opts);
    ASSERT_TRUE(oracle.coord->Open().ok());
    DoMapAdds(&osite);
    oracle.coord->RunCycle().value();
    DoUpdates(&osite, 0);
    DoMapAdds(&osite);
    oracle.coord->RunCycle().value();
    ASSERT_TRUE(oracle.coord->Snapshot().ok());
    DoUpdates(&osite, 1);
    DoMapAdds(&osite);
    oracle.coord->RunCycle().value();
    oracle_report = StripStorage(oracle.inv->StatsReport());
    oracle_ejects = oracle.sink.invalidated;
  }

  uint64_t boundary = 0;
  {
    Incarnation in1(&site, &env, opts);
    ASSERT_TRUE(in1.coord->Open().ok());
    DoMapAdds(&site);
    in1.coord->RunCycle().value();
    DoUpdates(&site, 0);
    DoMapAdds(&site);
    in1.coord->RunCycle().value();
    ASSERT_TRUE(in1.coord->Snapshot().ok());
    boundary = in1.coord->durable_update_seq();
    // The snapshot pinned the durable position at the log tail: the last
    // consumed record IS the boundary record.
    ASSERT_EQ(boundary, in1.inv->consumed_update_seq());
    ASSERT_EQ(boundary, site.db.update_log().LastSeq());
    // Replay's view and trim's view agree about seq == boundary: replay
    // does not want it back...
    EXPECT_TRUE(site.db.update_log().ReadSince(boundary).empty());
    // ...and trim may drop it (inclusive upper bound).
    EXPECT_GT(site.db.update_log().TrimThrough(boundary), 0u);
    EXPECT_EQ(site.db.update_log().size(), 0u);
    // One record PAST the boundary commits before the crash; a repeated
    // trim at the same position must spare it for the post-crash replay.
    DoUpdates(&site, 1);
    EXPECT_EQ(site.db.update_log().TrimThrough(boundary), 0u);
    ASSERT_GT(site.db.update_log().size(), 0u);
  }
  env.Recover();

  Incarnation in2(&site, &env, opts);
  ASSERT_TRUE(in2.coord->Open().ok());
  in2.coord->FinishRecovery();
  // Restart attaches exactly AT the boundary — not one past it (which
  // would skip the first unconsumed record) and not one before it (which
  // would re-consume the trimmed boundary record, double-counting it).
  EXPECT_EQ(in2.inv->consumed_update_seq(), boundary);
  DoMapAdds(&site);
  in2.coord->RunCycle().value();
  // The post-boundary suffix was applied exactly once: every lifetime
  // counter matches the process that never crashed, and the eject set is
  // identical.
  EXPECT_EQ(StripStorage(in2.inv->StatsReport()), oracle_report);
  EXPECT_EQ(in2.sink.invalidated, oracle_ejects);
}

/// The same contract through the CachePortal facade: with durability
/// configured, automatic truncation stops at the durable position, and
/// Checkpoint() trims only after its snapshot is safely installed.
TEST(InvalidatorStorageTest, CachePortalTrimsOnlyThroughDurablePosition) {
  ManualClock clock;
  db::Database db(&clock);
  ASSERT_TRUE(db.CreateTable(db::TableSchema(
                                 "Car", {{"maker", db::ColumnType::kString},
                                         {"model", db::ColumnType::kString},
                                         {"price", db::ColumnType::kInt}}))
                  .ok());
  SimEnv env;
  core::CachePortalOptions options;
  options.truncate_update_log = true;
  options.durability.dir = "meta";
  options.durability.env = &env;
  options.durability.sync_every_commit = false;
  options.durability.snapshot_every_cycles = 0;
  core::CachePortal portal(&db, &clock, options);
  ASSERT_TRUE(portal.RecoverDurableState().ok());

  db.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 15000)").value();
  portal.RunCycle().value();
  // The cycle consumed the record but its commit is not yet durable: the
  // post-crash replay still needs it, so truncation spared it.
  EXPECT_EQ(portal.durability()->durable_update_seq(), 0u);
  EXPECT_GE(db.update_log().size(), 1u);

  portal.Checkpoint();  // Installs a snapshot, then trims through it.
  EXPECT_EQ(portal.durability()->durable_update_seq(),
            portal.invalidator().consumed_update_seq());
  EXPECT_EQ(db.update_log().size(), 0u);
}

TEST(InvalidatorStorageTest, PendingDeliverySurvivesCrash) {
  Site site;
  SimEnv env;
  class DownSink : public InvalidationSink {
   public:
    Status SendInvalidation(const http::HttpRequest&,
                            const std::string&) override {
      return Status::Internal("cache unreachable");
    }
  } down;
  core::DeliveryOptions dopts;
  dopts.max_attempts = 50;
  {
    core::ReliableDeliveryQueue queue1(&site.clock, dopts);
    queue1.AddSink(&down, "edge");
    Invalidator inv1(&site.db, &site.map, &site.clock);
    inv1.AddSink(&queue1);
    DurabilityOptions d;
    d.dir = "meta";
    d.env = &env;
    DurabilityCoordinator coord1(&inv1, d);
    ASSERT_TRUE(coord1.Open().ok());
    DoMapAdds(&site);
    coord1.RunCycle().value();
    DoUpdates(&site, 0);  // Eject attempt fails; message stays queued.
    coord1.RunCycle().value();
    ASSERT_GE(queue1.pending(), 1u);
  }
  env.Recover();

  // Restart with a healthy cache behind the same sink name: the queued
  // message came back through the commit delta and delivers.
  RecordingSink healthy;
  core::ReliableDeliveryQueue queue2(&site.clock, dopts);
  queue2.AddSink(&healthy, "edge");
  Invalidator inv2(&site.db, &site.map, &site.clock);
  inv2.AddSink(&queue2);
  DurabilityOptions d;
  d.dir = "meta";
  d.env = &env;
  DurabilityCoordinator coord2(&inv2, d);
  ASSERT_TRUE(coord2.Open().ok());
  coord2.FinishRecovery();
  EXPECT_GE(queue2.pending_for("edge"), 1u);
  queue2.Pump();
  EXPECT_TRUE(healthy.invalidated.contains("shop/cheap?##"));
}

TEST(InvalidatorStorageTest, QuarantinedCorruptionSurfacesInStatsReport) {
  Site site;
  SimEnv env;
  IncarnationOptions opts;
  opts.snapshot_every_cycles = 0;  // Keep segment 1 alive to corrupt.
  {
    Incarnation in1(&site, &env, opts);
    ASSERT_TRUE(in1.coord->Open().ok());
    DoMapAdds(&site);
    in1.coord->RunCycle().value();
    DoUpdates(&site, 0);
    in1.coord->RunCycle().value();
  }
  // Disk rot flips bytes inside the last committed record.
  uint64_t size = env.ReadFile("meta/wal-000001.log")->size();
  ASSERT_TRUE(env.CorruptFile("meta/wal-000001.log", size - 2, "ZZ").ok());
  env.Recover();

  Incarnation in2(&site, &env, opts);
  ASSERT_TRUE(in2.coord->Open().ok());  // Contained, not fatal.
  in2.coord->FinishRecovery();
  EXPECT_GT(in2.coord->store().stats().quarantined_bytes, 0u);
  // The operator sees it in the ordinary stats report.
  std::string report = in2.inv->StatsReport();
  EXPECT_NE(report.find("  storage:"), std::string::npos);
  EXPECT_NE(report.find("last-quarantine="), std::string::npos);
  // And the process still runs and invalidates afterwards.
  DoUpdates(&site, 1);
  DoMapAdds(&site);
  in2.coord->RunCycle().value();
  EXPECT_TRUE(in2.sink.invalidated.contains("shop/cheap?##"));
}

/// The tentpole differential: kill the process at EVERY filesystem crash
/// point the whole workload consults, recover, and require that
///   (a) the recovered report equals the uncrashed run's report at SOME
///       committed-cycle boundary (recovery is cycle-atomic — never a
///       half-applied state), and
///   (b) finishing the workload ejects exactly the pages the uncrashed
///       run ejected (recovery is invisible to correctness).
class StorageDifferentialTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(StorageDifferentialTest, CrashAtEveryPointRecoversExactly) {
  IncarnationOptions opts;
  opts.workers = std::get<0>(GetParam());
  const uint64_t stride = std::get<1>(GetParam());

  // Uncrashed oracle: eject set + the report at every commit boundary.
  std::vector<std::string> boundary_reports;
  std::set<std::string> oracle_ejects;
  {
    Site site;
    SimEnv env;
    Incarnation oracle(&site, &env, opts);
    ASSERT_TRUE(oracle.coord->Open().ok());
    DoMapAdds(&site);
    oracle.coord->RunCycle().value();
    boundary_reports.push_back(StripStorage(oracle.inv->StatsReport()));
    ASSERT_EQ(RunRounds(&site, &oracle, 0, false, &boundary_reports),
              kRounds);
    oracle_ejects = oracle.sink.invalidated;
  }
  ASSERT_TRUE(oracle_ejects.contains("shop/cheap?##"));
  ASSERT_TRUE(oracle_ejects.contains("shop/honda?##"));

  // Dry run: count the crash points the workload (setup excluded)
  // consults. The workload is deterministic, so the count is exact.
  uint64_t total_points = 0;
  {
    Site site;
    FaultInjector faults(7);
    SimEnv env(&faults);
    Incarnation in(&site, &env, opts);
    ASSERT_TRUE(in.coord->Open().ok());
    DoMapAdds(&site);
    in.coord->RunCycle().value();
    faults.ArmCrash(1u << 30);
    ASSERT_EQ(RunRounds(&site, &in, 0, false, nullptr), kRounds);
    total_points = faults.crash_points_seen();
    faults.DisarmCrash();
  }
  ASSERT_GE(total_points, 40u);

  for (uint64_t k = 0; k < total_points; k += stride) {
    SCOPED_TRACE(StrCat("crash point ", k, " of ", total_points,
                        " (workers=", opts.workers, ")"));
    Site site;
    FaultInjector faults(7);
    SimEnv env(&faults);
    auto in1 = std::make_unique<Incarnation>(&site, &env, opts);
    ASSERT_TRUE(in1->coord->Open().ok());
    DoMapAdds(&site);
    in1->coord->RunCycle().value();

    faults.ArmCrash(k);
    int crashed_round = RunRounds(&site, in1.get(), 0, false, nullptr);
    ASSERT_LT(crashed_round, kRounds);
    ASSERT_EQ(faults.crashes_injected(), 1u);
    ASSERT_TRUE(env.crashed());
    std::set<std::string> ejects = in1->sink.invalidated;
    in1.reset();  // The process is gone.
    env.Recover();

    auto in2 = std::make_unique<Incarnation>(&site, &env, opts);
    Status opened = in2->coord->Open();
    ASSERT_TRUE(opened.ok()) << faults.last_crash_point() << ": "
                             << opened.message();
    in2->coord->FinishRecovery();
    std::string recovered = StripStorage(in2->inv->StatsReport());
    EXPECT_NE(std::find(boundary_reports.begin(), boundary_reports.end(),
                        recovered),
              boundary_reports.end())
        << "crash at " << faults.last_crash_point()
        << " recovered to a state that matches no commit boundary:\n"
        << recovered;

    // Finish the workload; the crashed round's site updates already
    // committed (the database did not die), so only its cycle re-runs.
    ASSERT_EQ(RunRounds(&site, in2.get(), crashed_round, true, nullptr),
              kRounds);
    ejects.insert(in2->sink.invalidated.begin(),
                  in2->sink.invalidated.end());
    EXPECT_EQ(ejects, oracle_ejects) << "crash at "
                                     << faults.last_crash_point();
  }
}

// Full sweeps at one worker and at four (the storage path is identical —
// only invalidator-internal parallelism differs).
INSTANTIATE_TEST_SUITE_P(
    Sweep, StorageDifferentialTest,
    ::testing::Values(std::make_tuple(size_t{1}, uint64_t{1}),
                      std::make_tuple(size_t{4}, uint64_t{1})));

}  // namespace
}  // namespace cacheportal::invalidator
