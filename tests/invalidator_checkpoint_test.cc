#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/reliable_delivery.h"
#include "db/database.h"
#include "invalidator/baseline.h"
#include "invalidator/invalidator.h"
#include "sniffer/qiurl_map.h"
#include "sql/template.h"

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

/// A cache that never acks: its ejects stay un-acked in a delivery queue.
class DownSink : public InvalidationSink {
 public:
  Status SendInvalidation(const http::HttpRequest&,
                          const std::string&) override {
    return Status::Internal("cache unreachable");
  }
};

void CreateCarTables(db::Database* db) {
  ASSERT_TRUE(db->CreateTable(db::TableSchema(
                                  "Car", {{"maker", db::ColumnType::kString},
                                          {"model", db::ColumnType::kString},
                                          {"price", db::ColumnType::kInt}}))
                  .ok());
  ASSERT_TRUE(
      db->CreateTable(db::TableSchema(
                          "Mileage", {{"model", db::ColumnType::kString},
                                      {"EPA", db::ColumnType::kInt}}))
          .ok());
}

/// The core recovery scenario: updates commit while the invalidator is
/// down. A naive restart attaches at the log tail and silently misses
/// them; Restore() rewinds to the checkpointed position and replays.
TEST(InvalidatorCheckpointTest, RestoreReplaysUpdatesCommittedDuringOutage) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  sniffer::QiUrlMap map;

  RecordingSink sink1;
  auto inv1 = std::make_unique<Invalidator>(&db, &map, &clock);
  inv1->AddSink(&sink1);
  map.Add("SELECT * FROM Car WHERE price < 20000", "shop/cheap?##", "/r", 0);
  inv1->RunCycle().value();  // Registers the instance; nothing stale yet.
  std::string checkpoint = inv1->Checkpoint();

  // Crash. An update commits while the invalidator is down.
  inv1.reset();
  db.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 15000)").value();

  RecordingSink sink2;
  Invalidator inv2(&db, &map, &clock);
  inv2.AddSink(&sink2);
  // Demonstrate the hazard: a fresh invalidator attaches at the current
  // log tail, i.e. it would never see the outage-time insert.
  EXPECT_EQ(inv2.consumed_update_seq(), db.update_log().LastSeq());

  ASSERT_TRUE(inv2.Restore(checkpoint).ok());
  EXPECT_LT(inv2.consumed_update_seq(), db.update_log().LastSeq());

  inv2.RunCycle().value();
  EXPECT_TRUE(sink2.invalidated.contains("shop/cheap?##"));
}

TEST(InvalidatorCheckpointTest, RestoreRejectsGarbage) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  sniffer::QiUrlMap map;
  Invalidator inv(&db, &map, &clock);
  EXPECT_FALSE(inv.Restore("").ok());
  EXPECT_FALSE(inv.Restore("not a checkpoint").ok());
  std::string good = inv.Checkpoint();
  EXPECT_FALSE(inv.Restore(good.substr(0, good.size() - 4)).ok());
  EXPECT_TRUE(inv.Restore(good).ok());
}

/// Regression for a silent-corruption bug: numeric checkpoint fields
/// were parsed with bare strtoull, so a corrupt `update_seq xyz` line
/// "restored" sequence 0 — rewinding the cursor to the log's beginning
/// and replaying every update ever committed. Corruption must be a loud
/// ParseError, and a failed Restore must leave the invalidator's state
/// untouched.
TEST(InvalidatorCheckpointTest, RestoreRejectsCorruptNumericFields) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  db.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 15000)").value();
  sniffer::QiUrlMap map;
  Invalidator inv(&db, &map, &clock);
  inv.RunCycle().value();
  const uint64_t seq_before = inv.consumed_update_seq();
  ASSERT_GT(seq_before, 0u);
  const std::string good = inv.Checkpoint();
  ASSERT_NE(good.find(StrCat("update_seq ", seq_before)), std::string::npos);

  auto corrupt = [&good](const std::string& from, const std::string& to) {
    std::string bad = good;
    size_t at = bad.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    bad.replace(at, from.size(), to);
    return bad;
  };
  const std::string seq_line = StrCat("update_seq ", seq_before);
  const std::vector<std::string> corrupted = {
      corrupt(seq_line, "update_seq xyz"),
      corrupt(seq_line, "update_seq 18446744073709551616"),  // 2^64.
      corrupt(seq_line, "update_seq -3"),
      corrupt(seq_line, StrCat("update_seq ", seq_before, "junk")),
      // The map cursor: garbled, missing, repeated, with an extra
      // field, and replaced by the shard count that preceded it.
      corrupt("map_cursor 0", "map_cursor x"),
      corrupt("map_cursor 0\n", ""),
      corrupt("map_cursor 0", "map_cursor 0\nmap_cursor 0"),
      corrupt("map_cursor 0", "map_cursor 0 0"),
      corrupt("map_cursor 0", "shards 1"),
      // The retired single-cursor `map_id` record is unknown now.
      corrupt(seq_line, StrCat(seq_line, "\nmap_id 0")),
      corrupt(seq_line, StrCat(seq_line, "\nsink x 5")),
      corrupt(seq_line, StrCat(seq_line, "\nsink 0 abc")),
  };
  for (const std::string& bad : corrupted) {
    Status status = inv.Restore(bad);
    EXPECT_TRUE(status.IsParseError()) << status.ToString() << "\n" << bad;
    // The failed restore must not have moved the cursor (in particular
    // not to 0, which would replay the whole log).
    EXPECT_EQ(inv.consumed_update_seq(), seq_before);
  }
  EXPECT_TRUE(inv.Restore(good).ok());
  EXPECT_EQ(inv.consumed_update_seq(), seq_before);
}

/// Round trip: a snapshot carries the QI/URL-map cursor PLUS the full
/// registry (types + instance SQLs + strategy tiers), and a fresh
/// invalidator restored from it rebuilds the registry from the
/// snapshot's own instances, without a rescan.
TEST(InvalidatorCheckpointTest, RoundTripsCursorAndRegistry) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  sniffer::QiUrlMap map;
  map.Add("SELECT * FROM Car WHERE price < 20000", "shop/cheap?##", "/r", 0);

  Invalidator inv(&db, &map, &clock);
  inv.RunCycle().value();
  std::string checkpoint = inv.Checkpoint();
  EXPECT_NE(checkpoint.find("cacheportal-invalidator-checkpoint 7\n"),
            std::string::npos);
  // The cursor advanced to the scanned map row.
  EXPECT_NE(checkpoint.find(StrCat("\nmap_cursor ", map.LastId(), "\n")),
            std::string::npos)
      << checkpoint;
  // The registry travels in the snapshot: the instance's SQL is there.
  EXPECT_NE(checkpoint.find("SELECT * FROM Car WHERE price < 20000"),
            std::string::npos);

  db.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 15000)").value();
  RecordingSink sink;
  Invalidator inv2(&db, &map, &clock);
  inv2.AddSink(&sink);
  ASSERT_TRUE(inv2.Restore(checkpoint).ok());
  // The instance is staged, not parsed yet; the first cycle drains it.
  EXPECT_GE(inv2.pending_restore_ops(), 1u);
  inv2.RunCycle().value();
  EXPECT_EQ(inv2.pending_restore_ops(), 0u);
  EXPECT_TRUE(sink.invalidated.contains("shop/cheap?##"));
}

/// Restore puts the cursors back at their persisted positions — the map
/// is NOT rescanned. A row retired before the checkpoint must not
/// resurrect.
TEST(InvalidatorCheckpointTest, RestoresCursorsWithoutRescan) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  sniffer::QiUrlMap map;
  map.Add("SELECT * FROM Car WHERE price < 20000", "shop/cheap?##", "/r", 0);

  Invalidator inv(&db, &map, &clock);
  inv.RunCycle().value();
  std::string checkpoint = inv.Checkpoint();

  Invalidator inv2(&db, &map, &clock);
  ASSERT_TRUE(inv2.Restore(checkpoint).ok());
  inv2.RunCycle().value();
  // Cursor restored past the existing row: the map scan absorbed nothing
  // new, yet the registry is whole (rebuilt from the snapshot itself).
  EXPECT_EQ(inv2.metadata().MapCursor(), map.LastId());
  EXPECT_EQ(inv2.metadata().NumInstances(), 1u);
  // Give the original the same second (empty) cycle, then the reports —
  // per-type statistics included — must be byte-identical: the restored
  // side's re-registration bumps were overwritten by the persisted
  // absolute values, not double-counted.
  inv.RunCycle().value();
  EXPECT_EQ(inv2.StatsReport(), inv.StatsReport());
}

/// Strategy tiers round-trip: a plane restored from a snapshot reports
/// byte-identical tier assignments (tier AND demotion reason, per type)
/// and a byte-identical StatsReport — BEFORE any instance re-registers,
/// so the pins come from the blob, not a re-derivation.
TEST(InvalidatorCheckpointTest, RestoredTiersAreByteIdentical) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  sniffer::QiUrlMap map;
  // A spread of tiers: exact, demoted-by-join, demoted-by-LIKE.
  map.Add("SELECT * FROM Car WHERE price < 20000", "shop/cheap?##", "/r", 0);
  map.Add(
      "SELECT Car.maker FROM Car, Mileage WHERE Car.model = Mileage.model",
      "shop/epa?##", "/r", 0);
  map.Add("SELECT * FROM Car WHERE maker LIKE 'F%'", "shop/f?##", "/r", 0);

  Invalidator inv(&db, &map, &clock);
  inv.RunCycle().value();
  std::map<uint64_t, TierDecision> before = inv.metadata().TierAssignments();
  ASSERT_EQ(before.size(), 3u);
  std::string checkpoint = inv.Checkpoint();

  Invalidator inv2(&db, &map, &clock);
  ASSERT_TRUE(inv2.Restore(checkpoint).ok());
  std::map<uint64_t, TierDecision> after = inv2.metadata().TierAssignments();
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [tid, decision] : before) {
    auto it = after.find(tid);
    ASSERT_NE(it, after.end()) << "type " << tid << " lost its tier";
    EXPECT_EQ(it->second.tier, decision.tier) << "type " << tid;
    EXPECT_EQ(it->second.reason, decision.reason) << "type " << tid;
  }
  EXPECT_EQ(inv2.StatsReport(), inv.StatsReport());
}

/// The TIER field is range-checked: the same hand-written snapshot parses
/// with tier 0 and fails the parse with tier 9.
TEST(InvalidatorCheckpointTest, RestoreRejectsOutOfRangeTier) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  sniffer::QiUrlMap map;
  sql::QueryTemplate tmpl =
      sql::ExtractTemplateFromSql("SELECT * FROM Car WHERE price < 20000")
          .value();
  const std::string name = "Q1";
  auto snapshot = [&](int tier) {
    return StrCat("cacheportal-invalidator-checkpoint 7\n", "update_seq 0\n",
                  "map_cursor 0\n",
                  "stats 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n", "type ",
                  tmpl.type_id, " 1 0 0 0 0 0 0\n", "type_counter 1\n",
                  "type_def ", tmpl.type_id, " ", tier, " ", name.size(),
                  " ", tmpl.canonical_text.size(), " 0\n", name, "\n",
                  tmpl.canonical_text, "\n\n", "end\n");
  };
  Invalidator inv(&db, &map, &clock);
  EXPECT_TRUE(inv.Restore(snapshot(9)).IsParseError());
  EXPECT_TRUE(inv.Restore(snapshot(0)).ok());
}

/// Copies of `blob` cut at every line boundary, just before and just
/// after each '\n' (the whole blob excluded).
std::vector<std::string> LineTruncations(const std::string& blob) {
  std::vector<std::string> out;
  for (size_t nl = blob.find('\n'); nl + 1 < blob.size();
       nl = blob.find('\n', nl + 1)) {
    out.push_back(blob.substr(0, nl));
    out.push_back(blob.substr(0, nl + 1));
  }
  return out;
}

/// Returns `blob` with the first line that starts with `prefix` replaced
/// by `line`.
std::string ReplaceLine(std::string blob, const std::string& prefix,
                        const std::string& line) {
  size_t at = blob.find("\n" + prefix);
  EXPECT_NE(at, std::string::npos) << prefix;
  if (at == std::string::npos) return blob;
  return blob.replace(at + 1, blob.find('\n', at + 1) - at - 1, line);
}

/// Snapshots and commit deltas go through one parser, which validates
/// the whole blob before anything changes: every corruption of a real
/// snapshot and a real delta is a ParseError and leaves the update-log
/// cursor and the full report — counters, types, tiers, sink backlog —
/// exactly as they were.
TEST(InvalidatorCheckpointTest, CorruptSnapshotsAndDeltasChangeNothing) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  sniffer::QiUrlMap map;
  map.Add("SELECT * FROM Car WHERE price < 20000", "shop/cheap?##", "/r", 0);
  map.Add("SELECT * FROM Car WHERE maker LIKE 'F%'", "shop/f?##", "/r", 0);

  DownSink down;
  core::DeliveryOptions dopts;
  dopts.max_attempts = 50;
  core::ReliableDeliveryQueue source_queue(&clock, dopts);
  source_queue.AddSink(&down, "edge");
  Invalidator source(&db, &map, &clock);
  source.AddSink(&source_queue);
  source.RunCycle().value();
  db.ExecuteSql("INSERT INTO Car VALUES ('Kia', 'Rio', 8000)").value();
  source.RunCycle().value();
  ASSERT_GE(source_queue.pending(), 1u);
  const std::string snapshot = source.Checkpoint();
  Invalidator::DurableDeltaBaseline baseline;
  const std::string delta = source.EncodeDurableDelta(&baseline);
  ASSERT_NE(delta.find("\ntype "), std::string::npos);
  ASSERT_NE(delta.find("\nsink 0 "), std::string::npos);

  // The target has seen other updates and holds no backlog, so a blob
  // applied even in part would show in its cursor or its report.
  db.ExecuteSql("INSERT INTO Car VALUES ('Ford', 'Focus', 9000)").value();
  core::ReliableDeliveryQueue target_queue(&clock, dopts);
  RecordingSink healthy;
  target_queue.AddSink(&healthy, "edge");
  Invalidator target(&db, &map, &clock);
  target.AddSink(&target_queue);
  target.RunCycle().value();
  const uint64_t seq_before = target.consumed_update_seq();
  const std::string report_before = target.StatsReport();
  ASSERT_NE(seq_before, source.consumed_update_seq());

  const std::string max = "18446744073709551615";  // 2^64 - 1.
  const std::string sql = "SELECT * FROM Car WHERE price < 20000";
  const std::string body = snapshot.substr(snapshot.find('\n') + 1);
  // A block length that wraps a naive `pos + LEN` bound lands the
  // parser back on the `end` that follows.
  const std::string wrap_before_end = StrCat(
      snapshot.substr(0, snapshot.rfind("end\n")), "instance ", max, "\nend\n");
  // The previous format: a `shards 4` count where `map_cursor` now
  // stands, under a magic one lower.
  auto previous_format = [](const std::string& blob,
                            const std::string& magic) {
    const std::string body = blob.substr(blob.find('\n') + 1);
    return StrCat(magic, "\n", ReplaceLine(body, "map_cursor ", "shards 4"));
  };
  std::vector<std::string> bad_snapshots = LineTruncations(snapshot);
  bad_snapshots.push_back(wrap_before_end);
  for (int old : {1, 3, 4, 5, 6}) {
    bad_snapshots.push_back(
        StrCat("cacheportal-invalidator-checkpoint ", old, "\n", body));
  }
  bad_snapshots.push_back(
      previous_format(snapshot, "cacheportal-invalidator-checkpoint 6"));
  bad_snapshots.push_back(
      ReplaceLine(snapshot, "map_cursor ", "map_cursor 1 2"));
  bad_snapshots.push_back(ReplaceLine(snapshot, "map_cursor ", "map_cursor"));
  bad_snapshots.push_back(
      ReplaceLine(snapshot, "map_cursor ", "map_cursor 1\nmap_cursor 1"));
  bad_snapshots.push_back(delta);
  bad_snapshots.push_back(ReplaceLine(snapshot, "instance ",
                                      StrCat("instance ", max)));
  bad_snapshots.push_back(ReplaceLine(snapshot, "sink 0 ",
                                      StrCat("sink 0 ", max)));
  bad_snapshots.push_back(
      ReplaceLine(snapshot, "type_counter ", "type_counter 1 2"));
  bad_snapshots.push_back(snapshot + "update_seq 1\n");
  bad_snapshots.push_back(
      ReplaceLine(snapshot, "update_seq ", "update_seq 1\nupdate_seq 1"));
  for (const std::string& bad : bad_snapshots) {
    Status status = target.Restore(bad);
    EXPECT_TRUE(status.IsParseError()) << status.ToString() << "\n" << bad;
    ASSERT_EQ(target.consumed_update_seq(), seq_before) << bad;
    ASSERT_EQ(target.StatsReport(), report_before) << bad;
  }

  const size_t end_at = delta.rfind("end\n");
  auto before_end = [&](const std::string& records) {
    return StrCat(delta.substr(0, end_at), records, "end\n");
  };
  std::vector<std::string> bad_deltas = LineTruncations(delta);
  bad_deltas.push_back(snapshot);
  bad_deltas.push_back(before_end("type_counter 1\n"));
  bad_deltas.push_back(before_end(StrCat("instance ", sql.size(), "\n", sql,
                                         "\n")));
  bad_deltas.push_back(before_end(StrCat("type_def 1 0 2 0 0\nQ1\n\n\n")));
  bad_deltas.push_back(
      ReplaceLine(delta, "sink 0 ", StrCat("sink 0 ", max)));
  bad_deltas.push_back(before_end(StrCat("sink 1 ", max, "\n")));
  bad_deltas.push_back(ReplaceLine(delta, "stats ", "stats 1 2 3"));
  bad_deltas.push_back(ReplaceLine(delta, "map_cursor ", "map_cursor 1x"));
  bad_deltas.push_back(ReplaceLine(delta, "map_cursor ", "map_cursor -1"));
  {
    std::string missing = delta;  // The required cursor dropped.
    const size_t at = missing.find("\nmap_cursor ") + 1;
    missing.erase(at, missing.find('\n', at) + 1 - at);
    bad_deltas.push_back(missing);
  }
  bad_deltas.push_back(
      previous_format(delta, "cacheportal-invalidator-delta 1"));
  bad_deltas.push_back(StrCat("cacheportal-invalidator-delta 1\n",
                              delta.substr(delta.find('\n') + 1)));
  for (int old : {1, 3, 4, 5, 6}) {
    bad_deltas.push_back(StrCat("cacheportal-invalidator-checkpoint ", old,
                                "\n", delta.substr(delta.find('\n') + 1)));
  }
  for (const std::string& bad : bad_deltas) {
    Status status = target.ApplyDurableDelta(bad);
    EXPECT_TRUE(status.IsParseError()) << status.ToString() << "\n" << bad;
    ASSERT_EQ(target.consumed_update_seq(), seq_before) << bad;
    ASSERT_EQ(target.StatsReport(), report_before) << bad;
  }

  // The uncorrupted blobs apply, and move both observables.
  ASSERT_TRUE(target.ApplyDurableDelta(delta).ok());
  EXPECT_EQ(target.consumed_update_seq(), source.consumed_update_seq());
  EXPECT_NE(target.StatsReport(), report_before);
  ASSERT_TRUE(target.Restore(snapshot).ok());
  EXPECT_EQ(target_queue.pending(), source_queue.pending());
}

/// Checkpoints embed CheckpointableSink state: messages stuck in a
/// ReliableDeliveryQueue at crash time are redelivered after restart.
TEST(InvalidatorCheckpointTest, PendingQueueMessagesSurviveRestart) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  db.ExecuteSql("INSERT INTO Car VALUES ('Ford', 'Focus', 9000)").value();
  sniffer::QiUrlMap map;

  // An always-failing sink leaves the eject un-acked in the queue.
  DownSink down;
  core::DeliveryOptions dopts;
  dopts.max_attempts = 50;
  core::ReliableDeliveryQueue queue1(&clock, dopts);
  queue1.AddSink(&down, "edge");

  Invalidator inv1(&db, &map, &clock);
  inv1.AddSink(&queue1);
  inv1.RunCycle().value();
  map.Add("SELECT * FROM Car WHERE price < 20000", "shop/cheap?##", "/r", 0);
  inv1.RunCycle().value();
  db.ExecuteSql("INSERT INTO Car VALUES ('Kia', 'Rio', 8000)").value();
  inv1.RunCycle().value();
  ASSERT_GE(queue1.pending(), 1u);
  std::string checkpoint = inv1.Checkpoint();

  // Restart with a healthy cache behind the same sink name.
  RecordingSink healthy;
  core::ReliableDeliveryQueue queue2(&clock, dopts);
  queue2.AddSink(&healthy, "edge");
  Invalidator inv2(&db, &map, &clock);
  inv2.AddSink(&queue2);
  ASSERT_TRUE(inv2.Restore(checkpoint).ok());
  EXPECT_GE(queue2.pending_for("edge"), 1u);

  queue2.Pump();
  EXPECT_TRUE(healthy.invalidated.contains("shop/cheap?##"));
  EXPECT_EQ(queue2.pending(), 0u);
}

/// Differential check across a seed corpus: a run that crashes mid-stream
/// (checkpoint taken, further updates commit, process rebuilt + restored)
/// must invalidate exactly the same pages as the uninterrupted run, and
/// both must cover the exact-re-execution baseline's ground truth.
class CheckpointDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  /// Runs `rounds` deterministic update rounds. When 0 <= crash_round <
  /// rounds, the invalidator is checkpointed at the top of that round,
  /// torn down AFTER the round's updates commit, and rebuilt + restored —
  /// modeling a crash with updates in flight.
  std::set<std::string> Run(uint64_t seed, int rounds, int crash_round,
                            std::set<std::string>* ground_truth) {
    Random rng(seed);
    ManualClock clock;
    db::Database db(&clock);
    CreateCarTables(&db);
    const char* models[] = {"Avalon", "Civic", "Eclipse", "Corolla"};
    const char* makers[] = {"Toyota", "Honda", "Mitsubishi", "Ford"};
    for (int i = 0; i < 20; ++i) {
      db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('",
                           makers[rng.Uniform(4)], "', '",
                           models[rng.Uniform(4)], "', ",
                           rng.Uniform(30000), ")"))
          .value();
    }

    sniffer::QiUrlMap map;
    RecordingSink sink;
    auto inv = std::make_unique<Invalidator>(&db, &map, &clock);
    inv->AddSink(&sink);
    inv->RunCycle().value();  // Drain seeding updates.

    std::vector<std::string> sqls;
    for (int i = 0; i < 6; ++i) {
      sqls.push_back(i % 2 == 0
                         ? StrCat("SELECT * FROM Car WHERE price < ",
                                  5000 + rng.Uniform(25000))
                         : StrCat("SELECT * FROM Car WHERE maker = '",
                                  makers[rng.Uniform(4)], "'"));
    }
    for (size_t i = 0; i < sqls.size(); ++i) {
      map.Add(sqls[i], StrCat("shop/p", i, "?##"), "/r", 0);
    }
    BaselineInvalidator baseline(&db, &map);
    baseline.RunCycle().value();
    inv->RunCycle().value();

    std::set<std::string> all_invalidated;
    for (int round = 0; round < rounds; ++round) {
      std::string checkpoint = inv->Checkpoint();
      for (int u = 0; u < 2; ++u) {
        if (rng.OneIn(0.5)) {
          db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('",
                               makers[rng.Uniform(4)], "', '",
                               models[rng.Uniform(4)], "', ",
                               rng.Uniform(30000), ")"))
              .value();
        } else {
          db.ExecuteSql(StrCat("DELETE FROM Car WHERE price > ",
                               15000 + rng.Uniform(15000)))
              .value();
        }
      }
      if (round == crash_round) {
        // Crash with this round's updates committed but unprocessed.
        inv = std::make_unique<Invalidator>(&db, &map, &clock);
        inv->AddSink(&sink);
        EXPECT_TRUE(inv->Restore(checkpoint).ok());
      }

      auto truth = baseline.RunCycle().value();
      if (ground_truth) {
        ground_truth->insert(truth.stale_pages.begin(),
                             truth.stale_pages.end());
      }

      sink.invalidated.clear();
      inv->RunCycle().value();
      all_invalidated.insert(sink.invalidated.begin(),
                             sink.invalidated.end());

      for (const std::string& sql_text : truth.changed_instances) {
        if (map.PagesForQuery(sql_text).empty()) baseline.Forget(sql_text);
      }
      for (size_t i = 0; i < sqls.size(); ++i) {
        map.Add(sqls[i], StrCat("shop/p", i, "?##"), "/r", 0);
      }
      baseline.RunCycle().value();
      inv->RunCycle().value();
    }
    return all_invalidated;
  }
};

TEST_P(CheckpointDifferentialTest, CrashedRunMatchesUninterruptedRun) {
  std::set<std::string> truth_interrupted;
  std::set<std::string> interrupted =
      Run(GetParam(), /*rounds=*/6, /*crash_round=*/3, &truth_interrupted);
  std::set<std::string> uninterrupted =
      Run(GetParam(), /*rounds=*/6, /*crash_round=*/-1, nullptr);

  // Recovery is invisible: the same workload yields the same
  // invalidations with or without the mid-stream crash.
  EXPECT_EQ(interrupted, uninterrupted);
  // And the recovered run still covers ground truth (soundness).
  for (const std::string& page : truth_interrupted) {
    EXPECT_TRUE(interrupted.contains(page))
        << "stale page missed across crash: " << page;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointDifferentialTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace cacheportal::invalidator
