#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/strings.h"
#include "db/database.h"
#include "invalidator/invalidator.h"
#include "sniffer/qiurl_map.h"

namespace cacheportal::invalidator {
namespace {

/// Collects invalidations under a lock: delivery itself is single-caller
/// per sink, but the test thread reads the set between cycles while the
/// registration thread is still alive, so the accesses are cross-thread.
class ConcurrentRecordingSink : public InvalidationSink {
 public:
  Status SendInvalidation(const http::HttpRequest&,
                          const std::string& cache_key) override {
    std::lock_guard<std::mutex> lock(mu_);
    invalidated_.insert(cache_key);
    return Status::OK();
  }
  std::set<std::string> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return invalidated_;
  }

 private:
  mutable std::mutex mu_;
  std::set<std::string> invalidated_;
};

/// The tentpole's concurrency claim, exercised for real (and under TSan
/// in CI's tsan job): one thread streams QiUrlMap::Add plus direct
/// instance registration while another runs synchronization cycles. No
/// registration may be lost, and every added page must eventually be
/// invalidated once an update touches its query.
TEST(InvalidatorConcurrentTest, RegistrationStreamsWhileCyclesRun) {
  ManualClock clock;  // Never advanced while both threads are live.
  db::Database db(&clock);
  ASSERT_TRUE(db.CreateTable(db::TableSchema(
                                 "T", {{"a", db::ColumnType::kInt},
                                       {"b", db::ColumnType::kInt},
                                       {"c", db::ColumnType::kInt},
                                       {"d", db::ColumnType::kInt}}))
                  .ok());
  sniffer::QiUrlMap map;
  InvalidatorOptions options;
  options.worker_threads = 2;
  Invalidator inv(&db, &map, &clock, options);
  ConcurrentRecordingSink sink;
  inv.AddSink(&sink);

  constexpr int kPages = 400;
  const char* columns[] = {"a", "b", "c", "d"};
  auto sql_for = [&columns](int i) {
    // Four query types (one per column), many instances each — the
    // stream keeps compiling new types and new bind values into existing
    // ones, all through the metadata plane's one lock.
    return StrCat("SELECT * FROM T WHERE ", columns[i % 4], " < ", i + 1);
  };
  auto page_for = [](int i) { return StrCat("shop/p", i, "?##"); };

  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (int i = 0; i < kPages; ++i) {
      map.Add(sql_for(i), page_for(i), "/r", 0);
      Status registered = inv.RegisterInstance(sql_for(i));
      EXPECT_TRUE(registered.ok()) << registered.ToString();
    }
    done.store(true, std::memory_order_release);
  });

  // Cycle thread: a row of zeros satisfies every `col < i+1` predicate,
  // so each cycle ejects whatever pages are mapped by then.
  while (!done.load(std::memory_order_acquire)) {
    db.ExecuteSql("INSERT INTO T VALUES (0, 0, 0, 0)").value();
    inv.RunCycle().value();
  }
  producer.join();

  // One quiet-side sweep: the final scan registers any rows the last
  // in-flight scan raced past, the final update affects every live
  // instance, and delivery ejects the remaining pages.
  db.ExecuteSql("INSERT INTO T VALUES (0, 0, 0, 0)").value();
  inv.RunCycle().value();

  // No lost registrations: every page the producer added was ejected.
  std::set<std::string> invalidated = sink.Snapshot();
  for (int i = 0; i < kPages; ++i) {
    EXPECT_TRUE(invalidated.contains(page_for(i))) << page_for(i);
  }
  EXPECT_EQ(map.NumPages(), 0u);
}

/// SetPollingConnection during a running cycle: the pointer handoff is a
/// release/acquire atomic, so a worker mid-poll either sees the old or
/// the new target, never a torn pointer. The flips run against cycles
/// that really poll (join instances), under TSan in CI.
TEST(InvalidatorConcurrentTest, PollingConnectionSwapsDuringCycles) {
  ManualClock clock;
  db::Database db(&clock);
  ASSERT_TRUE(db.CreateTable(db::TableSchema(
                                 "Car", {{"model", db::ColumnType::kString},
                                         {"price", db::ColumnType::kInt}}))
                  .ok());
  ASSERT_TRUE(
      db.CreateTable(db::TableSchema(
                         "Mileage", {{"model", db::ColumnType::kString},
                                     {"EPA", db::ColumnType::kInt}}))
          .ok());
  db.ExecuteSql("INSERT INTO Car VALUES ('Eclipse', 15000)").value();
  sniffer::QiUrlMap map;
  InvalidatorOptions options;
  options.worker_threads = 2;
  Invalidator inv(&db, &map, &clock, options);
  ConcurrentRecordingSink sink;
  inv.AddSink(&sink);

  // An external polling target backed by the same database: answers are
  // identical through either path, so only the handoff is under test.
  PollingDataCache external(&db, /*capacity=*/8);

  const std::string join_sql =
      "SELECT Car.model FROM Car, Mileage WHERE Car.model = Mileage.model "
      "AND Car.price < 16000";
  map.Add(join_sql, "p-join?##", "/r", 0);
  inv.RunCycle().value();

  std::atomic<bool> done{false};
  std::thread flipper([&] {
    for (int i = 0; i < 2000; ++i) {
      inv.SetPollingConnection(i % 2 == 0 ? &external : nullptr);
    }
    inv.SetPollingConnection(nullptr);
    done.store(true, std::memory_order_release);
  });
  // The floor keeps the test meaningful even when the flipper finishes
  // before the first (sanitizer-slowed) cycle: at least three polling
  // rounds always run.
  int hits = 0;
  while (!done.load(std::memory_order_acquire) || hits < 3) {
    db.ExecuteSql(StrCat("INSERT INTO Mileage VALUES ('Eclipse', ", 20 + hits,
                         ")"))
        .value();
    inv.RunCycle().value();
    ++hits;
    map.Add(join_sql, "p-join?##", "/r", 0);  // Re-cache for the next poll.
    inv.RunCycle().value();
  }
  flipper.join();
  EXPECT_TRUE(sink.Snapshot().contains("p-join?##"));
  EXPECT_GT(inv.stats().polls_issued, 0u);
}

}  // namespace
}  // namespace cacheportal::invalidator
