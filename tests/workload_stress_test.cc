#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "common/random.h"
#include "workload/paper_site.h"

namespace cacheportal::workload {
namespace {

/// End-to-end stress over the REAL library (no simulation): the paper's
/// synthetic application served through the full CachePortal stack under
/// interleaved request and update traffic. The invariant checked after
/// every synchronization cycle is the system's core guarantee — every
/// page still in the cache renders exactly what the servlet would
/// generate right now. Each seed runs at one worker and at four.
class StressTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(StressTest, CachedPagesAreNeverStaleAfterACycle) {
  const auto [seed, workers] = GetParam();
  PaperSiteOptions options;
  options.small_rows = 60;   // Scaled down: validation re-renders pages.
  options.large_rows = 200;
  options.seed = seed;
  options.portal.invalidator.worker_threads = workers;
  PaperSite site(options);
  Random rng(seed * 977 + 13);

  uint64_t hits = 0, requests = 0;
  for (int round = 0; round < 12; ++round) {
    // A burst of requests over random pages.
    for (int r = 0; r < 25; ++r) {
      PageClass cls = static_cast<PageClass>(rng.Uniform(3));
      int grp = static_cast<int>(rng.Uniform(site.join_values()));
      http::HttpResponse resp = site.Request(cls, grp);
      ASSERT_EQ(resp.status_code, 200);
      ++requests;
      if (resp.headers.Get("X-Cache") == "HIT") ++hits;
    }
    // A burst of updates.
    site.RandomUpdates(2 + static_cast<int>(rng.Uniform(5)));
    // Synchronization point.
    auto report = site.RunCycle();
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    // THE INVARIANT: every page remaining in the cache matches a fresh
    // regeneration.
    for (int c = 0; c < 3; ++c) {
      PageClass cls = static_cast<PageClass>(c);
      for (int grp = 0; grp < site.join_values(); ++grp) {
        http::HttpResponse resp = site.Request(cls, grp);
        ASSERT_EQ(resp.status_code, 200);
        ++requests;
        bool was_hit = resp.headers.Get("X-Cache") == "HIT";
        if (was_hit) ++hits;
        if (was_hit) {
          auto fresh = site.FreshBody(cls, grp);
          ASSERT_TRUE(fresh.ok());
          ASSERT_EQ(resp.body, *fresh)
              << "STALE " << PageClassName(cls) << " page, group " << grp
              << ", round " << round;
        }
      }
    }
  }

  // The cache must actually be doing something: with 30 distinct pages
  // and hundreds of requests, a healthy run hits often.
  EXPECT_GT(hits, requests / 4)
      << "suspiciously low hit count - is everything being invalidated?";
  EXPECT_GT(site.portal()->page_cache()->stats().invalidations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, StressTest,
    ::testing::Combine(::testing::Values<uint64_t>(1, 7, 42, 1234),
                       ::testing::Values<size_t>(1, 4)));

TEST(WorkloadTest, PageClassesProduceDistinctPages) {
  PaperSiteOptions options;
  options.small_rows = 20;
  options.large_rows = 40;
  PaperSite site(options);
  http::HttpResponse light = site.Request(PageClass::kLight, 0);
  http::HttpResponse medium = site.Request(PageClass::kMedium, 0);
  http::HttpResponse heavy = site.Request(PageClass::kHeavy, 0);
  EXPECT_NE(light.body, medium.body);
  EXPECT_NE(medium.body, heavy.body);
  EXPECT_NE(light.body, site.Request(PageClass::kLight, 1).body);
  EXPECT_EQ(site.portal()->page_cache()->size(), 4u);
}

TEST(WorkloadTest, HeavyPageIsAJoinSummary) {
  PaperSiteOptions options;
  options.small_rows = 20;
  options.large_rows = 40;
  PaperSite site(options);
  http::HttpResponse heavy = site.Request(PageClass::kHeavy, 0);
  EXPECT_NE(heavy.body.find("pairs"), std::string::npos);
  EXPECT_NE(heavy.body.find("best"), std::string::npos);
}

TEST(WorkloadTest, UpdatesEventuallyInvalidate) {
  PaperSiteOptions options;
  options.small_rows = 30;
  options.large_rows = 60;
  PaperSite site(options);
  for (int grp = 0; grp < site.join_values(); ++grp) {
    site.Request(PageClass::kLight, grp);
  }
  site.RunCycle().value();  // Build the QI/URL map.
  size_t cached_before = site.portal()->page_cache()->size();
  EXPECT_EQ(cached_before, 10u);

  site.RandomUpdates(20);
  auto report = site.RunCycle().value();
  EXPECT_GT(report.pages_invalidated, 0u);
  EXPECT_LT(site.portal()->page_cache()->size(), cached_before);
}

TEST(WorkloadTest, SnifferSeesEveryGeneratedPage) {
  PaperSiteOptions options;
  options.small_rows = 10;
  options.large_rows = 20;
  PaperSite site(options);
  site.Request(PageClass::kLight, 0);
  site.Request(PageClass::kLight, 0);  // HIT: no new servlet run.
  site.Request(PageClass::kMedium, 3);
  site.RunCycle().value();
  EXPECT_EQ(site.portal()->request_log().size(), 2u);
  EXPECT_EQ(site.portal()->query_log().size(), 2u);
  EXPECT_EQ(site.portal()->qiurl_map().size(), 2u);
}

}  // namespace
}  // namespace cacheportal::workload
