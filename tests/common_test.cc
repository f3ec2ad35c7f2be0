#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/interner.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace cacheportal {
namespace {

// ---------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  Status s = Status::NotFound("table Car");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(s.IsParseError());
  EXPECT_EQ(s.message(), "table Car");
  EXPECT_EQ(s.ToString(), "NotFound: table Car");
}

TEST(StatusTest, EachCodePredicateMatchesOnlyItself) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_FALSE(Status::Internal("x").IsNotFound());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

Result<int> Doubled(Result<int> in) {
  CACHEPORTAL_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_TRUE(Doubled(Status::Internal("boom")).status().IsInternal());
}

// ---------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------

TEST(StringsTest, StrSplitBasic) {
  EXPECT_EQ(StrSplit("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringsTest, StrSplitKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit("a,,c,", ','),
            (std::vector<std::string>{"a", "", "c", ""}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace("hi"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(AsciiToLower("SeLeCt"), "select");
  EXPECT_EQ(AsciiToUpper("SeLeCt"), "SELECT");
  EXPECT_TRUE(EqualsIgnoreCase("Cache-Control", "cache-control"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("jdbc:cacheportal:x", "jdbc:"));
  EXPECT_FALSE(StartsWith("jd", "jdbc:"));
  EXPECT_TRUE(EndsWith("file.cc", ".cc"));
  EXPECT_FALSE(EndsWith(".cc", "file.cc"));
}

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "-", 2.5), "a1-2.5");
  EXPECT_EQ(StrCat(), "");
}

// ---------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.SetTime(1000);
  EXPECT_EQ(clock.NowMicros(), 1000);
}

TEST(ClockTest, SystemClockMonotone) {
  SystemClock clock;
  Micros a = clock.NowMicros();
  Micros b = clock.NowMicros();
  EXPECT_GE(b, a);
}

// ---------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------

TEST(RandomTest, DeterministicFromSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(10), 10u);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, ExponentialMeanRoughlyCorrect) {
  Random rng(11);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.Exponential(100.0);
  double mean = sum / kN;
  EXPECT_NEAR(mean, 100.0, 5.0);
}

TEST(RandomTest, OneInProbability) {
  Random rng(13);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) hits += rng.OneIn(0.7) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.7, 0.02);
}

// ---------------------------------------------------------------------
// ParseUint64
// ---------------------------------------------------------------------

TEST(ParseUint64Test, ParsesValidValues) {
  EXPECT_EQ(ParseUint64("0").value(), 0u);
  EXPECT_EQ(ParseUint64("42").value(), 42u);
  EXPECT_EQ(ParseUint64("18446744073709551615").value(), UINT64_MAX);
}

TEST(ParseUint64Test, RejectsGarbageThatStrtoullWouldAccept) {
  // strtoull("xyz") "succeeds" with 0 — the silent-corruption mode this
  // helper exists to kill. Every one of these must be a ParseError.
  EXPECT_TRUE(ParseUint64("").status().IsParseError());
  EXPECT_TRUE(ParseUint64("xyz").status().IsParseError());
  EXPECT_TRUE(ParseUint64("12a").status().IsParseError());
  EXPECT_TRUE(ParseUint64(" 12").status().IsParseError());
  EXPECT_TRUE(ParseUint64("12 ").status().IsParseError());
  EXPECT_TRUE(ParseUint64("-3").status().IsParseError());
  EXPECT_TRUE(ParseUint64("+3").status().IsParseError());
  EXPECT_TRUE(ParseUint64("0x10").status().IsParseError());
  // 2^64 overflows; strtoull would clamp to ULLONG_MAX.
  EXPECT_TRUE(
      ParseUint64("18446744073709551616").status().IsParseError());
}

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.Submit([&sum, i] {
      sum.fetch_add(i, std::memory_order_relaxed);
    }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&hits](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEdgeSizes) {
  ThreadPool pool(4);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5}}) {
    std::atomic<size_t> count{0};
    pool.ParallelFor(n, [&count](size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), n);
  }
}

TEST(ThreadPoolTest, ZeroWorkersClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    // No .get(): destruction must still run everything already queued.
  }
  EXPECT_EQ(done.load(), 50);
}

// ---------------------------------------------------------------------
// TextInterner
// ---------------------------------------------------------------------

TEST(TextInternerTest, MatchesAReferenceCountModel) {
  // Seeded Acquire/Release/Reclaim over a small universe of texts, with
  // lengths both inside and past the short-string buffer, so the index
  // grows, wraps its probe runs and shifts entries back on erase.
  std::vector<std::string> texts;
  for (int i = 0; i < 48; ++i) {
    texts.push_back(i % 2 == 0 ? StrCat("t", i)
                               : StrCat("SELECT * FROM T WHERE x = ", i));
  }
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Random rng(seed);
    TextInterner interner;
    std::map<std::string, std::pair<uint32_t, uint32_t>> model;  // id, refs
    std::vector<uint32_t> released;  // Freed since the last Reclaim.
    for (int step = 0; step < 3000; ++step) {
      const std::string& text = texts[rng.Uniform(texts.size())];
      uint64_t op = rng.Uniform(10);
      auto it = model.find(text);
      if (op < 5) {
        uint32_t id = interner.Acquire(text);
        if (it != model.end()) {
          EXPECT_EQ(id, it->second.first);
          ++it->second.second;
        } else {
          // A fresh id is never one freed since the last Reclaim.
          EXPECT_EQ(std::count(released.begin(), released.end(), id), 0);
          for (const auto& [other, entry] : model) {
            EXPECT_NE(entry.first, id) << other;
          }
          model[text] = {id, 1};
        }
      } else if (op < 9) {
        if (it == model.end()) continue;
        interner.Release(it->second.first);
        if (--it->second.second == 0) {
          released.push_back(it->second.first);
          model.erase(it);
        }
      } else {
        interner.Reclaim();
        released.clear();
      }
      ASSERT_EQ(interner.live(), model.size());
      for (const std::string& probe : texts) {
        auto entry = model.find(probe);
        std::optional<uint32_t> found = interner.Find(probe);
        ASSERT_EQ(found.has_value(), entry != model.end()) << probe;
        if (found.has_value()) {
          EXPECT_EQ(*found, entry->second.first);
          EXPECT_EQ(interner.Text(*found), probe);
        }
      }
    }
  }
}

}  // namespace
}  // namespace cacheportal
