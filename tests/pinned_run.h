// Recorded outputs of seeded invalidation scenarios. The differential
// suites compare the impact path against these literals, recorded from
// the two candidate-discovery paths that once ran beside it behind
// options: the interpreted walk (every instance analyzed, no bind index
// consulted) and the per-tuple bind-index probe.
#ifndef CACHEPORTAL_TESTS_PINNED_RUN_H_
#define CACHEPORTAL_TESTS_PINNED_RUN_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "sql/template.h"

namespace cacheportal::invalidator {

/// One seed's run: per cycle, the numbers of the ejected pages (page N is
/// cache key "shop/pN?##") and the cycle's summary string, plus the
/// 64-bit FNV-1a digest of the final StatsReport().
struct PinnedRun {
  uint64_t seed = 0;
  std::vector<std::set<int>> ejected;
  std::vector<std::string> summaries;
  uint64_t report_digest = 0;
};

/// Page numbers of "shop/pN?##" cache keys; any other key maps to -1, so
/// it can never match a pinned set.
inline std::set<int> PageNumbers(const std::set<std::string>& keys) {
  static const std::string kPrefix = "shop/p";
  static const std::string kSuffix = "?##";
  std::set<int> out;
  for (const std::string& key : keys) {
    int number = -1;
    if (key.size() > kPrefix.size() + kSuffix.size() &&
        key.compare(0, kPrefix.size(), kPrefix) == 0 &&
        key.compare(key.size() - kSuffix.size(), kSuffix.size(), kSuffix) ==
            0) {
      std::string digits = key.substr(
          kPrefix.size(), key.size() - kPrefix.size() - kSuffix.size());
      if (digits.find_first_not_of("0123456789") == std::string::npos) {
        number = std::stoi(digits);
      }
    }
    out.insert(number);
  }
  return out;
}

/// Expects one run's outputs to reproduce `pinned` exactly. The report is
/// compared by digest; suites also keep one seed's full text so a
/// failure there is readable.
inline void ExpectReproduces(const PinnedRun& pinned,
                             const std::vector<std::set<std::string>>& ejected,
                             const std::vector<std::string>& summaries,
                             const std::string& report) {
  ASSERT_EQ(ejected.size(), pinned.ejected.size());
  for (size_t c = 0; c < ejected.size(); ++c) {
    EXPECT_EQ(PageNumbers(ejected[c]), pinned.ejected[c]) << "cycle " << c;
  }
  EXPECT_EQ(summaries, pinned.summaries);
  EXPECT_EQ(sql::HashQueryText(report), pinned.report_digest) << report;
}

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_TESTS_PINNED_RUN_H_
