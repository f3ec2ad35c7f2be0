// Recorded outputs of seeded invalidation scenarios. The differential
// suites compare the impact path against these literals, recorded from
// the two candidate-discovery paths that once ran beside it behind
// options: the interpreted walk (every instance analyzed, no bind index
// consulted) and the per-tuple bind-index probe. A literal re-recorded
// since keeps the ejects it dropped as DroppedEjects, checked by
// re-execution.
#ifndef CACHEPORTAL_TESTS_PINNED_RUN_H_
#define CACHEPORTAL_TESTS_PINNED_RUN_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "db/database.h"
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

/// A query result as comparable text, for re-execution oracles.
inline std::string ResultText(const db::QueryResult& result) {
  std::string text;
  for (const db::Row& row : result.rows) {
    for (const sql::Value& v : row) text += v.ToSqlLiteral() + ",";
    text += ";";
  }
  return text;
}

/// The result text of page N's query, `sqls[N]`, for every page.
inline std::vector<std::string> ResultTexts(
    db::Database& db, const std::vector<std::string>& sqls) {
  std::vector<std::string> texts;
  for (const std::string& sql : sqls) {
    texts.push_back(ResultText(db.ExecuteSql(sql).value()));
  }
  return texts;
}

/// The pages whose result text differs between two ResultTexts calls.
inline std::set<int> ChangedPages(const std::vector<std::string>& before,
                                  const std::vector<std::string>& after) {
  std::set<int> changed;
  for (size_t page = 0; page < before.size(); ++page) {
    if (before[page] != after[page]) changed.insert(static_cast<int>(page));
  }
  return changed;
}

/// Pages that an earlier recording of a seed's PinnedRun ejected in one
/// cycle and the current recording keeps cached.
struct DroppedEjects {
  uint64_t seed = 0;
  size_t cycle = 0;
  std::set<int> pages;
};

/// A re-recorded literal may only drop false ejects. Every dropped page
/// must be gone from `pinned` and must re-execute to the result it had
/// before that cycle's updates: it is not in `changed[cycle]`, the pages
/// whose result did change.
inline void ExpectDroppedEjectsWereFalse(
    const PinnedRun& pinned, const std::vector<DroppedEjects>& dropped,
    const std::vector<std::set<int>>& changed) {
  for (const DroppedEjects& entry : dropped) {
    if (entry.seed != pinned.seed) continue;
    ASSERT_LT(entry.cycle, pinned.ejected.size());
    ASSERT_LT(entry.cycle, changed.size());
    for (int page : entry.pages) {
      SCOPED_TRACE(testing::Message() << "seed " << entry.seed << " cycle "
                                      << entry.cycle << " page " << page);
      EXPECT_FALSE(pinned.ejected[entry.cycle].contains(page));
      EXPECT_FALSE(changed[entry.cycle].contains(page));
    }
  }
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
