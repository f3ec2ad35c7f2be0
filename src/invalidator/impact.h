#ifndef CACHEPORTAL_INVALIDATOR_IMPACT_H_
#define CACHEPORTAL_INVALIDATOR_IMPACT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/database.h"
#include "db/table.h"
#include "sql/ast.h"

namespace cacheportal::invalidator {

/// One merged view of a table's delta tuples, built once per cycle and
/// shared (borrowed) by every instance analysis: inserts first, then
/// deletes, so `tuples[i]` is a deletion exactly when i >= `inserts`.
struct TableTuples {
  std::string table;  // Lower-cased (DeltaSet::Tables() key).
  std::vector<const db::Row*> tuples;
  size_t inserts = 0;
};

/// Verdict of analyzing one update tuple against one query instance.
enum class ImpactKind {
  /// The update provably cannot change the query's result: the WHERE
  /// condition with the tuple substituted folds to FALSE (or NULL).
  kUnaffected,
  /// The update provably changes (or may change, with no way to refine
  /// without polling being necessary) the result: substituted condition
  /// folds to TRUE.
  kAffected,
  /// The substituted condition still references other relations (a join);
  /// a polling query must be issued to decide (Example 4.1 of the paper).
  kNeedsPolling,
};

/// Result of impact analysis. When `kind == kNeedsPolling`,
/// `polling_query` holds the query to issue: a non-empty result means the
/// update affects the query instance.
struct ImpactResult {
  ImpactKind kind = ImpactKind::kUnaffected;
  std::unique_ptr<sql::SelectStatement> polling_query;
};

/// The invalidator's condition analysis (Section 4, Example 4.1).
/// Decides how an inserted or deleted tuple of `table` affects the result
/// of `query`:
///
///  1. If `table` does not appear in the query's FROM list: unaffected.
///  2. Otherwise, for each FROM occurrence of `table`, substitute the
///     tuple's attribute values into the WHERE condition and constant-fold:
///     - FALSE/NULL everywhere  -> unaffected,
///     - TRUE for an occurrence -> affected,
///     - a residual condition   -> needs polling; the polling query
///       selects from the remaining relations with the residual as its
///       WHERE clause (LIMIT 1 — only emptiness matters).
///  3. A query with no WHERE clause over `table` is always affected.
///
/// Deletions use identical logic: a deleted tuple that (possibly)
/// satisfied the condition may have contributed result rows.
class ImpactAnalyzer {
 public:
  /// `database` supplies table schemas for column resolution (not owned).
  explicit ImpactAnalyzer(const db::Database* database)
      : database_(database) {}

  /// Analyzes the impact of `tuple` (inserted into or deleted from
  /// `table`) on `query`.
  Result<ImpactResult> AnalyzeTuple(const sql::SelectStatement& query,
                                    const std::string& table,
                                    const db::Row& tuple) const;

  /// Batched form (the paper's group processing, Section 4.2.1): analyzes
  /// all `tuples` of one delta against `query`, OR-ing the residuals of
  /// tuples that individually need polling into a single polling query.
  Result<ImpactResult> AnalyzeDelta(const sql::SelectStatement& query,
                                    const std::string& table,
                                    const std::vector<db::Row>& tuples) const;

  /// Zero-copy form over borrowed rows: the invalidation cycle builds one
  /// merged view of a table's delta per cycle (and the bind index narrows
  /// it per instance) instead of copying rows per instance. Analyzing a
  /// subset of a delta's tuples yields the same verdict and polling query
  /// as the full delta whenever the dropped tuples fold FALSE/NULL — they
  /// contribute nothing to the OR-ed residual.
  Result<ImpactResult> AnalyzeDelta(
      const sql::SelectStatement& query, const std::string& table,
      const std::vector<const db::Row*>& tuples) const;

  /// Verdict and work of one AnalyzeDeltaJoin call.
  struct DeltaJoinResult {
    bool affected = false;
    uint64_t pairs = 0;  // (r, s) pairs whose residual was folded.
  };

  /// The in-process term of delta-join decomposition, for a batch that
  /// changed exactly two distinct FROM tables R and S of `query`, each
  /// appearing once in FROM. The polls of AnalyzeDelta over each side
  /// see ΔR⋈S_post and R_post⋈ΔS; a pair whose sides both left the post
  /// state is in neither, so this decides ΔR⋈ΔS⁻ ∪ ΔR⁻⋈ΔS: every pair
  /// of `r.tuples[i]`, i in `r_rows`, and `s.tuples[j]`, j in `s_rows`
  /// (both ascending), with at least one side deleted. The WHERE is
  /// qualified once, r substituted once, and the residual folded per s:
  /// TRUE, or a residual still left (a third relation), decides affected.
  Result<DeltaJoinResult> AnalyzeDeltaJoin(
      const sql::SelectStatement& query, const TableTuples& r,
      const std::vector<uint32_t>& r_rows, const TableTuples& s,
      const std::vector<uint32_t>& s_rows) const;

 private:
  /// `where` with every unqualified column qualified by the FROM entry
  /// whose schema owns it (ambiguous or unknown columns stay as they are).
  sql::ExpressionPtr Qualify(const sql::SelectStatement& query,
                             const sql::Expression& where) const;

  const db::Database* database_;
};

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_IMPACT_H_
