#ifndef CACHEPORTAL_SQL_ANALYZER_H_
#define CACHEPORTAL_SQL_ANALYZER_H_

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/value.h"

namespace cacheportal::sql {

/// Maps a column reference to a substitution value. Returning std::nullopt
/// leaves the reference in place.
using ColumnSubstituter = std::function<std::optional<Value>(
    const std::string& table, const std::string& column)>;

/// Returns a copy of `expr` in which every column reference for which
/// `sub` returns a value is replaced by the corresponding literal.
/// This implements the paper's condition substitution step: plugging an
/// updated tuple's attribute values into a query's WHERE condition.
ExpressionPtr SubstituteColumns(const Expression& expr,
                                const ColumnSubstituter& sub);

/// Returns a copy of `expr` with parameters $i replaced by
/// `bindings[i-1]` as literals. Fails if an ordinal is out of range.
Result<ExpressionPtr> BindParameters(const Expression& expr,
                                     const std::vector<Value>& bindings);

/// Outcome of constant folding a predicate.
enum class FoldOutcome {
  kTrue,      // Provably satisfied.
  kFalse,     // Provably not satisfied.
  kNull,      // Folds to SQL NULL (not satisfied).
  kResidual,  // Depends on remaining column references.
};

/// Result of FoldConstants: a definitive three-valued outcome, or a
/// simplified residual expression mentioning only unresolved columns.
struct FoldResult {
  FoldOutcome outcome = FoldOutcome::kResidual;
  ExpressionPtr residual;  // Set iff outcome == kResidual.
};

/// Simplifies `expr` bottom-up: constant subtrees are evaluated; AND/OR
/// identities are applied (TRUE AND x -> x, FALSE AND x -> FALSE,
/// TRUE OR x -> TRUE, FALSE OR x -> x, and the NULL rows of Kleene logic).
/// Never errors on unresolved columns — they simply stay in the residual.
FoldResult FoldConstants(const Expression& expr);

/// Collects the distinct table qualifiers appearing in column references
/// of `expr`, in first-appearance order. Unqualified references contribute
/// the empty string.
std::vector<std::string> CollectTables(const Expression& expr);

/// Collects pointers to all column references in `expr`, pre-order.
std::vector<const ColumnRefExpr*> CollectColumnRefs(const Expression& expr);

/// True if `expr` contains any ParameterExpr.
bool ContainsParameters(const Expression& expr);

/// Splits a conjunctive expression into its top-level AND conjuncts
/// (a non-AND expression yields a single conjunct). Returned pointers
/// alias `expr`.
std::vector<const Expression*> SplitConjuncts(const Expression& expr);

/// Qualifies unqualified column references using `owner_of`, which maps a
/// column name to the effective table name owning it (or nullopt if
/// ambiguous/unknown — left untouched then). Used to normalize queries
/// before impact analysis.
ExpressionPtr QualifyColumns(
    const Expression& expr,
    const std::function<std::optional<std::string>(const std::string& column)>&
        owner_of);

/// Structural classification of a query template, the input to per-type
/// invalidation strategy selection (DESIGN.md §16). Purely syntactic:
/// schema resolution (does every referenced column exist in the FROM
/// table?) is the caller's concern — this layer must not know schemas.
struct TemplateShape {
  bool single_table = false;   // Exactly one FROM entry.
  bool self_join = false;      // The same table appears twice in FROM.
  bool has_aggregation = false;  // Aggregate call, GROUP BY, or HAVING.
  bool has_subquery = false;   // The grammar cannot express subqueries
                               // today; kept so the eligibility contract
                               // is explicit when it learns to.
  /// The WHERE clause (if any) can be decided from a single row of the
  /// FROM table under 3VL: only literals, parameters, column references,
  /// NOT/negation, AND/OR, arithmetic, comparisons, IN, BETWEEN, and
  /// IS [NOT] NULL — no LIKE, no NULL comparands, no function calls.
  bool where_row_decidable = false;

  /// Empty when the template qualifies for the exact single-table
  /// invalidation tier; otherwise the first disqualifier, phrased for
  /// the strategy census ("multi-table FROM", "self-join",
  /// "aggregation", "LIKE pattern", "NULL comparand", ...).
  std::string blocker;

  bool exact_eligible() const { return blocker.empty(); }
};

/// Classifies `statement` for strategy selection. Deterministic: equal
/// templates always classify identically, so tier assignment is
/// worker-count- and registration-order-invariant.
TemplateShape ClassifyTemplateShape(const SelectStatement& statement);

}  // namespace cacheportal::sql

#endif  // CACHEPORTAL_SQL_ANALYZER_H_
