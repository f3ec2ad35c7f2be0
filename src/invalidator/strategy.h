#ifndef CACHEPORTAL_INVALIDATOR_STRATEGY_H_
#define CACHEPORTAL_INVALIDATOR_STRATEGY_H_

#include <cstdint>
#include <string>

#include "db/database.h"
#include "db/delta.h"
#include "invalidator/registry.h"

namespace cacheportal::invalidator {

/// Per-type invalidation strategy, assigned once at registration from the
/// template's structural classification (DESIGN.md §16) and fixed for the
/// type's lifetime (persisted through checkpoints so an analyzer change
/// can never silently reassign a restored type).
enum class StrategyTier : uint8_t {
  /// Single-table template whose WHERE is row-decidable under 3VL:
  /// invalidation is decided exactly from the delta tuples' old/new row
  /// images (Łopuszański's single-table algorithm). No impact-analysis
  /// fan-out, no polling, no false ejects.
  kExact = 0,
  /// The compiled matcher + columnar batch path: per-table anchors probe
  /// the bind index to exclude provably-unaffected instances; the rest
  /// fall through to interpreted analysis and possibly polling.
  kCompiledBatch = 1,
  /// Per-instance interpreted impact analysis (substitute + fold), with
  /// residuals polled: the refuge of templates the matcher cannot anchor.
  kInterpret = 2,
  /// Templates expected to residualize on most deltas (multi-table
  /// joins, self-joins): interpreted analysis whose usual outcome is a
  /// polling query.
  kPoll = 3,
};

/// "exact" / "compiled-batch" / "interpret" / "poll".
const char* StrategyTierName(StrategyTier tier);

/// A tier assignment plus the census-facing reason. `reason` is empty for
/// kExact and otherwise names the first disqualifier ("multi-table FROM",
/// "self-join", "aggregation", "LIKE pattern", "NULL comparand", ...) or
/// the matcher's fallback reason.
struct TierDecision {
  StrategyTier tier = StrategyTier::kInterpret;
  std::string reason;
};

/// Assigns `type` its strategy tier. Deterministic in (template text,
/// schema, `exact_strategy`): independent of worker count and
/// registration order, so StatsReport() stays byte-identical across
/// worker sweeps. `exact_strategy` is InvalidatorOptions' switch for
/// the exact tier; `matcher_handled` / `matcher_fallback` describe the
/// compiled TypeMatcher's verdict for the same type.
TierDecision DecideTier(const QueryType& type, const db::Database& database,
                        bool exact_strategy, bool matcher_handled,
                        const std::string& matcher_fallback);

/// The exact tier's per-cycle decision for one instance: true iff the
/// interval's delta for the instance's single FROM table changes the
/// query's result. `statement` must be the instance's concrete (bound)
/// statement and the type must have been assigned kExact against the same
/// schema.
///
/// Decision rule, per Łopuszański adapted to this executor:
///  - an unpaired Δ⁺ or Δ⁻ row affects the result iff the WHERE is TRUE
///    for that row under 3VL (absent WHERE is TRUE);
///  - a paired (old, new) in-place UPDATE affects it iff satisfaction
///    flips between the images, or both images satisfy AND a relevant
///    column (one the select items or ORDER BY read; all columns under
///    `*`) changed value. Both-unsatisfied pairs, and both-satisfied
///    pairs touching only unread columns, provably leave the result
///    byte-identical because the row's scan position is stable.
/// Evaluation errors decide `true` (conservative eject) rather than
/// failing the cycle.
bool ExactInstanceAffected(const sql::SelectStatement& statement,
                           const db::TableSchema& schema,
                           const db::TableDelta& delta);

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_STRATEGY_H_
