#ifndef CACHEPORTAL_INVALIDATOR_TYPE_MATCHER_H_
#define CACHEPORTAL_INVALIDATOR_TYPE_MATCHER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "db/database.h"
#include "invalidator/registry.h"
#include "sql/value.h"

namespace cacheportal::invalidator {

/// Relation of a compiled single-column predicate, normalized so the
/// column sits on the left (`$1 > price` compiles as price < $1).
enum class AnchorRel { kEq, kIn, kBetween, kLt, kLtEq, kGt, kGtEq };

/// One comparand of a compiled predicate: a template parameter (its value
/// varies per instance and is read from QueryInstance::bindings) or a
/// constant baked into the template (NULL / boolean literals, which
/// template extraction keeps structural).
struct AnchorOperand {
  int ordinal = 0;      // 1-based $k; 0 means `constant` holds the value.
  sql::Value constant;
};

/// A compiled per-table predicate `col REL operand(s)` extracted from a
/// query type's template: the conjunct every instance of the type applies
/// to the updated table, differing only in bind values. A delta tuple
/// whose `column` value makes this conjunct fold to definite FALSE makes
/// the whole WHERE fold FALSE (FALSE absorbs through nested ANDs), so the
/// instance is provably unaffected by that tuple — the exclusion the
/// BindIndex implements. A fold to NULL does NOT exclude: the analyzer
/// keeps `NULL AND residual` as a residual, so NULL-producing probes must
/// leave the instance a candidate (BindIndex's always-candidate lists).
struct CompiledAnchor {
  std::string table_lower;   // Real table name, lower-cased (delta key).
  std::string column;
  size_t column_index = 0;   // Index of `column` in the table's schema.
  AnchorRel rel = AnchorRel::kEq;
  /// 1 comparand for =,<,<=,>,>=; the list for IN; {low, high} for
  /// BETWEEN.
  std::vector<AnchorOperand> operands;
  /// The table whose BindIndex postings this anchor probes. For an own
  /// anchor it is `table_lower`. For an anchor derived through join
  /// terms it is the table holding the source anchor: same relation and
  /// operands, hence the same keys, so the derived anchor reads the
  /// source's postings with this table's column and adds none.
  std::string postings_table_lower;

  bool derived() const { return postings_table_lower != table_lower; }
};

/// Compiles a query type's template once (at first instance registration,
/// when the FROM tables are known to exist) into per-table anchors. A
/// table gets at most one anchor, preferring equality over IN over
/// BETWEEN over open intervals (equality probes are O(1)); a table is
/// only coverable when it appears exactly once in FROM (a self-joined
/// table is unaffected only if the predicate fails for EVERY occurrence,
/// which one column index cannot prove). Templates the compiler cannot
/// handle — OR-rooted WHERE, NOT, LIKE, <>, expressions over the column —
/// simply produce no anchors and stay on the interpreted path, keeping
/// decisions and stats byte-identical.
///
/// Join terms close anchors over equivalence classes (the paper's §4
/// "unaffected" verdict, computed once per type): the top-level `=`
/// join terms partition columns into classes, and a table's own `=` or
/// IN anchor on a class column is a source. Every other FROM table with
/// a column in that class gets a derived anchor — same relation and
/// operands, on its own column — unless it has an own `=` or IN anchor.
/// A tuple of that table whose value makes `col = operand` definitely
/// FALSE cannot join a row that satisfies the source: every TRUE chain
/// `v = s = G` implies NumKey(v) == NumKey(G) (or equal strings), except
/// through a NaN cell, which compares equal to every number. So every
/// class column other than the probed one must be declared INT or
/// STRING; a DOUBLE column elsewhere in the class blocks the derivation.
class TypeMatcher {
 public:
  static TypeMatcher Compile(const QueryType& type,
                             const db::Database& database);

  /// The anchor covering `table_lower` (own or derived), or nullptr
  /// (interpreted path).
  const CompiledAnchor* AnchorFor(const std::string& table_lower) const;

  const std::map<std::string, CompiledAnchor>& anchors() const {
    return anchors_;
  }

  /// True when at least one table is covered by an anchor.
  bool handled() const { return !anchors_.empty(); }

  /// Why compilation produced no anchors (empty when handled()).
  const std::string& fallback_reason() const { return fallback_reason_; }

  /// Resolves an operand against an instance's bind values. Out-of-range
  /// ordinals resolve to NULL (the instance then lands on the
  /// always-candidate lists — sound, never reached for well-formed
  /// templates since bindings has ParameterSlotCount(tmpl) entries).
  static sql::Value OperandValue(const AnchorOperand& operand,
                                 const std::vector<sql::Value>& bindings);

 private:
  std::map<std::string, CompiledAnchor> anchors_;  // By table_lower.
  std::string fallback_reason_;
};

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_TYPE_MATCHER_H_
