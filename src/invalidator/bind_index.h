#ifndef CACHEPORTAL_INVALIDATOR_BIND_INDEX_H_
#define CACHEPORTAL_INVALIDATOR_BIND_INDEX_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "invalidator/options.h"
#include "invalidator/registry.h"
#include "invalidator/type_matcher.h"
#include "sql/column_batch.h"
#include "sql/value.h"

namespace cacheportal::invalidator {

/// Per-(type, table) indexes over the bind values of all live instances
/// of a type: equality hash maps and sorted interval maps, keyed by the
/// comparand of the type's compiled anchor. A delta tuple's column value
/// probes the index and gets back exactly the instances whose anchor
/// conjunct could still be TRUE or NULL for that tuple — every other
/// instance's WHERE provably folds to FALSE, so it is unaffected with
/// zero per-instance AST work.
///
/// The probe mirrors sql::EvalExpression's three-valued semantics
/// exactly, because exclusion is only sound on a definite FALSE
/// (`NULL AND residual` stays residual in the fold):
///  - Comparisons (=, <, <=, >, >=, BETWEEN) on incomparable classes
///    (string vs numeric, bool, NULL binds) yield NULL, never FALSE, so
///    such instances live on per-class always-candidate lists.
///  - Numeric comparands compare after widening to double, so numeric
///    keys are NumericAsDouble (with -0.0 normalized) — Int(5) and
///    Double(5.0) must collide exactly as Value::Compare says they do.
///  - IN evaluates incomparable non-NULL items as plain misses (FALSE is
///    reachable across mixed classes), but any NULL item forces the miss
///    result to NULL — those instances are always candidates.
///  - BETWEEN yields NULL unless BOTH bounds share the probe's class, so
///    only same-class (low, high) pairs are interval-indexed.
///  - NULL or boolean tuple values return everything (bool = bool can
///    fold FALSE, but template extraction keeps booleans structural, so
///    they are rare; returning all candidates is always sound).
///  - Non-finite numerics: ±inf keys are totally ordered and hash
///    cleanly, so they index normally. NaN does neither — a NaN key
///    would silently break the sorted maps' strict weak ordering and
///    never match its own hash lookup — so NaN binds go to the
///    always-candidate lists (Value::Compare treats NaN as equal to
///    every numeric, so NaN comparisons never definitely fold FALSE and
///    exclusion would be unsound anyway) and a NaN tuple value probes
///    as "all candidates".
///  - Ints beyond ±2^53 widen lossily while int–int comparisons stay
///    exact, so their keys can tie where Value::Compare orders them:
///    they take the NaN route on both sides (sql::NumericKey).
class BindIndex {
 public:
  /// Indexes `instance` under every own anchor of its type's matcher;
  /// derived anchors share their source's postings. Idempotent per
  /// instance_id.
  void AddInstance(const TypeMatcher& matcher, const QueryInstance& instance);

  /// Removes every posting of `instance_id`. No-op when absent.
  void RemoveInstance(uint64_t instance_id);

  bool ContainsInstance(uint64_t instance_id) const {
    return postings_.contains(instance_id);
  }

  /// Live instances indexed under `type_id`; the cycle cross-checks this
  /// against the registry before trusting probe exclusions.
  size_t IndexedCountOfType(uint64_t type_id) const;

  /// Columnar probe result for a whole (type, table) batch: the rows
  /// every instance must consider (NULL/boolean/NaN/missing cells) plus
  /// each candidate instance's row list: the rows whose anchored cell
  /// does not make the instance's anchor conjunct definitely FALSE.
  /// Both ascending and duplicate-free; an instance with no rows is
  /// absent from `per_id`.
  struct BatchProbe {
    std::vector<uint32_t> all_rows;
    std::unordered_map<uint64_t, std::vector<uint32_t>> per_id;
  };

  /// Probes an entire column batch — `anchor`'s column of one updated
  /// table — against the postings of `anchor.postings_table_lower`
  /// (the source's, for a derived anchor). Strategy is picked per
  /// value class by entry count: few entries run the tight per-column
  /// evaluation kernels (sql/column_batch.h) once per entry; many
  /// entries sort the batch's probe keys once and merge them against
  /// the index's sorted maps (equality keys hash-probe once per
  /// distinct key), touching only matching entries. `stats` (may be
  /// null) accumulates batch_kernel_evals / batch_merge_probes.
  void ProbeBatch(uint64_t type_id, const CompiledAnchor& anchor,
                  const sql::ColumnVector& column, BatchProbe* out,
                  MatcherStats* stats) const;

  size_t NumIndexedInstances() const { return postings_.size(); }

 private:
  struct AnchorIndex {
    // Equality probes (anchors kEq and kIn).
    std::unordered_multimap<double, uint64_t> eq_num;
    std::unordered_multimap<std::string, uint64_t> eq_str;
    // Interval probes; the key is the anchor's comparand.
    std::multimap<double, uint64_t> range_num;
    std::multimap<std::string, uint64_t> range_str;
    // BETWEEN: low -> (high, id), both bounds same-class.
    std::multimap<double, std::pair<double, uint64_t>> between_num;
    std::multimap<std::string, std::pair<std::string, uint64_t>> between_str;
    // Instances no probe of the given class can exclude. Unordered: a
    // probe ORs them into per-instance bitmaps, so order is unobservable.
    std::unordered_set<uint64_t> always_num;
    std::unordered_set<uint64_t> always_str;
  };

  /// Reverse record of one container entry, for O(log + k) removal.
  struct Posting {
    AnchorIndex* index = nullptr;  // Stable: indexes_ never erases.
    enum class Container {
      kEqNum,
      kEqStr,
      kRangeNum,
      kRangeStr,
      kBetweenNum,
      kBetweenStr,
      kAlwaysNum,
      kAlwaysStr,
    } container = Container::kAlwaysNum;
    double num_key = 0;
    std::string str_key;
  };
  struct InstancePostings {
    uint64_t type_id = 0;
    std::vector<Posting> posts;
  };

  std::map<std::pair<uint64_t, std::string>, AnchorIndex> indexes_;
  std::unordered_map<uint64_t, InstancePostings> postings_;  // By instance_id.
  std::unordered_map<uint64_t, size_t> count_by_type_;
};

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_BIND_INDEX_H_
