#ifndef CACHEPORTAL_PERFBENCH_WORKLOAD_H_
#define CACHEPORTAL_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"

namespace cacheportal::perfbench {

/// One traffic mix. The site is PaperSite's: a small and a large table
/// sharing the join attribute `grp`, with light (small table), medium
/// (large table) and heavy (join) pages per group.
struct WorkloadSpec {
  std::string name;
  int groups = 100;
  int small_rows = 500;
  int large_rows = 2500;
  bool heavy_pages = true;
  size_t cache_capacity = 10000;
  /// Zipf exponent of page popularity; 0 = uniform access.
  double zipf_s = 1.0;
  /// Requests between two sync points, and the updates placed at
  /// random positions among them. A fixed count per round keeps the work
  /// of each sync alike, so its percentiles settle within one run.
  int requests_per_sync = 200;
  int updates_per_sync = 2;
  /// Share of updates that go to the large table (PaperSite: half).
  double large_table_share = 0.5;
  /// The staleness oracle and the eject-precision sample run after
  /// every `oracle_every`-th sync (and once at the end of an episode).
  int oracle_every = 50;
  /// Rounds in one episode. An episode sets the site up afresh and
  /// replays the same prefix of the seed's trace, so every episode does
  /// the same work whatever the machine's speed.
  int64_t rounds = 300;

  int page_classes() const { return heavy_pages ? 3 : 2; }
  int num_pages() const { return groups * page_classes(); }
};

/// The named workloads (browse, write_heavy, many_pages). `tiny` shrinks
/// every size for the smoke test while keeping each mix's shape.
std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool tiny);

/// Page index <-> (class, group): page = class * groups + group.
inline int PageClassOf(const WorkloadSpec& spec, uint32_t page) {
  return static_cast<int>(page) / spec.groups;
}
inline int PageGroupOf(const WorkloadSpec& spec, uint32_t page) {
  return static_cast<int>(page) % spec.groups;
}

/// One operation of the trace: a page request or a database update.
struct Op {
  bool update = false;
  /// Page index for a request; index into Round::updates for an update.
  uint32_t index = 0;
};

/// The operations between two sync points; a sync ends every round.
struct Round {
  std::vector<Op> ops;
  std::vector<std::string> updates;  // SQL text of each update.
};

/// Seeded generator of the initial table contents and of the trace. It
/// tracks which ids are live, so every delete removes a row and no
/// operation fails. The program under test sees only the SQL and the
/// requests it produces.
class TraceGenerator {
 public:
  TraceGenerator(const WorkloadSpec& spec, uint64_t seed);

  /// Passes each INSERT that seeds both tables to `execute`, in order,
  /// until one returns false. False if one did.
  bool SeedStatements(const std::function<bool(const std::string&)>& execute);

  /// The next round of the trace.
  void NextRound(Round* round);

 private:
  uint32_t NextPage();
  std::string NextUpdate();

  const WorkloadSpec& spec_;
  Random rng_;
  std::vector<uint32_t> permutation_;  // Popularity rank -> page.
  std::vector<double> cdf_;            // Zipf CDF over ranks; empty = uniform.
  std::vector<int> live_[2];           // Live ids: [0] small, [1] large.
  int next_id_[2] = {0, 0};
};

}  // namespace cacheportal::perfbench

#endif  // CACHEPORTAL_PERFBENCH_WORKLOAD_H_
