#include "workload.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace cacheportal::perfbench {

std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool tiny) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "browse") {
    // Read-mostly: 98% of requests hit. One update per sync, so the join
    // type is polled, not guard-ejected; three in four updates go to the
    // large table, whose polls are the slow mode, so the sync median sits
    // inside one mode instead of on the cliff between two.
    spec.requests_per_sync = 100;
    spec.updates_per_sync = 1;
    spec.large_table_share = 0.75;
    spec.oracle_every = 100;
    spec.rounds = 350;
  } else if (name == "write_heavy") {
    // Writes beside reads: every sync updates both tables, so the
    // multi-table guard ejects the heavy pages, which then miss; delivery
    // carries about 30 ejects per sync across the wire.
    spec.requests_per_sync = 100;
    spec.updates_per_sync = 25;
    spec.oracle_every = 50;
    spec.rounds = 175;
  } else if (name == "many_pages") {
    // More single-table pages than the cache holds, uniform access and
    // few updates: per-instance invalidator work dominates the sync.
    spec.groups = 10000;
    spec.small_rows = 20000;
    spec.large_rows = 50000;
    spec.heavy_pages = false;
    // 90% of the pages: the median request is a hit, and the 99th
    // percentile is the misses' 90th, inside the body of the misses. With
    // 60%, it was their 97.5th, on the steep part of their tail, which
    // stretches most with the host's memory load.
    spec.cache_capacity = 18000;
    spec.zipf_s = 0.0;
    spec.requests_per_sync = 1000;
    spec.updates_per_sync = 5;
    spec.oracle_every = 25;
    spec.rounds = 65;
  } else {
    return std::nullopt;
  }
  if (tiny) {
    spec.groups = std::max(4, spec.groups / 100);
    spec.small_rows = std::max(20, spec.small_rows / 100);
    spec.large_rows = std::max(100, spec.large_rows / 100);
    // The cache holds every page, except in many_pages: 90% of them.
    size_t pages = static_cast<size_t>(spec.num_pages());
    spec.cache_capacity = spec.heavy_pages ? pages : pages * 9 / 10;
    spec.requests_per_sync = std::max(20, spec.requests_per_sync / 10);
    spec.updates_per_sync = std::max(1, spec.updates_per_sync / 10);
    spec.oracle_every = 5;
    spec.rounds = 20;
  }
  return spec;
}

TraceGenerator::TraceGenerator(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), rng_(seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL) {
  // Popularity ranks cycle through the page classes and the seed shuffles
  // only the groups, so every seed gives each class the same share of the
  // traffic; a seed that made the hottest pages heavy would otherwise
  // change the workload, not just its inputs.
  uint32_t pages = static_cast<uint32_t>(spec_.num_pages());
  uint32_t classes = static_cast<uint32_t>(spec_.page_classes());
  std::vector<uint32_t> groups(static_cast<size_t>(spec_.groups));
  for (uint32_t i = 0; i < groups.size(); ++i) groups[i] = i;
  for (uint32_t i = static_cast<uint32_t>(groups.size()); i > 1; --i) {
    std::swap(groups[i - 1], groups[rng_.Uniform(i)]);
  }
  permutation_.resize(pages);
  for (uint32_t rank = 0; rank < pages; ++rank) {
    permutation_[rank] = rank % classes * static_cast<uint32_t>(spec_.groups) +
                         groups[rank / classes];
  }
  if (spec_.zipf_s > 0) {
    cdf_.resize(pages);
    double total = 0;
    for (uint32_t rank = 0; rank < pages; ++rank) {
      total += 1.0 / std::pow(rank + 1.0, spec_.zipf_s);
      cdf_[rank] = total;
    }
    for (double& value : cdf_) value /= total;
  }
}

bool TraceGenerator::SeedStatements(
    const std::function<bool(const std::string&)>& execute) {
  const char* tables[2] = {"SmallT", "LargeT"};
  int rows[2] = {spec_.small_rows, spec_.large_rows};
  for (int t = 0; t < 2; ++t) {
    // Groups start equally full, so no seed hands a hot page a large
    // group; updates then pick groups at random.
    for (int i = 0; i < rows[t]; ++i) {
      int id = next_id_[t]++;
      live_[t].push_back(id);
      if (!execute(StrCat("INSERT INTO ", tables[t], " VALUES (", id, ", ",
                          id % spec_.groups, ", ", rng_.Uniform(10000),
                          ")"))) {
        return false;
      }
    }
  }
  return true;
}

uint32_t TraceGenerator::NextPage() {
  if (cdf_.empty()) {
    return static_cast<uint32_t>(rng_.Uniform(permutation_.size()));
  }
  double u = rng_.NextDouble();
  size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return permutation_[std::min(rank, permutation_.size() - 1)];
}

std::string TraceGenerator::NextUpdate() {
  // Insert or delete with equal odds, as in PaperSite.
  int t = rng_.OneIn(spec_.large_table_share) ? 1 : 0;
  const char* table = t == 0 ? "SmallT" : "LargeT";
  std::vector<int>& live = live_[t];
  if (rng_.OneIn(0.5) || live.empty()) {
    int id = next_id_[t]++;
    live.push_back(id);
    return StrCat("INSERT INTO ", table, " VALUES (", id, ", ",
                  rng_.Uniform(spec_.groups), ", ", rng_.Uniform(10000), ")");
  }
  size_t victim = rng_.Uniform(live.size());
  int id = live[victim];
  live[victim] = live.back();
  live.pop_back();
  return StrCat("DELETE FROM ", table, " WHERE id = ", id);
}

void TraceGenerator::NextRound(Round* round) {
  round->ops.clear();
  round->updates.clear();
  std::vector<int> updates_after(static_cast<size_t>(spec_.requests_per_sync));
  for (int i = 0; i < spec_.updates_per_sync; ++i) {
    ++updates_after[rng_.Uniform(updates_after.size())];
  }
  for (int after : updates_after) {
    round->ops.push_back({false, NextPage()});
    for (int i = 0; i < after; ++i) {
      round->ops.push_back(
          {true, static_cast<uint32_t>(round->updates.size())});
      round->updates.push_back(NextUpdate());
    }
  }
}

}  // namespace cacheportal::perfbench
