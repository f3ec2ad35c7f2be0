// Replays a seeded CachePortal trace through the real stack from one
// client thread and prints one JSON line of raw results; run.py turns it
// into the benchmark's metrics.
//
//   cacheportal_bench --workload=browse --seed=1 --seconds=30
//                     [--setups=9] [--rounds=N] [--tiny]
//                     [--trace-out=PATH]
//
// A round is the trace between two sync points: page requests through
// core::CachingProxy::Handle with database updates between them, then
// one sync (core::CachePortal::RunCycle plus a drain of the delivery
// queue to the edge cache across loopback TCP). An episode sets the site
// up afresh and runs the workload's fixed number of rounds of the seed's
// trace. Episodes repeat until --seconds are used up; every episode
// replays the same rounds, so a faster program runs more of the same
// work, not later and costlier parts of the trace. --rounds=N runs one
// episode of exactly N rounds. Generating a round, checking ejects and
// running the oracle happen between timed stretches; only the
// stretches count as the timed mix.
//
// Exit codes: 0 ran (the JSON says whether it was correct), 2 bad flags
// or a setup failure, 3 the oracle found a stale page.

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "stack.h"
#include "tracer.h"
#include "workload.h"

namespace cacheportal::perfbench {
namespace {

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  int setups = 9;
  int64_t rounds = 0;  // > 0: one episode of exactly this many rounds.
  bool tiny = false;
  std::string trace_out;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    std::string name = arg.substr(0, eq);
    std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (name == "--workload") {
      flags->workload = value;
    } else if (name == "--seed") {
      flags->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (name == "--seconds") {
      flags->seconds = std::strtod(value.c_str(), &end);
    } else if (name == "--setups") {
      flags->setups = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (name == "--rounds") {
      flags->rounds = std::strtoll(value.c_str(), &end, 10);
    } else if (name == "--tiny") {
      flags->tiny = true;
      continue;
    } else if (name == "--trace-out") {
      flags->trace_out = value;
      continue;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return false;
    }
    if (name != "--workload" && (value.empty() || *end != '\0')) {
      std::cerr << "bad value for " << name << "\n";
      return false;
    }
  }
  return !flags->workload.empty() && flags->seconds > 0 && flags->setups > 0;
}

/// Linear-interpolated percentile of `values` (sorted in place).
double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  double pos = q * static_cast<double>(values->size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values->size() - 1);
  return (*values)[lo] + (pos - static_cast<double>(lo)) *
                             ((*values)[hi] - (*values)[lo]);
}

std::string Summary(std::vector<double>* values, double high_q) {
  std::ostringstream out;
  out.precision(9);
  double p50 = Percentile(values, 0.5);
  out << "{\"p50\": " << p50 << ", \"high\": " << Percentile(values, high_q)
      << ", \"n\": " << values->size() << "}";
  return out.str();
}

/// Everything the oracle and the error count look at.
struct Errors {
  uint64_t non_ok = 0;          // Non-200 responses, failed updates/cycles.
  uint64_t hit_mismatch = 0;    // A hit whose body is not the one stored.
  uint64_t stale_front = 0;     // Oracle: front page differs from the DB.
  uint64_t stale_edge = 0;      // Oracle: edge page differs from the DB.
  uint64_t ejects_lost = 0;     // Handed to the edge sink, not applied once.
  uint64_t undrained = 0;       // Syncs that left the queue non-empty.

  uint64_t stale() const { return stale_front + stale_edge; }
  uint64_t total() const {
    return non_ok + hit_mismatch + stale_front + stale_edge + ejects_lost +
           undrained;
  }
};

/// What the client measures and checks, pooled over the episodes.
struct Samples {
  std::vector<double> request_us, sync_ms, fresh_ms;
  uint64_t requests = 0, updates = 0, syncs = 0, ejects = 0;
  uint64_t precision_checked = 0, precision_changed = 0;
  uint64_t oracle_runs = 0;
  Errors errors;
};

/// The oracle keeps a hash of each body, not the body, so the harness
/// adds little to the process's memory.
uint64_t BodyHash(const std::string& body) {
  return std::hash<std::string>{}(body);
}

/// The single client of one episode: drives the stack, measures end to
/// end into `samples`, and keeps the shadow state the oracle needs.
class Client {
 public:
  Client(Stack* stack, Tracer* tracer, Samples* samples)
      : stack_(stack),
        tracer_(tracer),
        samples_(samples),
        shadow_(static_cast<size_t>(stack->spec().num_pages())) {
    int64_t start = NowNanos();
    for (uint32_t page = 0; page < shadow_.size(); ++page) {
      key_to_page_.emplace(stack_->page_key(page), page);
    }
    harness_ns_ += NowNanos() - start;
  }

  void set_samples(Samples* samples) { samples_ = samples; }
  /// Time the client spent on its own bookkeeping, so far.
  int64_t harness_ns() const { return harness_ns_; }

  void Request(uint32_t page) {
    tracer_->NextOp();
    tracer_->set_page_class(PageClassOf(stack_->spec(), page));
    stack_->clock()->Advance(200);  // As PaperSite::Request.
    const cache::PageCacheStats& stats = stack_->proxy()->cache()->stats();
    uint64_t hits_before = stats.hits;
    int64_t start = NowNanos();
    http::HttpResponse response = [&] {
      ScopedSpan span(tracer_, Layer::kProxy);
      return stack_->proxy()->Handle(stack_->request(page));
    }();
    int64_t end = NowNanos();
    // Checking the answer and filling the edge are not the system's work:
    // keep them out of the timed mix and the freshness windows.
    samples_->request_us.push_back(static_cast<double>(end - start) / 1e3);
    ++samples_->requests;
    if (response.status_code != 200) {
      ++samples_->errors.non_ok;
    } else if (stats.hits != hits_before) {
      if (BodyHash(response.body) != shadow_[page]) {
        ++samples_->errors.hit_mismatch;
      }
    } else {
      stack_->edge()->Store(stack_->page_id(page), response);
      shadow_[page] = BodyHash(response.body);
    }
    harness_ns_ += NowNanos() - end;
  }

  void Update(const std::string& sql) {
    tracer_->NextOp();
    stack_->clock()->Advance(100);  // As PaperSite::RandomUpdate.
    bool ok = [&] {
      ScopedSpan span(tracer_, Layer::kDbUpdate);
      return stack_->db()->ExecuteSql(sql).ok();
    }();
    ++samples_->updates;
    if (!ok) ++samples_->errors.non_ok;
    unconsumed_.push_back(
        {stack_->db()->update_log().LastSeq(), NowNanos(), harness_ns_});
  }

  void Sync() {
    tracer_->NextOp();
    int64_t start = NowNanos();
    bool ok = true;
    {
      ScopedSpan span(tracer_, Layer::kSync);
      stack_->clock()->Advance(kMicrosPerSecond);  // One sync interval.
      {
        ScopedSpan cycle(tracer_, Layer::kCycle);
        ok = stack_->portal()->RunCycle().ok();
      }
      ScopedSpan drain(tracer_, Layer::kDrain);
      stack_->queue()->DrainWith(stack_->clock());
    }
    int64_t end = NowNanos();
    samples_->sync_ms.push_back(static_cast<double>(end - start) / 1e6);
    ++samples_->syncs;
    if (!ok) ++samples_->errors.non_ok;
    // Every update the cycle consumed is now fresh at origin and edge.
    // Its window leaves out the client's bookkeeping since the commit.
    uint64_t consumed = stack_->portal()->invalidator().consumed_update_seq();
    while (!unconsumed_.empty() && unconsumed_.front().seq <= consumed) {
      const Commit& commit = unconsumed_.front();
      samples_->fresh_ms.push_back(
          static_cast<double>(end - commit.returned_ns -
                              (harness_ns_ - commit.harness_ns)) /
          1e6);
      unconsumed_.pop_front();
    }
  }

  /// After a sync, outside the timed stretch: every key handed to the
  /// edge sink must have been applied at the edge exactly once, in order.
  /// With `sample_precision`, also checks each eject against the body
  /// last served for its page.
  void CheckEjects(bool sample_precision) {
    std::vector<std::string> handed = stack_->edge_sink()->TakeHanded();
    std::vector<std::string> applied = stack_->edge()->TakeApplied();
    samples_->ejects += handed.size();
    if (handed != applied) {
      samples_->errors.ejects_lost += std::max(handed.size(), applied.size());
    }
    if (stack_->queue()->pending() != 0) ++samples_->errors.undrained;
    if (!sample_precision) return;
    for (const std::string& key : handed) {
      auto it = key_to_page_.find(key);
      if (it == key_to_page_.end()) continue;
      Result<std::string> fresh = stack_->FreshBody(it->second);
      if (!fresh.ok()) {
        ++samples_->errors.non_ok;
        continue;
      }
      ++samples_->precision_checked;
      if (BodyHash(*fresh) != shadow_[it->second]) {
        ++samples_->precision_changed;
      }
    }
  }

  /// The staleness oracle: re-renders every page held by the front and
  /// the edge cache against the database and compares bytes.
  void RunOracle() {
    std::unordered_map<uint32_t, std::string> fresh_bodies;
    auto fresh_of = [&](const std::string& key) -> const std::string* {
      auto it = key_to_page_.find(key);
      if (it == key_to_page_.end()) return nullptr;
      auto [body, inserted] = fresh_bodies.try_emplace(it->second);
      if (inserted) {
        Result<std::string> fresh = stack_->FreshBody(it->second);
        if (!fresh.ok()) return nullptr;
        body->second = std::move(*fresh);
      }
      return &body->second;
    };
    Errors& errors = samples_->errors;
    for (const std::string& key : stack_->proxy()->cache()->Keys()) {
      const std::string* fresh = fresh_of(key);
      if (fresh == nullptr ||
          BodyHash(*fresh) != shadow_[key_to_page_.at(key)]) {
        ++errors.stale_front;
        if (errors.stale_front == 1) std::cerr << "stale page " << key << "\n";
      }
    }
    for (const auto& [key, body] : stack_->edge()->Pages()) {
      const std::string* fresh = fresh_of(key);
      if (fresh == nullptr || *fresh != body) {
        ++errors.stale_edge;
        if (errors.stale_edge == 1) std::cerr << "stale edge " << key << "\n";
      }
    }
    ++samples_->oracle_runs;
  }

 private:
  /// An update no cycle has consumed yet.
  struct Commit {
    uint64_t seq;         // Update-log sequence after the commit.
    int64_t returned_ns;  // When the commit returned.
    int64_t harness_ns;   // harness_ns_ at that moment.
  };

  Stack* stack_;
  Tracer* tracer_;
  Samples* samples_;
  int64_t harness_ns_ = 0;
  std::vector<uint64_t> shadow_;  // Hash of the last body served, per page.
  std::unordered_map<std::string, uint32_t> key_to_page_;
  std::deque<Commit> unconsumed_;
};

/// Library counters, read at one instant.
struct Counters {
  cache::PageCacheStats cache;
  invalidator::InvalidatorStats inval;
  invalidator::MatcherStats matcher;
  core::DeliveryStats delivery;
  net::InvalidationServerStats server;
  uint64_t wire_acks = 0;
  uint64_t wire_batch_frames = 0;
  LayerCounters layers;

  static Counters Read(Stack* stack) {
    Counters c;
    c.cache = stack->proxy()->cache()->stats();
    c.inval = stack->portal()->invalidator().stats();
    c.matcher = stack->portal()->invalidator().matcher_stats();
    c.delivery = stack->queue()->stats();
    c.server = stack->wire_server()->stats();
    c.wire_acks = stack->wire_client()->acks_received();
    c.wire_batch_frames = stack->wire_client()->batch_frames_sent();
    c.layers = stack->counters();
    return c;
  }
};

/// Adds the counts of one episode's timed mix, from `b` to `a`, to `sums`.
void AddCounts(const Counters& b, const Counters& a,
               std::map<std::string, double>* sums) {
  std::map<std::string, double> counts = {
      {"cache.lookups", a.cache.lookups - b.cache.lookups},
      {"cache.hits", a.cache.hits - b.cache.hits},
      {"cache.misses", a.cache.misses - b.cache.misses},
      {"cache.evictions", a.cache.evictions - b.cache.evictions},
      {"cache.invalidations", a.cache.invalidations - b.cache.invalidations},
      {"db.page_queries", a.layers.page_queries - b.layers.page_queries},
      {"db.page_rows", a.layers.page_rows - b.layers.page_rows},
      {"db.polls", a.layers.polls - b.layers.polls},
      {"inval.updates", a.inval.updates_processed - b.inval.updates_processed},
      {"inval.instance_checks",
       a.inval.instance_checks - b.inval.instance_checks},
      {"inval.polls_issued", a.inval.polls_issued - b.inval.polls_issued},
      {"inval.poll_round_trips",
       a.matcher.poll_round_trips - b.matcher.poll_round_trips},
      {"inval.pages_invalidated",
       a.inval.pages_invalidated - b.inval.pages_invalidated},
      {"inval.conservative_invalidations",
       a.inval.conservative_invalidations -
           b.inval.conservative_invalidations},
      {"inval.fast_path_instances",
       a.matcher.fast_path_instances - b.matcher.fast_path_instances},
      {"deliver.ejects", a.delivery.enqueued - b.delivery.enqueued},
      {"deliver.batch_flushes",
       a.delivery.batch_flushes - b.delivery.batch_flushes},
      {"deliver.retries", a.delivery.retries - b.delivery.retries},
      {"deliver.dead_lettered",
       a.delivery.dead_lettered - b.delivery.dead_lettered},
      {"wire.batch_frames", a.wire_batch_frames - b.wire_batch_frames},
      {"wire.acks", a.wire_acks - b.wire_acks},
      {"wire.ejects_applied", a.server.ejects_applied - b.server.ejects_applied},
      {"wire.ejects_duplicate",
       a.server.ejects_duplicate - b.server.ejects_duplicate},
  };
  for (const auto& [name, value] : counts) (*sums)[name] += value;
}

double Seconds(int64_t nanos) { return static_cast<double>(nanos) / 1e9; }

double Ratio(double num, double den) { return num / std::max(den, 1.0); }

/// Peak resident memory so far, in MB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Keeps every thread of the process on one CPU at a time and moves them
/// all to the next CPU the process may use at each call. The client and
/// the wire server never run at once, so one CPU serves the whole chain
/// without cross-CPU wake-ups, whose delays would swamp the sync tails.
/// Moving on spreads a run over the CPUs: on a shared host each CPU
/// turns fast or slow for seconds at a time, with what else runs on its
/// physical core, and a run that stays on one CPU measures its luck.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    DIR* tasks = opendir("/proc/self/task");
    if (tasks == nullptr) return;
    while (dirent* task = readdir(tasks)) {
      if (task->d_name[0] == '.') continue;
      sched_setaffinity(static_cast<pid_t>(std::atoi(task->d_name)),
                        sizeof(set), &set);
    }
    closedir(tasks);
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// One system under test, built and warmed up.
struct Site {
  std::unique_ptr<TraceGenerator> trace;
  std::unique_ptr<Stack> stack;
  Samples warmup;
  std::unique_ptr<Client> client;

  void Reset() {
    client.reset();
    stack.reset();
    trace.reset();
    warmup = Samples();
  }
};

/// Seeds the tables, builds the stack, starts the wire and warms up: one
/// request per page, then one sync that registers the instances. Appends
/// the time taken, less the client's bookkeeping, to `setup_s`; false
/// (with a message) on any failure.
bool SetUp(const WorkloadSpec& spec, uint64_t seed, Tracer* tracer,
           Site* site, std::vector<double>* setup_s) {
  site->Reset();
  int64_t start = NowNanos();
  site->trace = std::make_unique<TraceGenerator>(spec, seed);
  Result<std::unique_ptr<Stack>> created =
      Stack::Create(spec, site->trace.get(), tracer);
  if (!created.ok()) {
    std::cerr << "setup failed: " << created.status().ToString() << "\n";
    return false;
  }
  site->stack = std::move(*created);
  site->client =
      std::make_unique<Client>(site->stack.get(), tracer, &site->warmup);
  for (uint32_t page = 0; page < static_cast<uint32_t>(spec.num_pages());
       ++page) {
    site->client->Request(page);
  }
  site->client->Sync();
  site->client->CheckEjects(false);
  setup_s->push_back(Seconds(NowNanos() - start - site->client->harness_ns()));
  if (site->warmup.errors.total() != 0) {
    std::cerr << "setup failed: warm-up saw errors\n";
    return false;
  }
  return true;
}

int Run(const Flags& flags) {
  std::optional<WorkloadSpec> found = FindWorkload(flags.workload, flags.tiny);
  if (!found.has_value()) {
    std::cerr << "unknown workload " << flags.workload
              << " (browse, write_heavy, many_pages)\n";
    return 2;
  }
  const WorkloadSpec spec = *found;
  const int64_t rounds = flags.rounds > 0 ? flags.rounds : spec.rounds;
  const bool traced = !flags.trace_out.empty();
  int64_t run_start = NowNanos();
  Tracer tracer(false);
  if (traced) tracer.Reserve(1 << 21);

  // ---- The timed mix: whole episodes until --seconds are used up. ----
  Samples samples;
  std::map<std::string, double> sums;
  std::vector<double> setup_s;
  Site site;
  CpuRotation rotation;
  int64_t timed_ns = 0;
  int64_t episodes = 0;
  double peak_rss_mb = 0;
  double map_rows = 0, instances = 0;
  int64_t mix_start = NowNanos();
  for (;;) {
    rotation.Next();
    if (!SetUp(spec, flags.seed, &tracer, &site, &setup_s)) return 2;
    Stack* stack = site.stack.get();
    Client* client = site.client.get();
    client->set_samples(&samples);
    Counters before = Counters::Read(stack);
    tracer.set_enabled(traced);
    Round round;
    for (int64_t n = 1; n <= rounds; ++n) {
      rotation.Next();
      site.trace->NextRound(&round);
      int64_t harness_before = client->harness_ns();
      int64_t start = NowNanos();
      for (const Op& op : round.ops) {
        if (op.update) {
          client->Update(round.updates[op.index]);
        } else {
          client->Request(op.index);
        }
      }
      client->Sync();
      timed_ns += NowNanos() - start - (client->harness_ns() - harness_before);
      bool oracle_round = n % spec.oracle_every == 0 || n == rounds;
      client->CheckEjects(oracle_round);
      if (oracle_round) client->RunOracle();
    }
    tracer.set_enabled(false);
    ++episodes;
    // Every episode does the same work, so the first one's peak is the
    // program's footprint for it, whatever the machine's speed.
    if (episodes == 1) peak_rss_mb = PeakRssMb();
    AddCounts(before, Counters::Read(stack), &sums);
    map_rows = static_cast<double>(stack->portal()->qiurl_map().size());
    instances = static_cast<double>(
        stack->portal()->invalidator().stats().instances_registered);
    // Another episode starts only while at least half of one fits in the
    // time left.
    int64_t elapsed = NowNanos() - mix_start;
    if (flags.rounds > 0 ||
        Seconds(elapsed + elapsed / episodes / 2) > flags.seconds) {
      break;
    }
  }
  int64_t mix_ns = NowNanos() - mix_start;

  bool spans_written = true;
  if (traced) spans_written = tracer.Write(flags.trace_out);

  // ---- Results. ----
  const Errors& errors = samples.errors;
  uint64_t attempted =
      samples.requests + samples.updates + samples.syncs + samples.ejects;
  std::map<std::string, double> counters = sums;
  counters["sniffer.map_rows"] = map_rows;
  counters["inval.instances"] = instances;
  counters["db.rows_per_query"] =
      Ratio(sums["db.page_rows"], sums["db.page_queries"]);
  counters["inval.checks_per_update"] =
      Ratio(sums["inval.instance_checks"], sums["inval.updates"]);
  counters["inval.precision_checked"] =
      static_cast<double>(samples.precision_checked);
  counters["inval.eject_precision"] =
      samples.precision_checked == 0
          ? 1.0
          : Ratio(static_cast<double>(samples.precision_changed),
                  static_cast<double>(samples.precision_checked));
  counters["wire.ejects_per_frame"] =
      Ratio(sums["wire.ejects_applied"], sums["wire.acks"]);
  uint64_t failed =
      errors.total() + static_cast<uint64_t>(sums["deliver.dead_lettered"]);
  double requests = static_cast<double>(samples.requests);

  std::ostringstream out;
  out.precision(9);
  out << "{\"workload\": \"" << spec.name << "\", \"seed\": " << flags.seed
      << ", \"correct\": " << (failed == 0 && spans_written ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"episodes\": " << episodes << ", \"rounds\": " << rounds
      << ", \"timed_s\": " << Seconds(timed_ns)
      << ", \"mix_s\": " << Seconds(mix_ns)
      << ", \"requests\": " << samples.requests
      << ", \"updates\": " << samples.updates
      << ", \"syncs\": " << samples.syncs
      << ", \"ejects\": " << samples.ejects
      << ", \"oracle_runs\": " << samples.oracle_runs
      << ", \"request_us\": " << Summary(&samples.request_us, 0.99)
      << ", \"sync_ms\": " << Summary(&samples.sync_ms, 0.9)
      << ", \"freshness_ms\": " << Summary(&samples.fresh_ms, 0.9)
      << ", \"hit_ratio\": "
      << Ratio(sums["cache.hits"], sums["cache.lookups"])
      << ", \"db_queries_per_request\": "
      << Ratio(sums["db.page_queries"] + sums["db.polls"], requests)
      << ", \"peak_rss_mb\": " << peak_rss_mb
      << ", \"errors\": {\"non_ok\": " << errors.non_ok
      << ", \"hit_mismatch\": " << errors.hit_mismatch
      << ", \"stale_front\": " << errors.stale_front
      << ", \"stale_edge\": " << errors.stale_edge
      << ", \"ejects_lost\": " << errors.ejects_lost
      << ", \"undrained\": " << errors.undrained << "}, \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  out << "}, \"layers\": [";
  for (size_t i = 0; i < static_cast<size_t>(Layer::kCount); ++i) {
    out << (i ? ", " : "") << "\"" << kLayerNames[i] << "\"";
  }
  out << "], \"spans\": " << tracer.size();
  int exit_code = errors.stale() != 0 ? 3 : 0;

  // Set-up time is the median over all set-ups: one per episode, plus
  // more until there are --setups of them.
  tracer = Tracer(false);
  while (static_cast<int>(setup_s.size()) < flags.setups) {
    rotation.Next();
    if (!SetUp(spec, flags.seed, &tracer, &site, &setup_s)) return 2;
  }
  site.Reset();
  out << ", \"setup_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    out << (i ? ", " : "") << setup_s[i];
  }
  out << "], \"run_s\": " << Seconds(NowNanos() - run_start) << "}";
  std::cout << out.str() << std::endl;
  return exit_code;
}

}  // namespace
}  // namespace cacheportal::perfbench

int main(int argc, char** argv) {
  cacheportal::perfbench::Flags flags;
  if (!cacheportal::perfbench::ParseFlags(argc, argv, &flags)) {
    std::cerr << "usage: cacheportal_bench --workload=NAME [--seed=N] "
                 "[--seconds=S] [--setups=N] [--rounds=N] [--tiny] "
                 "[--trace-out=PATH]\n";
    return 2;
  }
  return cacheportal::perfbench::Run(flags);
}
