#ifndef CACHEPORTAL_PERFBENCH_TRACER_H_
#define CACHEPORTAL_PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace cacheportal::perfbench {

/// One span name per boundary the benchmark times from outside the
/// library. The db query spans carry the page class of the request that
/// issued them, so per-class query times need no second pass.
enum class Layer : uint8_t {
  kProxy,       // core::CachingProxy::Handle (request root).
  kApp,         // server::ApplicationServer::Handle (miss only).
  kServlet,     // The benchmark's servlet body (render).
  kSniffer,     // Connection outside CachePortal::WrapDriver.
  kDbLight,     // Connection inside WrapDriver, light page query.
  kDbMedium,    // ... medium page query.
  kDbHeavy,     // ... heavy page query.
  kDbUpdate,    // Database::ExecuteSql of one update (update root).
  kDbPoll,      // Invalidator polling connection.
  kSync,        // One sync point (sync root): cycle plus drain.
  kCycle,       // core::CachePortal::RunCycle.
  kEnqueue,     // Edge sink call in front of the delivery queue.
  kDrain,       // ReliableDeliveryQueue drain to the edge over TCP.
  kCount,
};

inline constexpr const char* kLayerNames[] = {
    "proxy",          "app",           "servlet",  "sniffer",
    "db.query.light", "db.query.medium", "db.query.heavy", "db.update",
    "db.poll",        "sync",          "cycle",    "deliver.enqueue",
    "deliver.drain",
};
static_assert(sizeof(kLayerNames) / sizeof(kLayerNames[0]) ==
              static_cast<size_t>(Layer::kCount));

/// Monotonic nanoseconds (steady_clock); the library itself runs on a
/// ManualClock, so wall time is read only here.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder for one client thread. Spans are stored as
/// parallel arrays (the on-disk layout too) and written out once, when
/// the run ends. Disabled, every call is a branch and nothing else.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Starts the next operation (request, update or sync): the following
  /// spans carry its id. Ids run on across episodes.
  void NextOp() { ++op_; }

  /// Page class (0 light, 1 medium, 2 heavy) of the request in flight;
  /// picks the db query span name.
  void set_page_class(int cls) { page_class_ = cls; }
  int page_class() const { return page_class_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when tracing is off.
  int32_t Begin(Layer layer) {
    if (!enabled_) return -1;
    int32_t id = static_cast<int32_t>(layer_.size());
    layer_.push_back(static_cast<uint8_t>(layer));
    parent_.push_back(stack_.empty() ? -1 : stack_.back());
    op_id_.push_back(op_);
    start_.push_back(NowNanos());
    end_.push_back(0);
    stack_.push_back(id);
    return id;
  }

  void End(int32_t id) {
    if (id < 0) return;
    end_[static_cast<size_t>(id)] = NowNanos();
    stack_.pop_back();
  }

  size_t size() const { return layer_.size(); }
  void Reserve(size_t n);

  /// Writes the spans as a little-endian binary file: magic "CPSPANS1",
  /// u64 count, then the arrays layer[u8], parent[i32], op[u32],
  /// start_ns[i64], end_ns[i64], each `count` long.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  uint32_t op_ = 0;
  int page_class_ = 0;
  std::vector<int32_t> stack_;
  std::vector<uint8_t> layer_;
  std::vector<int32_t> parent_;
  std::vector<uint32_t> op_id_;
  std::vector<int64_t> start_;
  std::vector<int64_t> end_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer)
      : tracer_(tracer), id_(tracer->Begin(layer)) {}
  ~ScopedSpan() { tracer_->End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace cacheportal::perfbench

#endif  // CACHEPORTAL_PERFBENCH_TRACER_H_
