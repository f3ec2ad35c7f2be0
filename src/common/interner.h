#ifndef CACHEPORTAL_COMMON_INTERNER_H_
#define CACHEPORTAL_COMMON_INTERNER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cacheportal {

/// Dense id of a query instance's SQL text.
using QueryId = uint32_t;
/// Dense id of a page's cache key.
using PageId = uint32_t;

/// Hands out dense ids for strings, reference counted. An id names its
/// text while at least one reference is held; the last Release frees the
/// text, and the id becomes reusable only after the next Reclaim(), so a
/// holder of an unreferenced id (a cycle in progress) never sees it
/// rebound to other text in between.
///
/// Thread-safe. Its lock is a leaf: callers may hold their own locks
/// while calling in, and nothing here calls out.
class TextInterner {
 public:
  TextInterner() = default;
  TextInterner(const TextInterner&) = delete;
  TextInterner& operator=(const TextInterner&) = delete;

  /// The id of `text`, minting one if the text has none; takes one
  /// reference.
  uint32_t Acquire(std::string_view text);
  /// Takes one more reference on `id`, which must be referenced.
  void Ref(uint32_t id);
  /// Drops one reference on `id`.
  void Release(uint32_t id);
  /// The id naming `text` now, without taking a reference.
  std::optional<uint32_t> Find(std::string_view text) const;
  /// The text of `id`. The reference stays valid while `id` is
  /// referenced; a freed id reads as empty.
  const std::string& Text(uint32_t id) const;
  /// Makes the ids freed since the previous call reusable.
  void Reclaim();

  /// Ids currently referenced.
  size_t live() const;
  /// Ids ever minted and not yet reused: every id is below this.
  size_t capacity() const;

 private:
  struct Slot {
    std::string text;
    uint32_t refs = 0;
  };
  /// One entry of the open-addressing text index. It carries the text's
  /// bytes by pointer, so a probe compares without touching the slot.
  struct IndexEntry {
    static constexpr uint32_t kEmpty = ~0u;
    size_t hash = 0;
    const char* data = nullptr;
    uint32_t size = 0;
    uint32_t id = kEmpty;
  };

  /// Position of `text`'s index entry, or of the empty entry ending its
  /// probe run. Caller holds mu_.
  size_t ProbeLocked(std::string_view text, size_t hash) const;
  void IndexInsertLocked(size_t hash, uint32_t id);
  void IndexEraseLocked(size_t pos);

  mutable std::shared_mutex mu_;
  // A deque: growing it never moves a slot, so Text() references and the
  // bytes the index points at stay put.
  std::deque<Slot> slots_;
  // Linear probing, at most half full, power-of-two sized.
  std::vector<IndexEntry> index_ = std::vector<IndexEntry>(16);
  size_t live_ = 0;
  std::vector<uint32_t> reusable_;
  std::vector<uint32_t> freed_;  // Since the last Reclaim.
};

/// The two id spaces the QI/URL map and the metadata plane share.
struct IdInterner {
  TextInterner queries;
  TextInterner pages;

  void Reclaim() {
    queries.Reclaim();
    pages.Reclaim();
  }
};

}  // namespace cacheportal

#endif  // CACHEPORTAL_COMMON_INTERNER_H_
