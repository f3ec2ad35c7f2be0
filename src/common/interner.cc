#include "common/interner.h"

#include <cstring>
#include <functional>
#include <mutex>

namespace cacheportal {

size_t TextInterner::ProbeLocked(std::string_view text, size_t hash) const {
  const size_t mask = index_.size() - 1;
  for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const IndexEntry& entry = index_[pos];
    if (entry.id == IndexEntry::kEmpty ||
        (entry.hash == hash && entry.size == text.size() &&
         std::memcmp(entry.data, text.data(), text.size()) == 0)) {
      return pos;
    }
  }
}

void TextInterner::IndexInsertLocked(size_t hash, uint32_t id) {
  if ((live_ + 1) * 2 > index_.size()) {
    std::vector<IndexEntry> old(index_.size() * 2);
    old.swap(index_);
    for (const IndexEntry& entry : old) {
      if (entry.id == IndexEntry::kEmpty) continue;
      const size_t mask = index_.size() - 1;
      size_t pos = entry.hash & mask;
      while (index_[pos].id != IndexEntry::kEmpty) pos = (pos + 1) & mask;
      index_[pos] = entry;
    }
  }
  const std::string& text = slots_[id].text;
  index_[ProbeLocked(text, hash)] = {hash, text.data(),
                                     static_cast<uint32_t>(text.size()), id};
  ++live_;
}

void TextInterner::IndexEraseLocked(size_t pos) {
  // Backward-shift deletion: pull later entries of the run into the hole
  // unless that would move one before its home position.
  const size_t mask = index_.size() - 1;
  for (size_t next = (pos + 1) & mask;
       index_[next].id != IndexEntry::kEmpty; next = (next + 1) & mask) {
    size_t home = index_[next].hash & mask;
    bool movable = pos <= next ? (home <= pos || home > next)
                               : (home <= pos && home > next);
    if (movable) {
      index_[pos] = index_[next];
      pos = next;
    }
  }
  index_[pos] = IndexEntry{};
  --live_;
}

uint32_t TextInterner::Acquire(std::string_view text) {
  const size_t hash = std::hash<std::string_view>{}(text);
  std::unique_lock<std::shared_mutex> lock(mu_);
  const IndexEntry& found = index_[ProbeLocked(text, hash)];
  if (found.id != IndexEntry::kEmpty) {
    ++slots_[found.id].refs;
    return found.id;
  }
  uint32_t id;
  if (!reusable_.empty()) {
    id = reusable_.back();
    reusable_.pop_back();
  } else {
    id = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[id];
  slot.text.assign(text);
  slot.refs = 1;
  IndexInsertLocked(hash, id);
  return id;
}

void TextInterner::Ref(uint32_t id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  ++slots_[id].refs;
}

void TextInterner::Release(uint32_t id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Slot& slot = slots_[id];
  if (--slot.refs > 0) return;
  IndexEraseLocked(
      ProbeLocked(slot.text, std::hash<std::string_view>{}(slot.text)));
  std::string().swap(slot.text);
  freed_.push_back(id);
}

std::optional<uint32_t> TextInterner::Find(std::string_view text) const {
  const size_t hash = std::hash<std::string_view>{}(text);
  std::shared_lock<std::shared_mutex> lock(mu_);
  const IndexEntry& found = index_[ProbeLocked(text, hash)];
  if (found.id == IndexEntry::kEmpty) return std::nullopt;
  return found.id;
}

const std::string& TextInterner::Text(uint32_t id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return slots_[id].text;
}

void TextInterner::Reclaim() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  reusable_.insert(reusable_.end(), freed_.begin(), freed_.end());
  freed_.clear();
}

size_t TextInterner::live() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return live_;
}

size_t TextInterner::capacity() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return slots_.size();
}

}  // namespace cacheportal
