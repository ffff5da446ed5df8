#ifndef HDIDX_IO_KEYED_LRU_CACHE_H_
#define HDIDX_IO_KEYED_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <utility>

#include "common/check.h"

namespace hdidx::io {

/// A generic LRU cache from an ordered key to a shared immutable value:
/// cached artifacts (built mini-indexes, generated workloads, full
/// prediction results) in the serving layer, and simulated buffer-pool
/// pages in bench_ablations' A5 replay.
///
/// Values are held as shared_ptr<const Value> so a cached artifact stays
/// valid for a caller even if a concurrent insertion evicts it from the
/// cache. The cache itself is NOT thread-safe; the prediction service keeps
/// one instance per shard, touched only by that shard's worker.
///
/// The cache charges no simulated I/O: what a hit saves is whatever the
/// caller would have spent recomputing (and re-charging) the value — the
/// service reports that separately.
template <typename Key, typename Value>
class KeyedLruCache {
 public:
  /// Cache holding at most `capacity` entries; 0 disables caching (Get
  /// always misses, Put is a no-op that still counts an eviction-free miss
  /// path).
  explicit KeyedLruCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the cached value and refreshes its recency, or nullptr on miss.
  std::shared_ptr<const Value> Get(const Key& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    return it->second->second;
  }

  /// Inserts (or refreshes) `value` under `key`, evicting least recently
  /// used entries while over capacity.
  void Put(const Key& key, std::shared_ptr<const Value> value) {
    if (capacity_ == 0) return;
    const auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->second = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, std::move(value));
    map_[key] = lru_.begin();
    while (map_.size() > capacity_) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
      ++evictions_;
    }
    CheckInvariants();
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return map_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  double HitRate() const {
    const uint64_t total = hits_ + misses_;
    return total == 0
               ? 0.0
               : static_cast<double>(hits_) / static_cast<double>(total);
  }

  /// Empties the cache and zeroes all counters.
  void Clear() {
    lru_.clear();
    map_.clear();
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
  }

 private:
  /// Structural audit after every mutation: map and recency list agree and
  /// occupancy respects capacity (the bound Put's eviction loop maintains).
  void CheckInvariants() const {
    HDIDX_CHECK_OP(==, map_.size(), lru_.size());
    HDIDX_CHECK(capacity_ == 0 || map_.size() <= capacity_)
        << "cache over capacity: " << map_.size() << " > " << capacity_;
  }

  using Entry = std::pair<Key, std::shared_ptr<const Value>>;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::map<Key, typename std::list<Entry>::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace hdidx::io

#endif  // HDIDX_IO_KEYED_LRU_CACHE_H_
