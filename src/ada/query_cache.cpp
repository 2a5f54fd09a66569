#include "ada/query_cache.hpp"

#include <functional>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/warn.hpp"

namespace ada::core {

namespace {

std::string make_key(const std::string& logical_name, const Tag& tag) {
  std::string key;
  key.reserve(logical_name.size() + 1 + tag.size());
  key += logical_name;
  key += '\0';
  key += tag;
  return key;
}

}  // namespace

QueryCache::QueryCache(std::uint64_t budget_bytes, std::size_t shard_count)
    : budget_(budget_bytes) {
  if (shard_count == 0) shard_count = 1;
  shard_budget_ = budget_ / shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) shards_.push_back(std::make_unique<Shard>());
}

QueryCache::Shard& QueryCache::shard_of(const std::string& logical_name) {
  return *shards_[std::hash<std::string>{}(logical_name) % shards_.size()];
}

void QueryCache::publish_bytes() const {
  if (!obs::enabled()) return;
  static obs::Gauge& gauge = obs::Registry::global().gauge("cache.bytes");
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->bytes;
  }
  gauge.set(static_cast<double>(total));
}

QueryCache::Image QueryCache::locked_lookup(Shard& shard, const std::string& key,
                                            std::uint64_t generation, bool* stale_drop) {
  const auto it = shard.by_key.find(key);
  if (it == shard.by_key.end()) return nullptr;
  if (it->second->generation == generation) {
    // Hit: move to the front of the LRU and hand out a reference.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->image;
  }
  // The container mutated since this entry was filled: the bytes may no
  // longer match disk.  Drop, report a miss.
  *stale_drop = true;
  shard.bytes -= it->second->image->size();
  shard.lru.erase(it->second);
  shard.by_key.erase(it);
  return nullptr;
}

QueryCache::Image QueryCache::lookup_or_fill(const std::string& logical_name, const Tag& tag,
                                             std::uint64_t generation, FillGuard* guard) {
  const std::string key = make_key(logical_name, tag);
  Shard& shard = shard_of(logical_name);
  std::uint64_t stale_drops = 0;
  Image image;
  bool leader = false;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    for (;;) {
      bool stale = false;
      image = locked_lookup(shard, key, generation, &stale);
      if (stale) ++stale_drops;
      if (image != nullptr) break;
      const auto it = shard.fills.find(key);
      if (it != shard.fills.end() && it->second->generation == generation) {
        // Another caller is already reading these bytes: wait for its
        // guard to resolve instead of paying a duplicate backend read,
        // then re-check (hit on its insert, or take over leadership).
        const std::shared_ptr<Fill> fill = it->second;
        fill->cv.wait(lock, [&] { return fill->resolved; });
        continue;
      }
      // True miss: claim sole leadership for (key, generation).  A flight
      // registered under an older generation is stale -- displace it from
      // the directory (its own guard still wakes its waiters) and fill
      // under the generation we observed.
      auto fill = std::make_shared<Fill>();
      fill->generation = generation;
      shard.fills[key] = fill;
      *guard = FillGuard(this, &shard, key, std::move(fill));
      leader = true;
      break;
    }
  }
  if (image != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    ADA_OBS_COUNT("cache.hits", 1);
  } else if (leader) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    ADA_OBS_COUNT("cache.misses", 1);
  }
  if (stale_drops != 0) {
    invalidations_.fetch_add(stale_drops, std::memory_order_relaxed);
    ADA_OBS_COUNT("cache.invalidations", stale_drops);
    publish_bytes();
  }
  return image;
}

void QueryCache::resolve_fill(Shard& shard, const std::string& key,
                              const std::shared_ptr<Fill>& fill) {
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.fills.find(key);
    if (it != shard.fills.end() && it->second == fill) shard.fills.erase(it);
    fill->resolved = true;
  }
  fill->cv.notify_all();
}

void QueryCache::FillGuard::reset() {
  if (fill_ != nullptr) cache_->resolve_fill(*shard_, key_, fill_);
  fill_ = nullptr;
  cache_ = nullptr;
  shard_ = nullptr;
  key_.clear();
}

void QueryCache::evict_for(Shard& shard, std::uint64_t needed) {
  while (!shard.lru.empty() && shard.bytes + needed > shard_budget_) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.image->size();
    shard.by_key.erase(victim.key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    ADA_OBS_COUNT("cache.evictions", 1);
  }
}

QueryCache::Image QueryCache::insert(const std::string& logical_name, const Tag& tag,
                                     std::uint64_t generation, std::vector<std::uint8_t> bytes) {
  const std::uint64_t size = bytes.size();
  Image image = std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  if (size > shard_budget_) {
    // Would evict the whole shard for one entry; serve it uncached instead.
    ADA_OBS_COUNT("cache.bypass", 1);
    obs::warn(obs::WarnSeverity::kWarn, "cache-bypass",
              make_key(logical_name, tag) + ": subset of " + std::to_string(size) +
                  " bytes exceeds the per-shard budget of " +
                  std::to_string(shard_budget_) + " bytes");
    return image;
  }
  Entry entry;
  entry.key = make_key(logical_name, tag);
  entry.logical_name = logical_name;
  entry.generation = generation;
  entry.image = std::move(image);
  Shard& shard = shard_of(logical_name);
  bool duplicate = false;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.by_key.find(entry.key);
    if (it != shard.by_key.end()) {
      if (it->second->generation == generation) {
        // A concurrent cold miss on the same key won the race: this fill's
        // backend read was pure duplicate work.  Keep (and return) the
        // incumbent image so every caller shares one allocation.
        duplicate = true;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        entry.image = it->second->image;
      } else {
        // Refill after invalidation (or a newer-generation fill).  Readers
        // of the old image keep their reference.
        shard.bytes -= it->second->image->size();
        shard.lru.erase(it->second);
        shard.by_key.erase(it);
      }
    }
    if (!duplicate) {
      evict_for(shard, size);
      shard.lru.push_front(entry);
      shard.by_key[shard.lru.front().key] = shard.lru.begin();
      shard.bytes += size;
    }
  }
  if (duplicate) {
    duplicate_fills_.fetch_add(1, std::memory_order_relaxed);
    ADA_OBS_COUNT("cache.duplicate_fills", 1);
  }
  publish_bytes();
  return entry.image;
}

void QueryCache::invalidate(const std::string& logical_name) {
  Shard& shard = shard_of(logical_name);
  std::uint64_t dropped = 0;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->logical_name == logical_name) {
        shard.bytes -= it->image->size();
        shard.by_key.erase(it->key);
        it = shard.lru.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  if (dropped != 0) {
    invalidations_.fetch_add(dropped, std::memory_order_relaxed);
    ADA_OBS_COUNT("cache.invalidations", dropped);
    publish_bytes();
  }
}

void QueryCache::clear() {
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->by_key.clear();
    shard->bytes = 0;
  }
  publish_bytes();
}

QueryCache::Stats QueryCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  stats.duplicate_fills = duplicate_fills_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    stats.bytes += shard->bytes;
    stats.entries += shard->lru.size();
  }
  return stats;
}

}  // namespace ada::core
