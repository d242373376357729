#include "core/ed_weight_cache.hpp"

#include "core/tveg.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/assert.hpp"

namespace tveg::core {

namespace {

/// The process-wide tveg.cache.* counters. Events are counted into them as
/// they happen, so a metrics snapshot taken while a cache is alive sees
/// them.
struct CacheMetrics {
  obs::Counter& builds;
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
};

const CacheMetrics& metrics() {
  auto& registry = obs::MetricsRegistry::global();
  static const CacheMetrics m{registry.counter(obs::keys::kCacheBuilds),
                              registry.counter(obs::keys::kCacheHits),
                              registry.counter(obs::keys::kCacheMisses),
                              registry.counter(obs::keys::kCacheEvictions)};
  return m;
}

}  // namespace

EdWeightCache::EdWeightCache(Options options) : options_(options) {
  metrics().builds.add(1);
}

EdWeightCache::~EdWeightCache() {
  // Return this cache's footprint to the shared ledger before dying —
  // a governed process's MemBudget must not leak bytes across cache
  // lifetimes (Workbench rebuilds caches per view).
  if (options_.mem != nullptr)
    options_.mem->release(
        static_cast<std::size_t>(bytes_.load(std::memory_order_relaxed)));
}

void EdWeightCache::evict_shard(Shard& shard, std::size_t shard_index) const {
  const std::size_t dropped = shard.map.size();
  if (dropped == 0) return;
  const std::size_t freed = dropped * kApproxEntryBytes;
  evictions_.fetch_add(dropped, std::memory_order_relaxed);
  metrics().evictions.add(dropped);
  obs::flight_recorder().record(obs::FlightEventKind::kCacheEviction, dropped,
                                shard_index, "mem_pressure");
  shard.map.clear();
  bytes_.fetch_sub(freed, std::memory_order_relaxed);
  if (options_.mem != nullptr) options_.mem->release(freed);
  static obs::Gauge& resident =
      obs::MetricsRegistry::global().gauge(obs::keys::kMemCacheBytes);
  resident.set(static_cast<double>(bytes_.load(std::memory_order_relaxed)));
}

std::pair<std::uint64_t, std::size_t> EdWeightCache::locate(const Tveg& tveg,
                                                            std::size_t e,
                                                            Time t) const {
  const std::size_t segment = tveg.distance_segment(e, t);
  TVEG_ASSERT(segment < (std::uint64_t{1} << 32));
  const std::uint64_t key =
      (static_cast<std::uint64_t>(e) << 32) | static_cast<std::uint64_t>(segment);
  return {key, (e + segment * 0x9e3779b9u) % kShards};
}

const EdWeightCache::Entry EdWeightCache::lookup(const Tveg& tveg,
                                                 std::size_t e,
                                                 Time t) const {
  const auto [key, shard_index] = locate(tveg, e, t);
  Shard& shard = shards_[shard_index];
  {
    support::MutexLock lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      count_hit();
      return it->second;
    }
  }
  // Miss: materialize outside the lock (bisection for Nakagami/Rician is the
  // expensive part); a racing filler computes the identical value, so the
  // duplicate work is harmless and emplace keeps the first. Fills are spans
  // (a run dominated by ed_cache_fill is a cold or thrashing cache); hits
  // are only counted — a span per hit would flood the span rings.
  misses_.fetch_add(1, std::memory_order_relaxed);
  metrics().misses.add(1);
  obs::Span fill_span("ed_cache_fill");
  Entry entry;
  entry.ed = tveg.materialize_ed(e, t);
  entry.weight = entry.ed->min_cost_for(tveg.radio().epsilon);
  support::MutexLock lock(shard.mutex);
  // Ledger pressure: evicting the shard being inserted into frees the most
  // likely-stale entries reachable without taking a second lock, and
  // handed-out shared_ptrs keep in-flight ED-functions alive regardless.
  if (options_.mem != nullptr && options_.mem->over())
    evict_shard(shard, shard_index);
  shard.map.emplace(key, entry);
  bytes_.fetch_add(kApproxEntryBytes, std::memory_order_relaxed);
  if (options_.mem != nullptr) options_.mem->charge(kApproxEntryBytes);
  return entry;
}

std::shared_ptr<const channel::EdFunction> EdWeightCache::ed(const Tveg& tveg,
                                                             std::size_t e,
                                                             Time t) const {
  return lookup(tveg, e, t).ed;
}

Cost EdWeightCache::edge_weight(const Tveg& tveg, std::size_t e,
                                Time t) const {
  // Weight-only fast path: the aux-graph DCS precompute calls this once per
  // (slot, neighbor) pair, and copying the full Entry out of lookup() costs
  // an atomic shared_ptr refcount round-trip per hit. On a hit, read the
  // plain double under the shard lock and never touch the control block.
  const auto [key, shard_index] = locate(tveg, e, t);
  Shard& shard = shards_[shard_index];
  {
    support::MutexLock lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      count_hit();
      return it->second.weight;
    }
  }
  return lookup(tveg, e, t).weight;
}

void EdWeightCache::count_hit() const {
  hits_.fetch_add(1, std::memory_order_relaxed);
  metrics().hits.add(1);
}

EdWeightCache::Stats EdWeightCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.approx_bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace tveg::core
