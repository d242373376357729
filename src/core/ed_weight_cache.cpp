#include "core/ed_weight_cache.hpp"

#include "core/tveg.hpp"
#include "obs/keys.hpp"
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
};

const CacheMetrics& metrics() {
  auto& registry = obs::MetricsRegistry::global();
  static const CacheMetrics m{registry.counter(obs::keys::kCacheBuilds),
                              registry.counter(obs::keys::kCacheHits),
                              registry.counter(obs::keys::kCacheMisses)};
  return m;
}

}  // namespace

EdWeightCache::EdWeightCache() { metrics().builds.add(1); }

EdWeightCache::~EdWeightCache() {
  for (const auto& slot : slots_) delete slot.load(std::memory_order_relaxed);
}

void EdWeightCache::bind(const Tveg& tveg) {
  TVEG_REQUIRE(bound_ == nullptr || bound_ == &tveg,
               "an EdWeightCache serves one Tveg");
  if (bound_ != nullptr) return;
  bound_ = &tveg;
  slots_ = std::vector<std::atomic<const Entry*>>(tveg.ed_slot_count());
}

const EdWeightCache::Entry& EdWeightCache::lookup(const Tveg& tveg,
                                                  std::size_t e,
                                                  Time t) const {
  const std::size_t slot = tveg.ed_slot(e, t);
  TVEG_ASSERT(slot < slots_.size());
  std::atomic<const Entry*>& cell = slots_[slot];
  const Entry* entry = cell.load(std::memory_order_acquire);
  if (entry == nullptr) {
    // Fills are spans (a run dominated by ed_cache_fill is a cold table);
    // hits are only counted — a span per hit would flood the span rings.
    obs::Span fill_span("ed_cache_fill");
    auto fresh = std::make_unique<Entry>();
    fresh->ed = tveg.materialize_ed(e, t);
    fresh->weight = fresh->ed->min_cost_for(tveg.radio().epsilon);
    // A racing filler computed the identical value; the first to publish
    // wins and the loser's lookup counts as a hit.
    if (cell.compare_exchange_strong(entry, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      misses_.add(1);
      metrics().misses.add(1);
      return *fresh.release();
    }
  }
  hits_.add(1);
  metrics().hits.add(1);
  return *entry;
}

const channel::EdFunction& EdWeightCache::ed(const Tveg& tveg, std::size_t e,
                                             Time t) const {
  return *lookup(tveg, e, t).ed;
}

Cost EdWeightCache::edge_weight(const Tveg& tveg, std::size_t e,
                                Time t) const {
  return lookup(tveg, e, t).weight;
}

EdWeightCache::Stats EdWeightCache::stats() const {
  // obs::Counter::value() is a sum over shards, not a Result accessor.
  return Stats{.hits = hits_.value(),      // tveg-lint: allow(unchecked-result)
               .misses = misses_.value()};  // tveg-lint: allow(unchecked-result)
}

}  // namespace tveg::core
