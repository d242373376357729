// Memoization of ED-function materialization and min-cost edge weights.
//
// Every consumer of a Tveg — auxiliary-graph construction, the prune pass's
// cascade feasibility checks, FR backbone selection, NLP coverage, and the
// Monte-Carlo executor — ultimately materializes the ED-function of an
// (edge, time) pair from the edge's piecewise-constant distance profile and
// then evaluates it (a heap allocation plus, for Nakagami/Rician, a
// 200-step bisection per min-cost query). The channel is constant on each
// distance-profile segment, so there are only |edges| × |segments| distinct
// ED-functions per TVEG; this cache memoizes them (and their min-cost
// weight at the radio's ε) keyed by (edge, segment) — the refinement of the
// (edge, DTS-interval, ε) key: DTS intervals subdivide profile segments, so
// one entry serves every DTS point of the segment.
//
// Thread safety: lookups are safe from concurrent readers (sharded
// mutex-protected maps; entries are immutable once inserted and handed out
// as shared_ptr so eviction can never free an ED-function mid-use).
// Attach/detach (Tveg::attach_cache) must not race with lookups.
//
// Correctness: entries are built by the exact same code path as the
// uncached Tveg queries (Tveg::materialize_ed), so cached results are
// bit-identical to the memoization-free ones — the differential suite
// (tests/diff/) pins this.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

#include "channel/ed_function.hpp"
#include "support/mem_budget.hpp"
#include "tvg/types.hpp"

namespace tveg::core {

class Tveg;

/// Shared, thread-safe memo of per-(edge, distance-segment) ED-functions
/// and their ε-cost edge weights.
class EdWeightCache {
 public:
  struct Options {
    /// Optional byte ledger, the cache's one eviction trigger: every insert
    /// charges it and every eviction releases it, and an insert while the
    /// ledger is over its limit first evicts the shard it lands in (whole
    /// shards at a time — cheap, and correctness is unaffected since
    /// entries are pure memos). Several caches may share one ledger, so
    /// one aggregate bound governs them all. Must outlive the cache;
    /// nullptr = unbounded.
    support::MemBudget* mem = nullptr;
  };

  /// Approximate resident bytes per entry: map node + Entry + shared_ptr
  /// control block + the (small, vtable + a few doubles) EdFunction object.
  /// Deliberately a round, stable constant so byte budgets translate
  /// predictably into entry counts.
  static constexpr std::size_t kApproxEntryBytes = 160;

  explicit EdWeightCache(Options options);
  EdWeightCache() : EdWeightCache(Options{}) {}
  ~EdWeightCache();

  EdWeightCache(const EdWeightCache&) = delete;
  EdWeightCache& operator=(const EdWeightCache&) = delete;

  /// The memoized ED-function of edge `e` of `tveg` at time `t` (present
  /// edge assumed — adjacency is the caller's check, exactly as in
  /// Tveg::ed_function).
  std::shared_ptr<const channel::EdFunction> ed(const Tveg& tveg,
                                                std::size_t e, Time t) const;

  /// The memoized min-cost weight at the radio's ε for edge `e` at `t`.
  Cost edge_weight(const Tveg& tveg, std::size_t e, Time t) const;

  /// Counter snapshot of this cache (monotone). The same events are also
  /// counted, as they happen, into the process-wide obs registry under
  /// tveg.cache.*.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;  ///< entries dropped by ledger pressure
    /// Approximate current resident footprint (entries × kApproxEntryBytes).
    std::uint64_t approx_bytes = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const channel::EdFunction> ed;
    Cost weight = 0;
  };
  struct Shard {
    mutable support::Mutex mutex;
    std::unordered_map<std::uint64_t, Entry> map TVEG_GUARDED_BY(mutex);
  };
  static constexpr std::size_t kShards = 16;

  const Entry lookup(const Tveg& tveg, std::size_t e, Time t) const;
  void count_hit() const;
  /// (key, shard index) of edge `e` at time `t`.
  std::pair<std::uint64_t, std::size_t> locate(const Tveg& tveg, std::size_t e,
                                               Time t) const;

  /// Clears `shard` (already locked by the caller), returning its bytes to
  /// the ledger and counting the eviction.
  void evict_shard(Shard& shard, std::size_t shard_index) const
      TVEG_REQUIRES(shard.mutex);

  Options options_;
  mutable Shard shards_[kShards];
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
  /// Approximate resident bytes (kApproxEntryBytes per entry), mirrored
  /// into options_.mem when attached.
  mutable std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace tveg::core
