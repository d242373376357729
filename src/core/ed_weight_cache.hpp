// Memoization of ED-function materialization and min-cost edge weights.
//
// Every consumer of a Tveg — auxiliary-graph construction, the prune pass's
// cascade feasibility checks, FR backbone selection, NLP coverage, and the
// Monte-Carlo executor — ultimately materializes the ED-function of an
// (edge, time) pair from the edge's piecewise-constant distance profile and
// then evaluates it (a heap allocation plus, for Nakagami/Rician, a
// 200-step bisection per min-cost query). The channel is constant on each
// distance-profile segment, so there are only Σ_e |segments(e)| distinct
// ED-functions per TVEG; this cache is a dense table with one slot per
// (edge, segment) — Tveg::ed_slot numbers them — holding the ED-function
// and its min-cost weight at the radio's ε. DTS intervals subdivide profile
// segments, so one slot serves every DTS point of its segment.
//
// Thread safety: Tveg::attach_cache binds the cache to one Tveg and sizes
// the table once. Lookups take no lock: each slot is an atomic pointer
// filled at most once — racing fillers materialize the identical value and
// the first to publish wins (release/acquire). A filled slot is immutable
// and lives as long as the cache, so ed() hands out plain references.
// Attach/detach must not race with lookups.
//
// Correctness: slots are filled by the exact same code path as the
// uncached Tveg queries (Tveg::materialize_ed), so cached results are
// bit-identical to the memoization-free ones — the differential suite
// (tests/diff/) pins this.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "channel/ed_function.hpp"
#include "obs/metrics.hpp"
#include "tvg/types.hpp"

namespace tveg::core {

class Tveg;

/// Lock-free dense memo of per-(edge, distance-segment) ED-functions and
/// their ε-cost edge weights, bound to one Tveg.
class EdWeightCache {
 public:
  EdWeightCache();
  ~EdWeightCache();

  EdWeightCache(const EdWeightCache&) = delete;
  EdWeightCache& operator=(const EdWeightCache&) = delete;

  /// The memoized ED-function of edge `e` of `tveg` (the bound Tveg) at time
  /// `t` (present edge assumed — adjacency is the caller's check, exactly as
  /// in Tveg::ed_function). Valid for the cache's lifetime.
  const channel::EdFunction& ed(const Tveg& tveg, std::size_t e,
                                Time t) const;

  /// The memoized min-cost weight at the radio's ε for edge `e` at `t`.
  Cost edge_weight(const Tveg& tveg, std::size_t e, Time t) const;

  /// Counter snapshot of this cache (monotone): a miss is a slot fill, a hit
  /// any other lookup. The same events are also counted, as they happen,
  /// into the process-wide obs registry under tveg.cache.*.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  Stats stats() const;

 private:
  friend class Tveg;
  /// Binds the cache to `tveg` and sizes its table; a cache serves one Tveg.
  void bind(const Tveg& tveg);

  struct Entry {
    std::unique_ptr<const channel::EdFunction> ed;
    Cost weight = 0;
  };
  const Entry& lookup(const Tveg& tveg, std::size_t e, Time t) const;

  const Tveg* bound_ = nullptr;
  /// One slot per (edge, distance segment); null until filled.
  mutable std::vector<std::atomic<const Entry*>> slots_;
  /// Sharded like the registry's counters, so parallel readers (aux DCS
  /// precompute, Monte-Carlo trials) do not contend on one cache line.
  mutable obs::Counter hits_;
  mutable obs::Counter misses_;
};

}  // namespace tveg::core
