// EdWeightCache property tests: cached queries must be indistinguishable —
// bit for bit — from the memoization-free Tveg, under random interleaved
// lookups, under capacity pressure (whole-shard eviction), and under
// concurrent readers (the TSan tier runs the stress test instrumented).
#include "core/ed_weight_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/tveg.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "trace/generators.hpp"

namespace tveg::core {
namespace {

channel::RadioParams unit_radio() {
  channel::RadioParams r;
  r.noise_density = 1.0;
  r.decoding_threshold_db = 0.0;
  r.path_loss_exponent = 2.0;
  r.epsilon = 0.01;
  r.w_max = support::kInf;
  return r;
}

trace::ContactTrace random_trace(std::uint64_t seed) {
  trace::SnapshotConfig cfg;
  cfg.nodes = 8;
  cfg.slot = 10;
  cfg.horizon = 200;
  cfg.p = 0.3;
  cfg.seed = seed;
  return trace::generate_snapshots(cfg);
}

Tveg::Options model_options(channel::ChannelModel model) {
  Tveg::Options o;
  o.model = model;
  return o;
}

/// Randomized interleaved lookups against a memo-free twin, across all four
/// channel models (Nakagami/Rician exercise the bisection-backed min-cost).
TEST(EdWeightCache, MatchesMemoFreeReferenceExactly) {
  for (const auto model :
       {channel::ChannelModel::kStep, channel::ChannelModel::kRayleigh,
        channel::ChannelModel::kNakagami, channel::ChannelModel::kRician}) {
    const trace::ContactTrace t = random_trace(7);
    const Tveg reference(t, unit_radio(), model_options(model));
    Tveg cached(t, unit_radio(), model_options(model));
    cached.attach_cache(std::make_shared<EdWeightCache>());

    support::Rng rng(42);
    const auto n = reference.node_count();
    for (int q = 0; q < 2000; ++q) {
      const auto a = static_cast<NodeId>(rng.uniform_int(
          static_cast<std::uint64_t>(n)));
      const auto b = static_cast<NodeId>(rng.uniform_int(
          static_cast<std::uint64_t>(n)));
      if (a == b) continue;
      const Time time = rng.uniform(0.0, 200.0);
      // Exact equality, not near-equality: the cache must route through the
      // identical materialization code path.
      ASSERT_EQ(reference.edge_weight(a, b, time),
                cached.edge_weight(a, b, time))
          << "model " << static_cast<int>(model) << " pair " << a << "," << b
          << " t=" << time;
      const Cost w = rng.uniform(0.0, 10.0);
      ASSERT_EQ(reference.failure_probability(a, b, time, w),
                cached.failure_probability(a, b, time, w));
    }
    const auto stats = cached.cache()->stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.misses, 0u);
  }
}

/// The discrete cost sets (the aux-graph input) must agree as well — they
/// aggregate many edge weights and feed the schedule directly.
TEST(EdWeightCache, DiscreteCostSetsMatch) {
  const trace::ContactTrace t = random_trace(11);
  const Tveg reference(t, unit_radio(),
                       model_options(channel::ChannelModel::kRayleigh));
  Tveg cached(t, unit_radio(),
              model_options(channel::ChannelModel::kRayleigh));
  cached.attach_cache(std::make_shared<EdWeightCache>());

  for (NodeId i = 0; i < reference.node_count(); ++i)
    for (Time time : {0.0, 25.0, 99.5, 150.0, 199.0}) {
      const auto ref = reference.discrete_cost_set(i, time);
      const auto got = cached.discrete_cost_set(i, time);
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t k = 0; k < ref.size(); ++k) {
        EXPECT_EQ(ref[k].cost, got[k].cost);
        EXPECT_EQ(ref[k].neighbor, got[k].neighbor);
      }
    }
}

/// A pathologically small ledger forces whole-shard evictions mid-stream;
/// results must stay exact and the eviction counter must move.
TEST(EdWeightCache, EvictionPreservesCorrectness) {
  const trace::ContactTrace t = random_trace(3);
  const Tveg reference(t, unit_radio(),
                       model_options(channel::ChannelModel::kNakagami));
  Tveg cached(t, unit_radio(),
              model_options(channel::ChannelModel::kNakagami));
  support::MemBudget mem(4 * EdWeightCache::kApproxEntryBytes);
  auto cache =
      std::make_shared<EdWeightCache>(EdWeightCache::Options{.mem = &mem});
  cached.attach_cache(cache);

  support::Rng rng(5);
  const auto n = reference.node_count();
  for (int q = 0; q < 3000; ++q) {
    const auto a = static_cast<NodeId>(rng.uniform_int(
        static_cast<std::uint64_t>(n)));
    const auto b = static_cast<NodeId>(rng.uniform_int(
        static_cast<std::uint64_t>(n)));
    if (a == b) continue;
    const Time time = rng.uniform(0.0, 200.0);
    ASSERT_EQ(reference.edge_weight(a, b, time),
              cached.edge_weight(a, b, time));
  }
  EXPECT_GT(cache->stats().evictions, 0u);
}

/// An ED-function handed out by the cache must survive eviction of its
/// entry (shared ownership), not dangle — down to the cache itself dying.
TEST(EdWeightCache, HandedOutEdSurvivesEviction) {
  const trace::ContactTrace t = random_trace(9);
  Tveg cached(t, unit_radio(),
              model_options(channel::ChannelModel::kRayleigh));
  auto cache = std::make_shared<EdWeightCache>();
  cached.attach_cache(cache);

  const std::size_t e = cached.edge_index(0, 1);
  if (e == Tveg::npos) GTEST_SKIP() << "pair 0-1 never meets in this trace";
  const auto ed = cache->ed(cached, e, 0.0);
  const double before = ed->failure_probability(1.0);
  cached.attach_cache(nullptr);
  cache.reset();
  // Every entry is gone; the handed-out function still answers identically.
  EXPECT_EQ(before, ed->failure_probability(1.0));
}

/// Concurrent readers hammering one cache (including races on the same
/// cold key, which fill twice with identical values) must agree with the
/// serial reference. The TSan CI tier runs this instrumented.
TEST(EdWeightCache, ConcurrentReadersStress) {
  const trace::ContactTrace t = random_trace(13);
  const Tveg reference(t, unit_radio(),
                       model_options(channel::ChannelModel::kRayleigh));
  Tveg cached(t, unit_radio(),
              model_options(channel::ChannelModel::kRayleigh));
  // Small ledger: evictions race with lookups too.
  support::MemBudget mem(32 * EdWeightCache::kApproxEntryBytes);
  cached.attach_cache(
      std::make_shared<EdWeightCache>(EdWeightCache::Options{.mem = &mem}));

  // Deterministic query set, precomputed serial answers.
  struct Query {
    NodeId a;
    NodeId b;
    Time t;
    Cost expected;
  };
  std::vector<Query> queries;
  support::Rng rng(99);
  const auto n = reference.node_count();
  for (int q = 0; q < 4000; ++q) {
    const auto a = static_cast<NodeId>(rng.uniform_int(
        static_cast<std::uint64_t>(n)));
    const auto b = static_cast<NodeId>(rng.uniform_int(
        static_cast<std::uint64_t>(n)));
    if (a == b) continue;
    const Time time = rng.uniform(0.0, 200.0);
    queries.push_back({a, b, time, reference.edge_weight(a, b, time)});
  }

  support::ThreadPool workers(8);
  std::vector<char> ok(queries.size(), 0);
  workers.parallel_for(0, queries.size(), [&](std::size_t i) {
    const Query& q = queries[i];
    ok[i] = cached.edge_weight(q.a, q.b, q.t) == q.expected ? 1 : 0;
  });
  for (std::size_t i = 0; i < queries.size(); ++i)
    ASSERT_TRUE(ok[i]) << "query " << i;
}

/// Caches flush their counters into tveg.cache.* on destruction; builds are
/// counted immediately.
TEST(EdWeightCache, StatsAccounting) {
  const trace::ContactTrace t = random_trace(1);
  Tveg cached(t, unit_radio(), model_options(channel::ChannelModel::kStep));
  auto cache = std::make_shared<EdWeightCache>();
  cached.attach_cache(cache);
  const auto before = cache->stats();
  EXPECT_EQ(before.hits + before.misses, 0u);
  const std::size_t e = cached.edge_index(0, 1);
  if (e == Tveg::npos) GTEST_SKIP() << "pair 0-1 never meets in this trace";
  (void)cache->edge_weight(cached, e, 0.0);
  (void)cache->edge_weight(cached, e, 0.0);
  const auto after = cache->stats();
  EXPECT_EQ(after.misses, 1u);
  EXPECT_EQ(after.hits, 1u);
}

/// A byte bound (the MemBudget ledger) must drive pressure evictions — and
/// the cached answers must stay exact throughout.
TEST(EdWeightCache, ByteBoundForcesPressureEvictions) {
  const trace::ContactTrace t = random_trace(17);
  const Tveg reference(t, unit_radio(),
                       model_options(channel::ChannelModel::kRayleigh));
  Tveg cached(t, unit_radio(),
              model_options(channel::ChannelModel::kRayleigh));
  support::MemBudget mem(6 * EdWeightCache::kApproxEntryBytes);
  EdWeightCache::Options options;
  options.mem = &mem;
  auto cache = std::make_shared<EdWeightCache>(options);
  cached.attach_cache(cache);

  support::Rng rng(21);
  const auto n = reference.node_count();
  for (int q = 0; q < 2000; ++q) {
    const auto a = static_cast<NodeId>(rng.uniform_int(
        static_cast<std::uint64_t>(n)));
    const auto b = static_cast<NodeId>(rng.uniform_int(
        static_cast<std::uint64_t>(n)));
    if (a == b) continue;
    const Time time = rng.uniform(0.0, 200.0);
    ASSERT_EQ(reference.edge_weight(a, b, time),
              cached.edge_weight(a, b, time));
  }
  const auto stats = cache->stats();
  EXPECT_GT(stats.evictions, 0u);
  // The resident footprint stays a multiple of the approximate entry size.
  EXPECT_EQ(stats.approx_bytes % EdWeightCache::kApproxEntryBytes, 0u);
}

/// A shared MemBudget ledger mirrors residency exactly: charged on insert,
/// released on eviction and destruction, and its over() pressure evicts.
TEST(EdWeightCache, SharedLedgerAccountsResidency) {
  const trace::ContactTrace t = random_trace(19);
  support::MemBudget mem(4 * EdWeightCache::kApproxEntryBytes);
  {
    Tveg cached(t, unit_radio(), model_options(channel::ChannelModel::kStep));
    EdWeightCache::Options options;
    options.mem = &mem;
    auto cache = std::make_shared<EdWeightCache>(options);
    cached.attach_cache(cache);

    support::Rng rng(23);
    const auto n = cached.node_count();
    for (int q = 0; q < 1500; ++q) {
      const auto a = static_cast<NodeId>(rng.uniform_int(
          static_cast<std::uint64_t>(n)));
      const auto b = static_cast<NodeId>(rng.uniform_int(
          static_cast<std::uint64_t>(n)));
      if (a == b) continue;
      (void)cached.edge_weight(a, b, rng.uniform(0.0, 200.0));
    }
    const auto stats = cache->stats();
    EXPECT_GT(stats.evictions, 0u);
    // Ledger and cache agree on the resident footprint, which destruction
    // must release.
    EXPECT_EQ(mem.used(), stats.approx_bytes);
    EXPECT_GT(mem.used(), 0u);
  }
  // Cache (and Tveg) destroyed: everything was released back.
  EXPECT_EQ(mem.used(), 0u);
}

/// Two caches charging one ledger: aggregate pressure governs both.
TEST(EdWeightCache, TwoCachesShareOneBudget) {
  const trace::ContactTrace t = random_trace(29);
  support::MemBudget mem(8 * EdWeightCache::kApproxEntryBytes);
  EdWeightCache::Options options;
  options.mem = &mem;
  Tveg step_view(t, unit_radio(), model_options(channel::ChannelModel::kStep));
  Tveg fading_view(t, unit_radio(),
                   model_options(channel::ChannelModel::kRayleigh));
  auto a = std::make_shared<EdWeightCache>(options);
  auto b = std::make_shared<EdWeightCache>(options);
  step_view.attach_cache(a);
  fading_view.attach_cache(b);

  support::Rng rng(31);
  const auto n = step_view.node_count();
  for (int q = 0; q < 1500; ++q) {
    const auto x = static_cast<NodeId>(rng.uniform_int(
        static_cast<std::uint64_t>(n)));
    const auto y = static_cast<NodeId>(rng.uniform_int(
        static_cast<std::uint64_t>(n)));
    if (x == y) continue;
    const Time time = rng.uniform(0.0, 200.0);
    (void)step_view.edge_weight(x, y, time);
    (void)fading_view.edge_weight(x, y, time);
  }
  // Both caches fed the same ledger, and at least one was pressured by the
  // other's residency.
  EXPECT_EQ(mem.used(), a->stats().approx_bytes + b->stats().approx_bytes);
  EXPECT_GT(a->stats().evictions + b->stats().evictions, 0u);
}

}  // namespace
}  // namespace tveg::core
