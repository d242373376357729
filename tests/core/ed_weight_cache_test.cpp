// EdWeightCache property tests: cached queries must be indistinguishable —
// bit for bit — from the memoization-free Tveg, under random interleaved
// lookups and under concurrent readers (the TSan tier runs the stress test
// instrumented); each (edge, segment) slot is filled exactly once, and a
// cache serves one Tveg.
#include "core/ed_weight_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
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

/// Concurrent readers hammering one cache (including races on the same
/// cold slot, where both fillers materialize the identical value and the
/// first to publish wins) must agree with the serial reference. The TSan CI
/// tier runs this instrumented.
TEST(EdWeightCache, ConcurrentReadersStress) {
  const trace::ContactTrace t = random_trace(13);
  const Tveg reference(t, unit_radio(),
                       model_options(channel::ChannelModel::kRayleigh));
  Tveg cached(t, unit_radio(),
              model_options(channel::ChannelModel::kRayleigh));
  cached.attach_cache(std::make_shared<EdWeightCache>());

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

/// A fresh cache has counted nothing; the first lookup of a slot is a miss
/// (the fill) and the next one a hit.
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

/// Lookups that land in one (edge, segment) slot return the one ED-function
/// object that slot holds, and a serial DCS sweep over every DTS point fills
/// each slot it touches exactly once.
TEST(EdWeightCache, RepeatedLookupsShareOneSlot) {
  const trace::ContactTrace t = random_trace(5);
  Tveg cached(t, unit_radio(),
              model_options(channel::ChannelModel::kRician));
  auto cache = std::make_shared<EdWeightCache>();
  cached.attach_cache(cache);

  const std::size_t e = cached.edge_index(0, 1);
  if (e == Tveg::npos) GTEST_SKIP() << "pair 0-1 never meets in this trace";
  std::vector<const channel::EdFunction*> by_slot(cached.ed_slot_count(),
                                                  nullptr);
  for (Time time = 0.0; time <= 200.0; time += 2.5) {
    const channel::EdFunction* ed = &cache->ed(cached, e, time);
    EXPECT_EQ(ed, &cache->ed(cached, e, time)) << "t=" << time;
    const channel::EdFunction*& first = by_slot[cached.ed_slot(e, time)];
    if (first == nullptr) first = ed;
    EXPECT_EQ(first, ed) << "t=" << time;
  }

  Tveg swept(t, unit_radio(), model_options(channel::ChannelModel::kRician));
  auto table = std::make_shared<EdWeightCache>();
  swept.attach_cache(table);
  const DiscreteTimeSet dts = swept.build_dts();
  std::set<std::size_t> touched;
  std::uint64_t lookups = 0;
  for (NodeId i = 0; i < swept.node_count(); ++i)
    for (Time time : dts.points(i)) {
      for (NodeId j : swept.graph().neighbors_at(i, time)) {
        touched.insert(swept.ed_slot(swept.edge_index(i, j), time));
        ++lookups;
      }
      (void)swept.discrete_cost_set(i, time);
    }
  const auto stats = table->stats();
  ASSERT_GT(touched.size(), 0u);
  EXPECT_EQ(stats.misses, touched.size());
  EXPECT_EQ(stats.hits + stats.misses, lookups);
}

/// The first attach binds a cache to its Tveg; a second Tveg is rejected,
/// while detaching and re-attaching to the owner is fine.
TEST(EdWeightCache, BoundCacheRejectsASecondTveg) {
  const trace::ContactTrace t = random_trace(23);
  Tveg owner(t, unit_radio(), model_options(channel::ChannelModel::kStep));
  Tveg other(t, unit_radio(), model_options(channel::ChannelModel::kStep));
  auto cache = std::make_shared<EdWeightCache>();
  owner.attach_cache(cache);
  EXPECT_THROW(other.attach_cache(cache), std::invalid_argument);
  EXPECT_EQ(other.cache(), nullptr);
  owner.attach_cache(nullptr);
  EXPECT_NO_THROW(owner.attach_cache(cache));
  EXPECT_EQ(owner.cache(), cache.get());
}

}  // namespace
}  // namespace tveg::core
