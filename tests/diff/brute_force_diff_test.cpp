// Cross-checks of the parallel + cached pipeline against exhaustive ground
// truth on tiny instances:
//  * the exact Steiner solver run over the pooled aux graph must reproduce
//    brute_force_optimal's cost on step TVEGs with N <= 6, and
//  * FR-EEDCB's allocated cost must not beat an exhaustive search over
//    small (relay, time) backbones, each allocated by the same NLP —
//    extending the brute-force cross-check to the FR allocation stage.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/brute_force.hpp"
#include "core/ed_weight_cache.hpp"
#include "core/eedcb.hpp"
#include "core/energy_allocation.hpp"
#include "core/fr.hpp"
#include "graph/steiner.hpp"
#include "support/math.hpp"
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

trace::ContactTrace random_trace(std::uint64_t seed, int nodes) {
  trace::SnapshotConfig cfg;
  cfg.nodes = nodes;
  cfg.slot = 25;
  cfg.horizon = 100;
  cfg.p = 0.35;
  cfg.seed = seed;
  return trace::generate_snapshots(cfg);
}

support::ThreadPool& pool() {
  static support::ThreadPool p(8);
  return p;
}

/// Exact Steiner over the pooled aux graph == brute-force optimum, N <= 6.
/// (Theorem 5.2 / reduction optimality, now pinned for the parallel path.)
TEST(BruteForceDiff, ExactPipelineMatchesBruteForceOnCachedParallelPath) {
  std::size_t feasible = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const trace::ContactTrace t =
        random_trace(seed, 4 + static_cast<int>(seed % 3));
    Tveg tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});
    tveg.attach_cache(std::make_shared<EdWeightCache>());
    const TmedbInstance inst{&tveg, 0, 100.0};

    const BruteForceResult opt = brute_force_optimal(inst);

    const DiscreteTimeSet dts = tveg.build_dts();
    const AuxGraph aux(inst, dts, {.pool = &pool()});
    graph::SteinerSolver solver(aux.digraph());
    solver.set_pool(&pool());
    const auto tree = solver.exact_small(aux.source_vertex(), aux.terminals());

    ASSERT_EQ(opt.feasible, tree.feasible) << "seed " << seed;
    if (!opt.feasible) continue;
    ++feasible;
    const Schedule schedule = aux.extract_schedule(tree);
    EXPECT_NEAR(schedule.total_cost(), opt.cost, 1e-9 * (1 + opt.cost))
        << "seed " << seed;
    EXPECT_TRUE(check_feasibility(inst, schedule).feasible) << "seed " << seed;
  }
  EXPECT_GE(feasible, 10u);
}

/// Heuristic pipeline (cached + pooled) stays above the optimum — sanity
/// that memoization never "improves" a schedule below what is possible.
TEST(BruteForceDiff, HeuristicsLowerBoundedByBruteForce) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const trace::ContactTrace t = random_trace(seed, 6);
    Tveg tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});
    tveg.attach_cache(std::make_shared<EdWeightCache>());
    const TmedbInstance inst{&tveg, 0, 100.0};

    const BruteForceResult opt = brute_force_optimal(inst);
    EedcbOptions options;
    options.pool = &pool();
    const SchedulerResult eedcb = run_eedcb(inst, options);
    ASSERT_EQ(opt.feasible, eedcb.covered_all) << "seed " << seed;
    if (!opt.feasible) continue;
    EXPECT_LE(opt.cost, eedcb.schedule.total_cost() + 1e-9) << "seed " << seed;
  }
}

/// Every (relay, time) backbone over the DTS up to `max_size`, allocated by
/// the same NLP the FR pipeline uses; returns the cheapest feasible total
/// (+inf when none).
Cost brute_force_fr_cost(const TmedbInstance& inst, std::size_t max_size) {
  struct Slot {
    NodeId relay;
    Time time;
  };
  std::vector<Slot> slots;
  const DiscreteTimeSet dts = inst.tveg->build_dts();
  for (NodeId i = 0; i < inst.tveg->node_count(); ++i)
    for (Time t : dts.points(i)) {
      if (t > inst.deadline) break;
      if (!inst.tveg->discrete_cost_set(i, t).empty())
        slots.push_back({i, t});
    }

  Cost best = support::kInf;
  // Enumerate subsets by bitmask, skipping those above max_size; slots.size()
  // stays small (tiny N, coarse DTS) so this is a few hundred allocations.
  const std::size_t count = slots.size();
  if (count >= 20) ADD_FAILURE() << "slot set too large: " << count;
  for (std::size_t mask = 1; mask < (std::size_t{1} << count); ++mask) {
    if (static_cast<std::size_t>(__builtin_popcountll(mask)) > max_size)
      continue;
    Schedule backbone;
    for (std::size_t s = 0; s < count; ++s)
      if (mask & (std::size_t{1} << s))
        backbone.add(slots[s].relay, slots[s].time, 1.0);
    const AllocationOutcome out = allocate_energy(inst, backbone);
    if (out.feasible && out.schedule.total_cost() < best)
      best = out.schedule.total_cost();
  }
  return best;
}

/// FR-EEDCB (cached + pooled) cannot beat the exhaustive backbone search
/// allocated by the same NLP.
TEST(BruteForceDiff, FrAllocationLowerBoundedByExhaustiveBackboneSearch) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    trace::SnapshotConfig cfg;
    cfg.nodes = 4;
    cfg.slot = 50;
    cfg.horizon = 100;
    cfg.p = 0.5;
    cfg.seed = seed;
    Tveg tveg(trace::generate_snapshots(cfg), unit_radio(),
              {.model = channel::ChannelModel::kRayleigh});
    tveg.attach_cache(std::make_shared<EdWeightCache>());
    const TmedbInstance inst{&tveg, 0, 100.0};

    EedcbOptions options;
    options.pool = &pool();
    const FrResult fr = run_fr_eedcb(inst, options);
    const Cost bf = brute_force_fr_cost(inst, 3);
    if (!fr.feasible() || bf == support::kInf) continue;
    ++compared;
    EXPECT_GE(fr.schedule().total_cost(), bf - 1e-6 * (1 + bf))
        << "seed " << seed;
  }
  EXPECT_GE(compared, 3u);
}

}  // namespace
}  // namespace tveg::core
