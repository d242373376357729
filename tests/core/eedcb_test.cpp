#include "core/eedcb.hpp"

#include <gtest/gtest.h>

#include "core/prune.hpp"
#include "support/math.hpp"
#include "trace/generators.hpp"

namespace tveg::core {
namespace {

channel::RadioParams test_radio() {
  channel::RadioParams r;
  r.epsilon = 0.01;
  r.w_max = support::kInf;
  return r;
}

Tveg haggle_step_tveg(NodeId nodes = 12, std::uint64_t seed = 3) {
  trace::HaggleLikeConfig cfg;
  cfg.nodes = nodes;
  cfg.horizon = 6000;
  cfg.activation_ramp_end = 1000;
  cfg.pair_probability = 0.5;
  cfg.seed = seed;
  return Tveg(trace::generate_haggle_like(cfg), test_radio(),
              {.model = channel::ChannelModel::kStep});
}

TEST(Eedcb, ProducesFeasibleScheduleOnConnectedTrace) {
  const Tveg tveg = haggle_step_tveg();
  const TmedbInstance inst{&tveg, 0, 5000.0};
  const SchedulerResult r = run_eedcb(inst);
  ASSERT_TRUE(r.covered_all);
  const auto report = check_feasibility(inst, r.schedule);
  EXPECT_TRUE(report.feasible) << report.reason;
  EXPECT_GT(r.stats.dts_points, 0u);
  EXPECT_GT(r.stats.aux_vertices, 0u);
}

TEST(Eedcb, DtsTruncationReachesTheStats) {
  // run_eedcb(instance, options) builds its DTS internally; a per-node cap
  // the closure hits must still surface in the returned stats.
  const Tveg tveg = haggle_step_tveg();
  const TmedbInstance inst{&tveg, 0, 5000.0};
  EXPECT_FALSE(run_eedcb(inst).stats.dts_truncated);

  EedcbOptions capped;
  capped.dts.max_points_per_node = 2;
  const SchedulerResult r = run_eedcb(inst, capped);
  EXPECT_TRUE(r.stats.dts_truncated);
  EXPECT_GT(r.stats.dts_points, 0u);
}

TEST(Eedcb, RecursiveGreedyNotWorseThanSpt) {
  const Tveg tveg = haggle_step_tveg();
  const TmedbInstance inst{&tveg, 0, 5000.0};
  const auto dts = tveg.build_dts();
  EedcbOptions spt;
  spt.method = SteinerMethod::kShortestPath;
  EedcbOptions greedy;
  greedy.method = SteinerMethod::kRecursiveGreedy;
  greedy.steiner_level = 2;
  const auto r_spt = run_eedcb(inst, dts, spt);
  const auto r_greedy = run_eedcb(inst, dts, greedy);
  ASSERT_TRUE(r_spt.covered_all);
  ASSERT_TRUE(r_greedy.covered_all);
  // Not a theorem (both are heuristics after pruning), but holds with slack
  // on this fixed instance and guards against quality regressions.
  EXPECT_LE(r_greedy.schedule.total_cost(),
            r_spt.schedule.total_cost() * 1.25);
}

TEST(Eedcb, PruningNeverHurts) {
  const Tveg tveg = haggle_step_tveg();
  const TmedbInstance inst{&tveg, 0, 5000.0};
  const auto dts = tveg.build_dts();
  EedcbOptions raw;
  raw.prune = false;
  EedcbOptions pruned;
  pruned.prune = true;
  const auto r_raw = run_eedcb(inst, dts, raw);
  const auto r_pruned = run_eedcb(inst, dts, pruned);
  ASSERT_TRUE(r_raw.covered_all);
  EXPECT_LE(r_pruned.schedule.total_cost(),
            r_raw.schedule.total_cost() + 1e-30);
  EXPECT_TRUE(check_feasibility(inst, r_pruned.schedule).feasible);
}

TEST(Eedcb, LongerDeadlineNeverCostsMore) {
  const Tveg tveg = haggle_step_tveg(12, 5);
  const auto dts = tveg.build_dts();
  const TmedbInstance tight{&tveg, 0, 3000.0};
  const TmedbInstance loose{&tveg, 0, 6000.0};
  const auto r_tight = run_eedcb(tight, dts);
  const auto r_loose = run_eedcb(loose, dts);
  if (r_tight.covered_all && r_loose.covered_all) {
    // More time → superset of feasible schedules; the heuristic gets slack.
    EXPECT_LE(r_loose.schedule.total_cost(),
              r_tight.schedule.total_cost() * 1.3);
  }
}

TEST(Eedcb, ReportsUncoveredWhenDisconnected) {
  trace::ContactTrace t(3, 100.0);
  t.add({0, 1, 0.0, 100.0, 1.0});  // node 2 isolated
  const Tveg tveg(t, test_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 100.0};
  const SchedulerResult r = run_eedcb(inst);
  EXPECT_FALSE(r.covered_all);
}

TEST(Eedcb, SingleHopBroadcastUsesOneTransmission) {
  trace::ContactTrace t(4, 100.0);
  t.add({0, 1, 0.0, 100.0, 1.0});
  t.add({0, 2, 0.0, 100.0, 2.0});
  t.add({0, 3, 0.0, 100.0, 3.0});
  const Tveg tveg(t, test_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 100.0};
  const SchedulerResult r = run_eedcb(inst);
  ASSERT_TRUE(r.covered_all);
  ASSERT_EQ(r.schedule.size(), 1u);
  EXPECT_NEAR(r.schedule.total_cost(), tveg.radio().step_min_cost(3.0),
              1e-30);
}

TEST(Prune, RemovesRedundantTransmission) {
  trace::ContactTrace t(3, 100.0);
  t.add({0, 1, 0.0, 100.0, 1.0});
  t.add({0, 2, 0.0, 100.0, 2.0});
  const Tveg tveg(t, test_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 100.0};
  Schedule bloated;
  bloated.add(0, 1.0, tveg.radio().step_min_cost(2.0));  // reaches both
  bloated.add(0, 5.0, tveg.radio().step_min_cost(1.0));  // redundant
  const Schedule pruned = prune_schedule(inst, bloated);
  EXPECT_EQ(pruned.size(), 1u);
  EXPECT_TRUE(check_feasibility(inst, pruned).feasible);
}

TEST(Prune, LowersOverpoweredTransmission) {
  trace::ContactTrace t(2, 100.0);
  t.add({0, 1, 0.0, 100.0, 1.0});
  const Tveg tveg(t, test_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 100.0};
  Schedule s;
  s.add(0, 1.0, tveg.radio().step_min_cost(1.0) * 50);  // over-powered
  const Schedule pruned = prune_schedule(inst, s);
  ASSERT_EQ(pruned.size(), 1u);
  EXPECT_NEAR(pruned.total_cost(), tveg.radio().step_min_cost(1.0), 1e-30);
}

TEST(Prune, LeavesInfeasibleScheduleUntouched) {
  trace::ContactTrace t(2, 100.0);
  t.add({0, 1, 0.0, 100.0, 1.0});
  const Tveg tveg(t, test_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 100.0};
  Schedule s;  // empty: node 1 uncovered
  const Schedule out = prune_schedule(inst, s);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace tveg::core
