#include "core/fr.hpp"

#include <gtest/gtest.h>

#include "obs/trace.hpp"
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

Tveg fading_tveg(std::uint64_t seed, NodeId nodes = 12) {
  trace::HaggleLikeConfig cfg;
  cfg.nodes = nodes;
  cfg.horizon = 8000;
  cfg.activation_ramp_end = 500;
  cfg.pair_probability = 0.6;
  cfg.seed = seed;
  return Tveg(trace::generate_haggle_like(cfg), test_radio(),
              {.model = channel::ChannelModel::kRayleigh});
}

TEST(FrEedcb, RefinementNeverIncreasesCost) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Tveg tveg = fading_tveg(seed);
    const TmedbInstance inst{&tveg, 0, 6000.0};
    const auto dts = tveg.build_dts();
    FrOptions raw;
    raw.refine_backbone = false;
    raw.multi_start = false;
    FrOptions refined;
    refined.refine_backbone = true;
    refined.multi_start = false;
    const auto r_raw = run_fr_eedcb(inst, dts, {}, {}, raw);
    const auto r_ref = run_fr_eedcb(inst, dts, {}, {}, refined);
    if (!r_raw.feasible()) continue;
    ASSERT_TRUE(r_ref.feasible()) << "seed " << seed;
    EXPECT_LE(r_ref.schedule().total_cost(),
              r_raw.schedule().total_cost() + 1e-30)
        << "seed " << seed;
  }
}

TEST(FrEedcb, MultiStartNeverIncreasesCost) {
  for (std::uint64_t seed : {1u, 4u, 5u}) {
    const Tveg tveg = fading_tveg(seed);
    const TmedbInstance inst{&tveg, 0, 6000.0};
    const auto dts = tveg.build_dts();
    FrOptions single;
    single.multi_start = false;
    FrOptions multi;
    multi.multi_start = true;
    const auto r_single = run_fr_eedcb(inst, dts, {}, {}, single);
    const auto r_multi = run_fr_eedcb(inst, dts, {}, {}, multi);
    if (!r_single.feasible()) continue;
    ASSERT_TRUE(r_multi.feasible()) << "seed " << seed;
    EXPECT_LE(r_multi.schedule().total_cost(),
              r_single.schedule().total_cost() + 1e-30)
        << "seed " << seed;
  }
}

TEST(FrEedcb, RefinedScheduleStaysFeasible) {
  const Tveg tveg = fading_tveg(7);
  const TmedbInstance inst{&tveg, 0, 6000.0};
  const auto r = run_fr_eedcb(inst);
  ASSERT_TRUE(r.feasible());
  const auto report = check_feasibility(inst, r.schedule());
  EXPECT_TRUE(report.feasible) << report.reason;
  // The refined backbone and the allocation agree in size.
  EXPECT_EQ(r.backbone.schedule.size(), r.allocation.schedule.size());
}

TEST(FrEedcb, AllocatedCostsAreFiniteAndPositive) {
  const Tveg tveg = fading_tveg(8);
  const TmedbInstance inst{&tveg, 0, 6000.0};
  const auto r = run_fr_eedcb(inst);
  ASSERT_TRUE(r.feasible());
  for (const Transmission& tx : r.schedule().transmissions()) {
    EXPECT_GT(tx.cost, 0.0);
    EXPECT_TRUE(std::isfinite(tx.cost));
  }
}

TEST(FrBaseline, GreedBackboneKeptVerbatim) {
  // FR-GREED must not silently optimize the backbone: relays and times are
  // exactly GREED's, only the costs change.
  const Tveg tveg = fading_tveg(9);
  const TmedbInstance inst{&tveg, 0, 6000.0};
  const auto dts = tveg.build_dts();
  BaselineOptions opt;
  opt.rule = BaselineRule::kGreedy;
  const auto backbone = run_baseline(inst, dts, opt);
  const auto fr = run_fr_baseline(inst, dts, opt);
  ASSERT_TRUE(fr.feasible());
  const auto& raw = backbone.schedule.transmissions();
  const auto& alloc = fr.schedule().transmissions();
  ASSERT_EQ(raw.size(), alloc.size());
  for (std::size_t k = 0; k < raw.size(); ++k) {
    EXPECT_EQ(raw[k].relay, alloc[k].relay);
    EXPECT_DOUBLE_EQ(raw[k].time, alloc[k].time);
  }
}

TEST(FrEedcb, InfeasibleWhenSourceIsolated) {
  trace::ContactTrace t(3, 100.0);
  t.add({1, 2, 0.0, 100.0, 1.0});  // source 0 never meets anyone
  const Tveg tveg(t, test_radio(),
                  {.model = channel::ChannelModel::kRayleigh});
  const TmedbInstance inst{&tveg, 0, 100.0};
  const auto r = run_fr_eedcb(inst);
  EXPECT_FALSE(r.feasible());
}

TEST(FrEedcb, MultiStartStatsCoverBothAttemptsAndMatchThePhaseTree) {
  const Tveg tveg = fading_tveg(1);
  const TmedbInstance inst{&tveg, 0, 6000.0};
  const auto dts = tveg.build_dts();
  FrOptions single;
  single.multi_start = false;
  EedcbOptions spt;
  spt.method = SteinerMethod::kShortestPath;
  const auto greedy_only = run_fr_eedcb(inst, dts, {}, {}, single);
  const auto spt_only = run_fr_eedcb(inst, dts, spt, {}, single);

  obs::trace_reset();
  obs::set_enabled(true);
  const auto both = run_fr_eedcb(inst, dts, {}, {}, FrOptions{});
  obs::set_enabled(false);
  const auto totals = obs::phase_totals();
  obs::trace_reset();

  // Work counters sum both attempts; sizes stay one attempt's.
  const SchedulerStats& s = both.backbone.stats;
  EXPECT_EQ(s.steiner_nodes_expanded,
            greedy_only.backbone.stats.steiner_nodes_expanded +
                spt_only.backbone.stats.steiner_nodes_expanded);
  EXPECT_EQ(s.steiner_relaxations,
            greedy_only.backbone.stats.steiner_relaxations +
                spt_only.backbone.stats.steiner_relaxations);
  EXPECT_EQ(s.aux_vertices, greedy_only.backbone.stats.aux_vertices);
  EXPECT_EQ(s.aux_arcs, greedy_only.backbone.stats.aux_arcs);

  // Phase times are the span slots of the same intervals the tree sums.
  double aux_ms = -1;
  double steiner_ms = -1;
  for (const auto& [name, node] : totals) {
    if (name == "aux_graph") {
      EXPECT_EQ(node.count, 2u);
      aux_ms = node.wall_ms;
    }
    if (name == "steiner") {
      EXPECT_EQ(node.count, 2u);
      steiner_ms = node.wall_ms;
    }
  }
  EXPECT_NEAR(s.aux_build_ms, aux_ms, 1e-9);
  EXPECT_NEAR(s.steiner_ms, steiner_ms, 1e-9);
  EXPECT_EQ(s.prune_ms, 0.0);  // FR backbones are never pruned
}

}  // namespace
}  // namespace tveg::core
