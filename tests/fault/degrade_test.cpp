#include "fault/degrade.hpp"

#include <gtest/gtest.h>

#include "core/schedule.hpp"
#include "support/budget.hpp"
#include "trace/generators.hpp"

namespace tveg::fault {
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

trace::ContactTrace sample_trace(std::uint64_t seed = 1) {
  trace::SnapshotConfig cfg;
  cfg.nodes = 8;
  cfg.slot = 20;
  cfg.horizon = 200;
  cfg.p = 0.35;
  cfg.seed = seed;
  return trace::generate_snapshots(cfg);
}

TEST(Degrade, UnlimitedBudgetStaysOnFirstRung) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const core::TmedbInstance inst{&tveg, 0, 200.0};
  const DiscreteTimeSet dts = tveg.build_dts();

  const RobustSolveResult r = robust_solve(inst, dts);
  EXPECT_EQ(r.rung, SolverRung::kEedcb);
  EXPECT_FALSE(r.degraded());
  EXPECT_TRUE(r.result.covered_all);
  EXPECT_TRUE(core::check_feasibility(inst, r.result.schedule).feasible);
}

TEST(Degrade, ForcedTimeoutStillYieldsFeasibleSchedule) {
  // Tentpole acceptance (b): a zero budget expires before EEDCB and BIP can
  // run, so the ladder must land on GREED — and still hand back a feasible
  // schedule, tagged with the rung that produced it.
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const core::TmedbInstance inst{&tveg, 0, 200.0};
  const DiscreteTimeSet dts = tveg.build_dts();

  RobustSolveOptions options;
  options.budget = support::Budget::after_ms(0);
  const RobustSolveResult r = robust_solve(inst, dts, options);

  EXPECT_EQ(r.rung, SolverRung::kGreed);
  ASSERT_TRUE(r.degraded());
  ASSERT_EQ(r.descents.size(), 2u);
  EXPECT_EQ(r.descents[0].code, support::ErrorCode::kTimeout);
  EXPECT_EQ(r.descents[1].code, support::ErrorCode::kTimeout);
  EXPECT_TRUE(r.result.covered_all);
  EXPECT_TRUE(core::check_feasibility(inst, r.result.schedule).feasible);
}

TEST(Degrade, ExpiredBudgetShortCircuitsRungsInsteadOfRunningThem) {
  // Satellite bugfix: with the ladder budget already spent, the EEDCB and
  // BIP rungs must be *skipped* — recorded as timeout descents without
  // building an aux graph that would only be thrown away — and the final
  // rung still runs to completion (it is exempt from the shared deadline).
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const core::TmedbInstance inst{&tveg, 0, 200.0};
  const DiscreteTimeSet dts = tveg.build_dts();

  RobustSolveOptions options;
  options.budget = support::Budget::after_ms(0);
  const RobustSolveResult r = robust_solve(inst, dts, options);

  ASSERT_EQ(r.descents.size(), 2u);
  for (const auto& d : r.descents) {
    EXPECT_EQ(d.code, support::ErrorCode::kTimeout);
    EXPECT_NE(d.message.find("skipped"), std::string::npos)
        << "expired rung was run instead of short-circuited: "
        << d.to_string();
  }
  EXPECT_EQ(r.rung, SolverRung::kGreed);
  EXPECT_TRUE(r.result.covered_all);
}

TEST(Degrade, CancelledLadderThrowsInsteadOfDescending) {
  // Cancellation is a caller decision, not a solver failure: the ladder
  // must surface it, never downgrade it into a GREED schedule.
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const core::TmedbInstance inst{&tveg, 0, 200.0};
  const DiscreteTimeSet dts = tveg.build_dts();

  const support::CancelSource source;
  source.request_cancel();
  RobustSolveOptions options;
  options.budget = support::Budget(source.token());
  EXPECT_THROW(robust_solve(inst, dts, options), support::CancelledError);
}

TEST(Degrade, StartRungCanSkipEedcb) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const core::TmedbInstance inst{&tveg, 0, 200.0};
  const DiscreteTimeSet dts = tveg.build_dts();

  RobustSolveOptions options;
  options.start = SolverRung::kBip;
  const RobustSolveResult r = robust_solve(inst, dts, options);
  EXPECT_EQ(r.rung, SolverRung::kBip);
  EXPECT_TRUE(r.result.covered_all);
}

TEST(Degrade, FrLadderUnderForcedTimeoutStillAllocates) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg fading(t, unit_radio(),
                          {.model = channel::ChannelModel::kRayleigh});
  const core::TmedbInstance inst{&fading, 0, 200.0};
  const DiscreteTimeSet dts = fading.build_dts();

  RobustSolveOptions options;
  options.budget = support::Budget::after_ms(0);
  core::AllocationOptions alloc;
  alloc.max_retries = 2;
  const RobustFrResult r = robust_solve_fr(inst, dts, options, alloc);

  EXPECT_EQ(r.backbone.rung, SolverRung::kGreed);
  EXPECT_TRUE(r.backbone.result.covered_all);
  ASSERT_TRUE(r.feasible());
  EXPECT_TRUE(core::check_feasibility(inst, r.schedule()).feasible);
}

TEST(Degrade, RungNamesAreStable) {
  EXPECT_STREQ(rung_name(SolverRung::kEedcb), "eedcb");
  EXPECT_STREQ(rung_name(SolverRung::kBip), "bip");
  EXPECT_STREQ(rung_name(SolverRung::kGreed), "greed");
}

TEST(Deadline, UnlimitedByDefaultAndExpiresWhenForced) {
  const support::Budget unlimited;
  EXPECT_FALSE(unlimited.expired());
  EXPECT_NO_THROW(unlimited.check("test"));

  const support::Budget expired = support::Budget::after_ms(0);
  EXPECT_TRUE(expired.expired());
  EXPECT_THROW(expired.check("test"), support::TimeoutError);
  try {
    expired.check("steiner");
  } catch (const support::TimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("steiner"), std::string::npos);
  }
}

}  // namespace
}  // namespace tveg::fault
