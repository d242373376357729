// The batch entry point (fault::solve_many_governed): one-shot identity,
// batch counters, isolation of poisoned requests, shed policies, admission
// bounds, watchdog arming, and a mid-solve cancellation returning within a
// fixed poll-count bound without wedging the pool.
#include "fault/govern.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "core/schedule_io.hpp"
#include "core/solve_many.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "support/thread_pool.hpp"
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

trace::ContactTrace sample_trace(std::uint64_t seed = 1, int nodes = 8,
                                 Time horizon = 200) {
  trace::SnapshotConfig cfg;
  cfg.nodes = nodes;
  cfg.slot = 20;
  cfg.horizon = horizon;
  cfg.p = 0.35;
  cfg.seed = seed;
  return trace::generate_snapshots(cfg);
}

std::string serialized(const core::Schedule& schedule) {
  std::ostringstream out;
  core::write_schedule(out, schedule);
  return out.str();
}

TEST(Govern, CleanBatchIsByteIdenticalToUngoverned) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();

  std::vector<core::SolveRequest> requests;
  for (NodeId s = 0; s < 8; ++s)
    requests.push_back({.source = s, .deadline = 200.0});
  requests.push_back({.source = 0, .deadline = 120.0});

  const auto governed = solve_many_governed(tveg, dts, requests);
  ASSERT_EQ(governed.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(governed[i].outcome.ok()) << "request " << i;
    EXPECT_EQ(governed[i].rung, SolverRung::kEedcb);
    EXPECT_FALSE(governed[i].shed);
    EXPECT_FALSE(governed[i].degraded());
    const auto one_shot =
        core::run_eedcb(core::to_instance(tveg, requests[i]), dts);
    EXPECT_EQ(serialized(governed[i].outcome.value().schedule),
              serialized(one_shot.schedule))
        << "request " << i;
  }
}

TEST(Govern, BatchCountersSeeOneBatchAndItsAuxReuses) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();

  // 6 sources × 2 deadlines: two aux graphs, each reused by 5 requests.
  std::vector<core::SolveRequest> requests;
  for (const Time deadline : {200.0, 120.0})
    for (NodeId s = 0; s < 6; ++s)
      requests.push_back({.source = s, .deadline = deadline});

  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& solves = registry.counter(obs::keys::kBatchSolves);
  obs::Counter& batch_requests = registry.counter(obs::keys::kBatchRequests);
  obs::Counter& reuses = registry.counter(obs::keys::kBatchAuxReuses);
  const std::uint64_t solves_before = solves.value();
  const std::uint64_t requests_before = batch_requests.value();
  const std::uint64_t reuses_before = reuses.value();

  const auto governed = solve_many_governed(tveg, dts, requests);
  for (const GovernedSolve& g : governed) ASSERT_TRUE(g.outcome.ok());
  EXPECT_EQ(solves.value() - solves_before, 1u);
  EXPECT_EQ(batch_requests.value() - requests_before, 12u);
  EXPECT_EQ(reuses.value() - reuses_before, 10u);
}

TEST(Govern, PoisonedRequestCostsExactlyItsOwnSlot) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();

  // Source 100 does not exist: the solve throws deep inside the pipeline.
  std::vector<core::SolveRequest> poisoned;
  poisoned.push_back({.source = 0, .deadline = 200.0});
  poisoned.push_back({.source = 100, .deadline = 200.0});
  poisoned.push_back({.source = 1, .deadline = 200.0});

  // Solved alone, the poisoned request throws...
  EXPECT_THROW(core::run_eedcb(core::to_instance(tveg, poisoned[1]), dts),
               std::exception);

  // ...in the batch it costs one outcome slot out of three.
  const auto governed = solve_many_governed(tveg, dts, poisoned);
  ASSERT_EQ(governed.size(), 3u);
  ASSERT_TRUE(governed[0].outcome.ok());
  ASSERT_FALSE(governed[1].outcome.ok());
  EXPECT_EQ(governed[1].outcome.error().code, support::ErrorCode::kInternal);
  ASSERT_TRUE(governed[2].outcome.ok());

  // And the survivors are byte-identical to their one-shot solves.
  for (const std::size_t i : {0u, 2u})
    EXPECT_EQ(serialized(governed[i].outcome.value().schedule),
              serialized(core::run_eedcb(
                             core::to_instance(tveg, poisoned[i]), dts)
                             .schedule))
        << "request " << i;
}

TEST(Govern, ZeroBudgetDegradesEveryRequestToGreed) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();

  std::vector<core::SolveRequest> requests;
  for (NodeId s = 0; s < 4; ++s)
    requests.push_back({.source = s, .deadline = 200.0});

  GovernOptions options;
  options.request_budget_ms = 0;
  const auto governed = solve_many_governed(tveg, dts, requests, options);
  for (std::size_t i = 0; i < governed.size(); ++i) {
    ASSERT_TRUE(governed[i].outcome.ok()) << "request " << i;
    EXPECT_EQ(governed[i].rung, SolverRung::kGreed) << "request " << i;
    ASSERT_TRUE(governed[i].degraded()) << "request " << i;
    EXPECT_EQ(governed[i].descents.front().code,
              support::ErrorCode::kTimeout);
    const core::TmedbInstance inst{&tveg, requests[i].source, 200.0};
    EXPECT_TRUE(core::check_feasibility(
                    inst, governed[i].outcome.value().schedule)
                    .feasible)
        << "request " << i;
  }
}

TEST(Govern, ErrorPolicyReturnsTimeoutsInsteadOfSchedules) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});

  GovernOptions options;
  options.request_budget_ms = 0;
  options.shed_policy = ShedPolicy::kError;
  const auto governed = solve_many_governed(
      tveg, tveg.build_dts(), {{.source = 0, .deadline = 200.0}}, options);
  ASSERT_EQ(governed.size(), 1u);
  ASSERT_FALSE(governed[0].outcome.ok());
  EXPECT_EQ(governed[0].outcome.error().code, support::ErrorCode::kTimeout);
  EXPECT_TRUE(governed[0].degraded());
}

TEST(Govern, AdmissionBoundShedsTheTail) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();

  std::vector<core::SolveRequest> requests;
  for (NodeId s = 0; s < 6; ++s)
    requests.push_back({.source = s, .deadline = 200.0});

  GovernOptions options;
  options.max_inflight = 2;
  options.shed_policy = ShedPolicy::kError;
  const auto errored = solve_many_governed(tveg, dts, requests, options);
  ASSERT_EQ(errored.size(), 6u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(errored[i].outcome.ok()) << "request " << i;
    EXPECT_FALSE(errored[i].shed);
  }
  for (std::size_t i = 2; i < 6; ++i) {
    EXPECT_TRUE(errored[i].shed) << "request " << i;
    EXPECT_FALSE(errored[i].outcome.ok()) << "request " << i;
  }

  // Under the degrade policy the shed tail still gets GREED schedules.
  options.shed_policy = ShedPolicy::kDegrade;
  const auto degraded = solve_many_governed(tveg, dts, requests, options);
  for (std::size_t i = 2; i < 6; ++i) {
    EXPECT_TRUE(degraded[i].shed) << "request " << i;
    ASSERT_TRUE(degraded[i].outcome.ok()) << "request " << i;
    EXPECT_EQ(degraded[i].rung, SolverRung::kGreed);
  }
}

TEST(Govern, WatchdogArmedBatchStaysClean) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();

  GovernOptions options;
  options.stall_ms = 60000;  // far beyond any solve here: must never fire
  const auto governed = solve_many_governed(
      tveg, dts, {{.source = 0, .deadline = 200.0}}, options);
  ASSERT_EQ(governed.size(), 1u);
  EXPECT_TRUE(governed[0].outcome.ok());
  EXPECT_FALSE(governed[0].degraded());
}

TEST(Govern, MidSolveCancelReturnsWithinAFixedPollBound) {
  // Tentpole acceptance: fire a request's CancelSource once its solve is
  // mid-pipeline (the heartbeat proves it is polling), then assert the
  // cancelled outcome lands within a fixed number of further polls and the
  // pool is immediately reusable.
  const trace::ContactTrace t = sample_trace(3, /*nodes=*/12, /*horizon=*/400);
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();
  support::ThreadPool pool(4);

  GovernOptions options;
  options.shed_policy = ShedPolicy::kError;
  options.eedcb.method = core::SteinerMethod::kRecursiveGreedy;
  options.eedcb.steiner_level = 2;
  options.eedcb.pool = &pool;

  // Cancel once the solve has proved it is alive (a few hundred budget
  // polls). The poll that reaches the count fires the cancel itself, so no
  // firer thread can be starved until the solve has ended.
  const std::vector<support::CancelSource> cancels(1);
  constexpr std::uint64_t polls_at_cancel = 300;
  cancels[0].request_cancel_at_poll(polls_at_cancel);

  const auto governed = solve_many_governed(
      tveg, dts, {{.source = 0, .deadline = 400.0}}, options, cancels);

  ASSERT_EQ(governed.size(), 1u);
  ASSERT_FALSE(governed[0].outcome.ok())
      << "the solve finished before the cancel landed — grow the instance";
  EXPECT_EQ(governed[0].outcome.error().code, support::ErrorCode::kCancelled);
  EXPECT_FALSE(governed[0].degraded());

  // The fixed bound: once the cancel is visible every poller throws on its
  // next poll, so the tail is a handful of in-flight polls per thread —
  // 4096 is orders of magnitude below the full solve's poll count.
  EXPECT_LE(cancels[0].polls() - polls_at_cancel, 4096u);

  // No pool task is still running: a fresh loop completes, and a clean
  // governed solve on the same pool succeeds.
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(0, 1000, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 1000u);
  const auto clean = solve_many_governed(
      tveg, dts, {{.source = 0, .deadline = 400.0}}, options);
  ASSERT_EQ(clean.size(), 1u);
  EXPECT_TRUE(clean[0].outcome.ok());
}

}  // namespace
}  // namespace tveg::fault
