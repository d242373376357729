// Concurrency stress for the solve/simulate paths that share the global
// ThreadPool: Monte-Carlo delivery simulation and the robust_solve ladder
// driven from several caller threads at once. Written for the TSan tier
// (scripts/ci.sh tsan stage); the assertions double as determinism checks —
// contention must not change a single result bit.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/solve_many.hpp"
#include "fault/degrade.hpp"
#include "fault/govern.hpp"
#include "sim/monte_carlo.hpp"
#include "support/thread_pool.hpp"
#include "trace/generators.hpp"

namespace tveg::sim {
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

TEST(ParallelStress, ConcurrentMonteCarloCallersStayDeterministic) {
  // Several threads run the pool-parallel Monte-Carlo executor at the same
  // seed while sharing ThreadPool::global(); every one of them must
  // reproduce the serial baseline exactly.
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kRayleigh});
  core::Schedule schedule;
  schedule.add(0, 20.0, 2.0);
  schedule.add(1, 40.0, 2.0);
  schedule.add(2, 60.0, 2.0);

  McOptions serial;
  serial.trials = 400;
  serial.seed = 17;
  serial.parallel = false;
  const DeliveryStats baseline = simulate_delivery(tveg, 0, schedule, serial);

  constexpr std::size_t kCallers = 3;
  std::vector<DeliveryStats> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      McOptions parallel = serial;
      parallel.parallel = true;
      results[c] = simulate_delivery(tveg, 0, schedule, parallel);
    });
  }
  for (auto& th : callers) th.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_DOUBLE_EQ(results[c].mean_delivery_ratio,
                     baseline.mean_delivery_ratio);
    EXPECT_DOUBLE_EQ(results[c].stddev_delivery_ratio,
                     baseline.stddev_delivery_ratio);
    EXPECT_DOUBLE_EQ(results[c].full_delivery_fraction,
                     baseline.full_delivery_fraction);
    EXPECT_EQ(results[c].trials, baseline.trials);
  }
}

TEST(ParallelStress, ConcurrentRobustSolvesAgree) {
  // The fallback ladder from several threads on the same instance: shared
  // state is only the metrics registry and the pool, so results must be
  // identical and feasible under contention.
  const trace::ContactTrace t = sample_trace(3);
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const core::TmedbInstance inst{&tveg, 0, 200.0};
  const DiscreteTimeSet dts = tveg.build_dts();

  constexpr std::size_t kCallers = 3;
  std::vector<fault::RobustSolveResult> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] { results[c] = fault::robust_solve(inst, dts); });
  }
  for (auto& th : callers) th.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(results[c].rung, fault::SolverRung::kEedcb);
    EXPECT_TRUE(results[c].result.covered_all);
    EXPECT_TRUE(core::check_feasibility(inst, results[c].result.schedule)
                    .feasible);
    EXPECT_DOUBLE_EQ(results[c].result.schedule.total_cost(),
                     results[0].result.schedule.total_cost());
  }
}

TEST(ParallelStress, ConcurrentSolveManyBatchesMatchSerialSolves) {
  // Several caller threads run pooled batches at once on the shared
  // ThreadPool — the contended state this test hammers under TSan — and
  // every batch must still reproduce the serial one-shot solves bit-for-bit.
  const trace::ContactTrace t = sample_trace(7);
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();
  std::vector<core::SolveRequest> requests;
  for (NodeId s = 0; s < 4; ++s)
    requests.push_back({.source = s, .deadline = 200.0});
  requests.push_back({.source = 0, .deadline = 160.0});

  std::vector<core::SchedulerResult> baseline;
  for (const core::SolveRequest& request : requests)
    baseline.push_back(core::run_eedcb(core::to_instance(tveg, request), dts));

  constexpr std::size_t kCallers = 3;
  std::vector<std::vector<core::SchedulerResult>> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      fault::GovernOptions pooled;
      pooled.eedcb.pool = &support::ThreadPool::global();
      for (auto& solved : fault::solve_many_governed(tveg, dts, requests,
                                                     pooled))
        results[c].push_back(solved.outcome.value());
    });
  }
  for (auto& th : callers) th.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    ASSERT_EQ(results[c].size(), baseline.size());
    for (std::size_t r = 0; r < baseline.size(); ++r) {
      EXPECT_EQ(results[c][r].covered_all, baseline[r].covered_all);
      EXPECT_DOUBLE_EQ(results[c][r].schedule.total_cost(),
                       baseline[r].schedule.total_cost());
      ASSERT_EQ(results[c][r].schedule.transmissions().size(),
                baseline[r].schedule.transmissions().size());
      for (std::size_t i = 0; i < baseline[r].schedule.transmissions().size();
           ++i) {
        const auto& got = results[c][r].schedule.transmissions()[i];
        const auto& want = baseline[r].schedule.transmissions()[i];
        EXPECT_EQ(got.relay, want.relay);
        EXPECT_DOUBLE_EQ(got.time, want.time);
        EXPECT_DOUBLE_EQ(got.cost, want.cost);
      }
    }
  }
}

}  // namespace
}  // namespace tveg::sim
