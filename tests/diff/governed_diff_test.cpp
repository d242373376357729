// Differential suite for the batch entry point (DESIGN.md "Batched sweeps
// and per-request isolation"): with unlimited budgets, every schedule of
// fault::solve_many_governed must be BYTE-identical to solving its request
// alone with run_eedcb — transmission lists under exact double equality,
// same serialized text — across seeded random TVEGs, serial, with cache +
// pool, and with a poisoned request planted mid-batch.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/ed_weight_cache.hpp"
#include "core/eedcb.hpp"
#include "core/schedule_io.hpp"
#include "core/solve_many.hpp"
#include "core/tveg.hpp"
#include "fault/govern.hpp"
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
  cfg.slot = 20;
  cfg.horizon = 200;
  cfg.p = 0.25 + 0.05 * static_cast<double>(seed % 4);
  cfg.seed = seed;
  return trace::generate_snapshots(cfg);
}

support::ThreadPool& pool() {
  static support::ThreadPool p(8);
  return p;
}

void expect_identical(const Schedule& oracle, const Schedule& candidate,
                      std::uint64_t seed) {
  ASSERT_EQ(oracle.transmissions().size(), candidate.transmissions().size())
      << "seed " << seed;
  EXPECT_TRUE(oracle.transmissions() == candidate.transmissions())
      << "seed " << seed << ": transmission lists differ";
  std::ostringstream a;
  std::ostringstream b;
  write_schedule(a, oracle);
  write_schedule(b, candidate);
  EXPECT_EQ(a.str(), b.str()) << "seed " << seed
                              << ": serialized schedules differ";
}

/// The one-shot oracle: each request solved alone by run_eedcb over the
/// TVEG's own DTS, with default (serial, uncached) options.
std::vector<SchedulerResult> one_shot(
    const Tveg& tveg, const std::vector<SolveRequest>& requests) {
  const DiscreteTimeSet dts = tveg.build_dts();
  std::vector<SchedulerResult> results;
  for (const SolveRequest& request : requests)
    results.push_back(run_eedcb(to_instance(tveg, request), dts));
  return results;
}

std::vector<SolveRequest> mixed_panel(int nodes) {
  std::vector<SolveRequest> requests;
  for (NodeId s = 0; s < nodes; ++s)
    requests.push_back({.source = s, .deadline = 200.0});
  for (NodeId s = 0; s < nodes; s += 2)
    requests.push_back({.source = s, .deadline = 120.0});
  requests.push_back({.source = 0, .deadline = 200.0, .targets = {1, 2}});
  return requests;
}

/// Ungoverned budgets: the batch's aux-graph and solver reuse must not move
/// a bit of any schedule, serial and pooled + cached.
TEST(GovernedDiff, UnlimitedBudgetsMatchSolveManyByteForByte) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const int nodes = 6;
    const trace::ContactTrace t = random_trace(seed, nodes);
    const Tveg serial(t, unit_radio(), {.model = channel::ChannelModel::kStep});
    Tveg cached(t, unit_radio(), {.model = channel::ChannelModel::kStep});
    cached.attach_cache(std::make_shared<EdWeightCache>());

    const std::vector<SolveRequest> requests = mixed_panel(nodes);
    const auto baseline = one_shot(serial, requests);

    const auto governed_serial =
        fault::solve_many_governed(serial, serial.build_dts(), requests);

    fault::GovernOptions pooled_opt;
    pooled_opt.eedcb.pool = &pool();
    const auto governed_pooled = fault::solve_many_governed(
        cached, cached.build_dts(), requests, pooled_opt);

    ASSERT_EQ(governed_serial.size(), requests.size());
    ASSERT_EQ(governed_pooled.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(governed_serial[i].outcome.ok())
          << "seed " << seed << " request " << i;
      ASSERT_TRUE(governed_pooled[i].outcome.ok())
          << "seed " << seed << " request " << i;
      EXPECT_FALSE(governed_serial[i].degraded());
      expect_identical(baseline[i].schedule,
                       governed_serial[i].outcome.value().schedule, seed);
      expect_identical(baseline[i].schedule,
                       governed_pooled[i].outcome.value().schedule, seed);
    }
  }
}

/// One poisoned request planted mid-batch: every other request's schedule
/// must still be byte-identical to a baseline that never saw the poison.
TEST(GovernedDiff, PoisonedRequestLeavesEveryOtherScheduleIdentical) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const int nodes = 6;
    const trace::ContactTrace t = random_trace(seed, nodes);
    const Tveg tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});

    std::vector<SolveRequest> requests = mixed_panel(nodes);
    const auto baseline = one_shot(tveg, requests);

    // Plant a request whose source does not exist in the middle of the
    // 200-deadline group.
    const std::size_t poison_at = 3;
    requests.insert(requests.begin() + static_cast<std::ptrdiff_t>(poison_at),
                    {.source = static_cast<NodeId>(nodes + 50),
                     .deadline = 200.0});

    const auto governed =
        fault::solve_many_governed(tveg, tveg.build_dts(), requests);
    ASSERT_EQ(governed.size(), requests.size());
    std::size_t baseline_index = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (i == poison_at) {
        ASSERT_FALSE(governed[i].outcome.ok()) << "seed " << seed;
        EXPECT_EQ(governed[i].outcome.error().code,
                  support::ErrorCode::kInternal);
        continue;
      }
      ASSERT_TRUE(governed[i].outcome.ok())
          << "seed " << seed << " request " << i;
      expect_identical(baseline[baseline_index].schedule,
                       governed[i].outcome.value().schedule, seed);
      ++baseline_index;
    }
  }
}

}  // namespace
}  // namespace tveg::core
