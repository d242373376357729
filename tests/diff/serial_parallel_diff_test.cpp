// Differential suite for the parallel solve pipeline (DESIGN.md "Parallel
// solve & caching"): over hundreds of seeded random TVEGs, the cached +
// pooled pipeline must produce schedules BYTE-identical — same transmission
// list under exact double equality, same serialized text — to the serial,
// memoization-free oracle. Any divergence, even in the last mantissa bit,
// is a bug: the parallel phases are designed as pure reorderings of the
// serial computation (indexed slots, in-order reductions), never as
// "close enough" recomputations.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/ed_weight_cache.hpp"
#include "core/eedcb.hpp"
#include "core/fr.hpp"
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

/// One worker pool for the whole suite; 8 threads regardless of the host's
/// core count — determinism must not depend on scheduling.
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

/// 200+ instances: serial uncached EEDCB (recursive greedy level 2 — the
/// method with the parallel density scan) against the cached + 8-thread
/// pipeline on a twin TVEG built from the same trace.
TEST(SerialParallelDiff, EedcbByteIdenticalAcross200Instances) {
  std::size_t solved = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const trace::ContactTrace t =
        random_trace(seed, 5 + static_cast<int>(seed % 4));
    const Tveg serial(t, unit_radio(), {.model = channel::ChannelModel::kStep});
    Tveg parallel(t, unit_radio(), {.model = channel::ChannelModel::kStep});
    parallel.attach_cache(std::make_shared<EdWeightCache>());

    const Time deadline = (seed % 3 == 0) ? 120.0 : 200.0;
    EedcbOptions serial_opt;
    serial_opt.method = SteinerMethod::kRecursiveGreedy;
    serial_opt.steiner_level = 2;
    EedcbOptions parallel_opt = serial_opt;
    parallel_opt.pool = &pool();

    const auto oracle =
        run_eedcb(TmedbInstance{&serial, 0, deadline}, serial_opt);
    const auto candidate =
        run_eedcb(TmedbInstance{&parallel, 0, deadline}, parallel_opt);
    ASSERT_EQ(oracle.covered_all, candidate.covered_all) << "seed " << seed;
    expect_identical(oracle.schedule, candidate.schedule, seed);
    if (oracle.covered_all) ++solved;
  }
  // The sweep must exercise real schedules, not trivially empty ones.
  EXPECT_GE(solved, 100u);
}

/// The shortest-path method and the power-expansion ablation take different
/// code paths through the aux graph — diff them too.
TEST(SerialParallelDiff, SptAndAblationByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const trace::ContactTrace t = random_trace(seed, 6);
    const Tveg serial(t, unit_radio(), {.model = channel::ChannelModel::kStep});
    Tveg parallel(t, unit_radio(), {.model = channel::ChannelModel::kStep});
    parallel.attach_cache(std::make_shared<EdWeightCache>());

    for (const bool expansion : {true, false}) {
      EedcbOptions serial_opt;
      serial_opt.method = SteinerMethod::kShortestPath;
      serial_opt.power_expansion = expansion;
      EedcbOptions parallel_opt = serial_opt;
      parallel_opt.pool = &pool();
      const auto oracle =
          run_eedcb(TmedbInstance{&serial, 0, 200.0}, serial_opt);
      const auto candidate =
          run_eedcb(TmedbInstance{&parallel, 0, 200.0}, parallel_opt);
      expect_identical(oracle.schedule, candidate.schedule, seed);
    }
  }
}

/// FR-EEDCB runs the same pipeline on fading weights and then the NLP; the
/// cache and pool must not move the allocation either.
TEST(SerialParallelDiff, FrEedcbByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const trace::ContactTrace t = random_trace(seed, 5);
    const Tveg serial(t, unit_radio(),
                      {.model = channel::ChannelModel::kRayleigh});
    Tveg parallel(t, unit_radio(),
                  {.model = channel::ChannelModel::kRayleigh});
    parallel.attach_cache(std::make_shared<EdWeightCache>());

    EedcbOptions serial_opt;
    EedcbOptions parallel_opt = serial_opt;
    parallel_opt.pool = &pool();
    const auto oracle = run_fr_eedcb(TmedbInstance{&serial, 0, 200.0},
                                     serial_opt);
    const auto candidate = run_fr_eedcb(TmedbInstance{&parallel, 0, 200.0},
                                        parallel_opt);
    ASSERT_EQ(oracle.feasible(), candidate.feasible()) << "seed " << seed;
    expect_identical(oracle.backbone.schedule, candidate.backbone.schedule,
                     seed);
    expect_identical(oracle.schedule(), candidate.schedule(), seed);
  }
}

/// The governed batch over a mixed panel (every source, two deadlines, one
/// multicast request) against per-request run_eedcb — on top of cache +
/// pool, so the batch path composes with both tentpole levers.
TEST(SerialParallelDiff, SolveManyMatchesPerRequestRuns) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const int nodes = 6;
    const trace::ContactTrace t = random_trace(seed, nodes);
    const Tveg serial(t, unit_radio(), {.model = channel::ChannelModel::kStep});
    Tveg batched(t, unit_radio(), {.model = channel::ChannelModel::kStep});
    batched.attach_cache(std::make_shared<EdWeightCache>());

    std::vector<SolveRequest> requests;
    for (NodeId s = 0; s < nodes; ++s)
      requests.push_back({.source = s, .deadline = 200.0});
    for (NodeId s = 0; s < nodes; s += 2)
      requests.push_back({.source = s, .deadline = 120.0});
    requests.push_back({.source = 0, .deadline = 200.0, .targets = {1, 2}});

    fault::GovernOptions batch_opt;
    batch_opt.eedcb.pool = &pool();
    const auto batch = fault::solve_many_governed(
        batched, batched.build_dts(), requests, batch_opt);
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(batch[i].outcome.ok())
          << "seed " << seed << " request " << i;
      const SchedulerResult& solved = batch[i].outcome.value();
      const auto oracle = run_eedcb(to_instance(serial, requests[i]));
      ASSERT_EQ(oracle.covered_all, solved.covered_all)
          << "seed " << seed << " request " << i;
      expect_identical(oracle.schedule, solved.schedule, seed);
    }
  }
}

/// Running the same cached + pooled solve twice must be deterministic run
/// to run (warm cache vs cold cache included).
TEST(SerialParallelDiff, RepeatedCachedSolvesAreDeterministic) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const trace::ContactTrace t = random_trace(seed, 7);
    Tveg tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});
    tveg.attach_cache(std::make_shared<EdWeightCache>());
    EedcbOptions opt;
    opt.pool = &pool();
    const auto first = run_eedcb(TmedbInstance{&tveg, 0, 200.0}, opt);
    const auto second = run_eedcb(TmedbInstance{&tveg, 0, 200.0}, opt);
    expect_identical(first.schedule, second.schedule, seed);
  }
}

}  // namespace
}  // namespace tveg::core
