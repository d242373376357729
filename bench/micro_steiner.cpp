// Microbenchmark — directed Steiner solvers on real auxiliary graphs:
// runtime and tree cost of SPT+prune vs recursive greedy level 1/2
// (the quality/time tradeoff behind EEDCB's O(N^ε) knob).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "bench/timing.hpp"
#include "core/aux_graph.hpp"
#include "core/ed_weight_cache.hpp"
#include "core/eedcb.hpp"
#include "core/solve_many.hpp"
#include "fault/govern.hpp"
#include "graph/steiner.hpp"
#include "support/thread_pool.hpp"

using namespace tveg;

namespace {

struct Fixture {
  std::unique_ptr<core::Tveg> tveg;
  std::unique_ptr<DiscreteTimeSet> dts;
  std::unique_ptr<core::AuxGraph> aux;

  explicit Fixture(NodeId nodes) {
    trace::HaggleLikeConfig cfg;
    cfg.nodes = nodes;
    cfg.horizon = 17000;
    cfg.pair_probability = 0.5;
    cfg.activation_ramp_end = 500;
    cfg.seed = 1;
    tveg = std::make_unique<core::Tveg>(
        trace::generate_haggle_like(cfg), sim::paper_radio(),
        core::Tveg::Options{.model = channel::ChannelModel::kStep});
    dts = std::make_unique<DiscreteTimeSet>(tveg->build_dts());
    const core::TmedbInstance inst{tveg.get(), 0, 6000.0};
    aux = std::make_unique<core::AuxGraph>(inst, *dts);
  }
};

void BM_SteinerSpt(benchmark::State& state) {
  Fixture f(static_cast<NodeId>(state.range(0)));
  double cost = 0;
  for (auto _ : state) {
    graph::SteinerSolver solver(f.aux->digraph());
    const auto tree = solver.shortest_path_heuristic(f.aux->source_vertex(),
                                                     f.aux->terminals());
    cost = tree.cost;
    benchmark::DoNotOptimize(cost);
  }
  state.counters["tree_cost_norm"] =
      cost / (sim::paper_radio().noise_density *
              sim::paper_radio().gamma_linear());
}
BENCHMARK(BM_SteinerSpt)->Arg(10)->Arg(20)->Arg(30);

void BM_SteinerGreedy(benchmark::State& state) {
  Fixture f(static_cast<NodeId>(state.range(0)));
  const int level = static_cast<int>(state.range(1));
  double cost = 0;
  for (auto _ : state) {
    graph::SteinerSolver solver(f.aux->digraph());
    const auto tree = solver.recursive_greedy(f.aux->source_vertex(),
                                              f.aux->terminals(), level);
    cost = tree.cost;
    benchmark::DoNotOptimize(cost);
  }
  state.counters["tree_cost_norm"] =
      cost / (sim::paper_radio().noise_density *
              sim::paper_radio().gamma_linear());
}
BENCHMARK(BM_SteinerGreedy)
    ->Args({10, 1})
    ->Args({10, 2})
    ->Args({20, 1})
    ->Args({20, 2})
    ->Args({30, 2});

void BM_AuxGraphBuild(benchmark::State& state) {
  const auto nodes = static_cast<NodeId>(state.range(0));
  trace::HaggleLikeConfig cfg;
  cfg.nodes = nodes;
  cfg.horizon = 17000;
  cfg.pair_probability = 0.5;
  cfg.activation_ramp_end = 500;
  cfg.seed = 1;
  const core::Tveg tveg(trace::generate_haggle_like(cfg), sim::paper_radio(),
                        {.model = channel::ChannelModel::kStep});
  const auto dts = tveg.build_dts();
  const core::TmedbInstance inst{&tveg, 0, 6000.0};
  std::size_t arcs = 0;
  for (auto _ : state) {
    const core::AuxGraph aux(inst, dts);
    arcs = aux.arc_count();
    benchmark::DoNotOptimize(arcs);
  }
  state.counters["aux_arcs"] = static_cast<double>(arcs);
}
BENCHMARK(BM_AuxGraphBuild)->Arg(10)->Arg(20)->Arg(30);

// ---------------------------------------------------------------------------
// Full-pipeline benchmarks for the parallel solve path (DESIGN.md "Parallel
// solve & caching"): serial memo-free oracle vs EdWeightCache + 8-thread
// pool, and per-request loops vs the governed batch. Rician channels make
// every min-cost evaluation a bisection over Marcum-Q tail sums — the
// workload the cache exists for. scripts/bench_gate.sh asserts the cached +
// pooled pipeline is >= 2x the serial baseline on the largest scenario here.

support::ThreadPool& bench_pool() {
  static support::ThreadPool pool(8);
  return pool;
}

core::Tveg pipeline_tveg(NodeId nodes) {
  trace::HaggleLikeConfig cfg;
  cfg.nodes = nodes;
  cfg.horizon = 17000;
  cfg.pair_probability = 0.5;
  cfg.activation_ramp_end = 500;
  cfg.seed = 1;
  return core::Tveg(
      trace::generate_haggle_like(cfg), sim::paper_radio(),
      core::Tveg::Options{.model = channel::ChannelModel::kRician});
}

void BM_EedcbPipelineSerial(benchmark::State& state) {
  const core::Tveg tveg = pipeline_tveg(static_cast<NodeId>(state.range(0)));
  const core::TmedbInstance inst{&tveg, 0, 6000.0};
  for (auto _ : state) {
    const auto r = core::run_eedcb(inst, core::EedcbOptions{});
    benchmark::DoNotOptimize(r.schedule.total_cost());
  }
}
BENCHMARK(BM_EedcbPipelineSerial)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_EedcbPipelineCachedPool(benchmark::State& state) {
  core::Tveg tveg = pipeline_tveg(static_cast<NodeId>(state.range(0)));
  tveg.attach_cache(std::make_shared<core::EdWeightCache>());
  const core::TmedbInstance inst{&tveg, 0, 6000.0};
  core::EedcbOptions options;
  options.pool = &bench_pool();
  for (auto _ : state) {
    const auto r = core::run_eedcb(inst, options);
    benchmark::DoNotOptimize(r.schedule.total_cost());
  }
}
BENCHMARK(BM_EedcbPipelineCachedPool)
    ->Arg(10)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);

std::vector<core::SolveRequest> sweep_requests(NodeId nodes) {
  std::vector<core::SolveRequest> requests;
  for (NodeId s : bench::source_panel(nodes))
    requests.push_back({.source = s, .deadline = 6000.0});
  return requests;
}

void BM_SweepPerRequestLoop(benchmark::State& state) {
  core::Tveg tveg = pipeline_tveg(static_cast<NodeId>(state.range(0)));
  tveg.attach_cache(std::make_shared<core::EdWeightCache>());
  const auto requests = sweep_requests(static_cast<NodeId>(state.range(0)));
  core::EedcbOptions options;
  options.pool = &bench_pool();
  for (auto _ : state) {
    double total = 0;
    for (const auto& req : requests)
      total += core::run_eedcb(core::to_instance(tveg, req), options)
                   .schedule.total_cost();
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_SweepPerRequestLoop)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_SweepSolveManyBatch(benchmark::State& state) {
  core::Tveg tveg = pipeline_tveg(static_cast<NodeId>(state.range(0)));
  tveg.attach_cache(std::make_shared<core::EdWeightCache>());
  const auto requests = sweep_requests(static_cast<NodeId>(state.range(0)));
  fault::GovernOptions options;
  options.eedcb.pool = &bench_pool();
  for (auto _ : state) {
    // The batch's one DTS build is part of the timed work.
    const DiscreteTimeSet dts = tveg.build_dts(options.eedcb.dts);
    double total = 0;
    for (const auto& r :
         fault::solve_many_governed(tveg, dts, requests, options))
      total += r.outcome.value().schedule.total_cost();
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_SweepSolveManyBatch)->Arg(20)->Unit(benchmark::kMillisecond);

}  // namespace

// Shared microbench main: timings are mirrored into BENCH_micro_steiner.json
// for scripts/bench_gate.sh, and the report is written only after the timing
// loops finish.
int main(int argc, char** argv) {
  return tveg::bench::run_microbench(argc, argv, "micro_steiner");
}
