#include "core/eedcb.hpp"

#include "core/prune.hpp"
#include "graph/steiner.hpp"
#include "obs/span.hpp"
#include "support/assert.hpp"

namespace tveg::core {

SchedulerResult run_eedcb(const TmedbInstance& instance,
                          const EedcbOptions& options) {
  instance.validate();
  const DiscreteTimeSet dts = instance.tveg->build_dts(options.dts);
  return run_eedcb(instance, dts, options);
}

SchedulerResult run_eedcb(const TmedbInstance& instance,
                          const DiscreteTimeSet& dts,
                          const EedcbOptions& options) {
  instance.validate();
  options.budget.check("eedcb");

  const AuxGraph aux(instance, dts,
                     {.power_expansion = options.power_expansion,
                      .pool = options.pool,
                      .budget = options.budget});
  options.budget.check("aux_graph");

  graph::SteinerSolver solver(aux.digraph());
  SchedulerResult result = run_eedcb_on_aux(instance, dts, aux, solver, options);
  result.stats.aux_build_ms = aux.build_ms();
  return result;
}

SchedulerResult run_eedcb_on_aux(const TmedbInstance& instance,
                                 const DiscreteTimeSet& dts,
                                 const AuxGraph& aux,
                                 graph::SteinerSolver& solver,
                                 const EedcbOptions& options) {
  instance.validate();
  options.budget.check("eedcb");

  SchedulerResult result;
  result.stats.dts_points = dts.total_points();
  result.stats.dts_truncated = dts.truncated();
  result.stats.aux_vertices = aux.vertex_count();
  result.stats.aux_arcs = aux.arc_count();

  const graph::VertexId source = aux.source_vertex_for(instance.source);
  const std::vector<graph::VertexId> terminals = aux.terminals_for(instance);

  solver.set_budget(options.budget);
  graph::SteinerResult tree;
  {
    obs::Span span("steiner", &result.stats.steiner_ms);
    switch (options.method) {
      case SteinerMethod::kRecursiveGreedy:
        tree = solver.recursive_greedy(source, terminals,
                                       options.steiner_level);
        break;
      case SteinerMethod::kShortestPath:
        tree = solver.shortest_path_heuristic(source, terminals);
        break;
    }
  }
  result.stats.steiner_nodes_expanded = solver.last_query_stats().nodes_expanded;
  result.stats.steiner_relaxations = solver.last_query_stats().relaxations;

  result.covered_all = tree.feasible;
  result.schedule = aux.extract_schedule(tree);
  if (options.prune && result.covered_all) {
    obs::Span span("prune", &result.stats.prune_ms);
    result.schedule = prune_schedule(instance, result.schedule);
  }
  return result;
}

}  // namespace tveg::core
