#include "core/energy_allocation.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "nlp/augmented_lagrangian.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace tveg::core {

namespace {
constexpr double kTimeTol = 1e-9;

void flush_allocation_metrics(const AllocationOutcome& outcome) {
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& allocations =
      registry.counter(obs::keys::kNlpAllocations);
  static obs::Counter& constraints = registry.counter(obs::keys::kNlpConstraints);
  static obs::Counter& passes = registry.counter(obs::keys::kNlpSolverPasses);
  static obs::Counter& infeasible = registry.counter(obs::keys::kNlpInfeasible);
  allocations.add(1);
  constraints.add(outcome.constraint_count);
  passes.add(outcome.solver_passes);
  if (!outcome.feasible) infeasible.add(1);
}

}  // namespace

AllocationOutcome allocate_energy(const TmedbInstance& instance,
                                  const Schedule& backbone,
                                  const AllocationOptions& options) {
  obs::Span span("nlp_allocation");
  instance.validate();
  const Tveg& tveg = *instance.tveg;
  const Time tau = tveg.latency();
  const double eps = instance.effective_epsilon();
  const auto& txs = backbone.transmissions();

  AllocationOutcome outcome;
  // Flushes on every return path, including the early "broken backbone" exits.
  struct FlushGuard {
    const AllocationOutcome& outcome;
    ~FlushGuard() { flush_allocation_metrics(outcome); }
  } flush_guard{outcome};

  if (txs.empty()) {
    // Only a single-node broadcast can be feasible with no transmissions.
    outcome.feasible = tveg.node_count() == 1;
    return outcome;
  }

  // Establish a causal fire order for the backbone: replay it assuming
  // every scheduled delivery succeeds (the deterministic semantics the
  // backbone algorithms used) and record the sequence number of each
  // transmission. Eq. 16 terms are then restricted to causally earlier
  // transmissions — a naive "t_k <= t_j" reading would let two same-time
  // transmissions "inform each other" (see core/schedule.hpp).
  std::vector<std::size_t> fire_seq(txs.size(), 0);
  {
    std::vector<char> informed(static_cast<std::size_t>(tveg.node_count()), 0);
    std::vector<Time> informed_at(static_cast<std::size_t>(tveg.node_count()),
                                  support::kInf);
    informed[static_cast<std::size_t>(instance.source)] = 1;
    informed_at[static_cast<std::size_t>(instance.source)] = 0;
    std::vector<char> fired(txs.size(), 0);
    std::size_t seq = 0;

    std::size_t k = 0;
    while (k < txs.size()) {
      const Time t = txs[k].time;
      std::size_t group_end = k + 1;
      while (group_end < txs.size() && txs[group_end].time - t <= kTimeTol)
        ++group_end;
      bool progress = true;
      while (progress) {
        progress = false;
        for (std::size_t q = k; q < group_end; ++q) {
          if (fired[q]) continue;
          const auto relay = static_cast<std::size_t>(txs[q].relay);
          if (!informed[relay] || informed_at[relay] > txs[q].time + kTimeTol)
            continue;
          fired[q] = 1;
          fire_seq[q] = ++seq;
          progress = true;
          for (NodeId j : tveg.graph().neighbors_at(txs[q].relay, t)) {
            const auto ji = static_cast<std::size_t>(j);
            if (!informed[ji] || informed_at[ji] > t + tau) {
              informed[ji] = 1;
              informed_at[ji] = std::min(informed_at[ji], t + tau);
            }
          }
        }
      }
      for (std::size_t q = k; q < group_end; ++q)
        if (!fired[q]) return outcome;  // relay never receives: broken backbone
      k = group_end;
    }
  }

  // Materialized ED-functions must outlive the solver call.
  std::vector<std::unique_ptr<channel::EdFunction>> eds;
  std::vector<nlp::CoverageConstraint> constraints;

  // Transmissions that reach node j by `by`, causally before sequence
  // number `before_seq` (SIZE_MAX = no causal restriction, Eq. 15).
  auto terms_reaching = [&](NodeId j, Time by, std::size_t before_seq) {
    std::vector<nlp::CoverageTerm> terms;
    for (std::size_t k = 0; k < txs.size(); ++k) {
      const Transmission& tx = txs[k];
      if (tx.relay == j) continue;
      if (tx.time + tau > by + kTimeTol) continue;
      if (fire_seq[k] >= before_seq) continue;
      if (!tveg.graph().adjacent(tx.relay, j, tx.time)) continue;
      eds.push_back(tveg.ed_function(tx.relay, j, tx.time));
      terms.push_back({k, eds.back().get()});
    }
    return terms;
  };

  constexpr std::size_t kNoSeqLimit = static_cast<std::size_t>(-1);

  // Eq. 15: every non-source terminal covered to ε by the deadline.
  for (NodeId j : instance.effective_targets()) {
    if (j == instance.source) continue;
    auto terms = terms_reaching(j, instance.deadline, kNoSeqLimit);
    if (terms.empty()) return outcome;  // structurally unreachable
    constraints.push_back({std::move(terms)});
  }

  // Eq. 16: every relay covered to ε by each of its transmissions, using
  // only causally earlier transmissions.
  for (std::size_t q = 0; q < txs.size(); ++q) {
    const Transmission& tx = txs[q];
    if (tx.relay == instance.source) continue;
    auto terms = terms_reaching(tx.relay, tx.time, fire_seq[q]);
    if (terms.empty()) return outcome;  // relay never receives the packet
    constraints.push_back({std::move(terms)});
  }

  outcome.constraint_count = constraints.size();
  const channel::RadioParams& radio = tveg.radio();

  std::vector<Cost> w;
  options.budget.check("energy_allocation");
  switch (options.solver) {
    case AllocationSolver::kCoordinateDescent: {
      const nlp::AllocationResult r = nlp::allocate_coordinate_descent(
          txs.size(), constraints, eps, radio.w_min, radio.w_max);
      outcome.feasible = r.feasible;
      outcome.solver_passes = r.passes;
      w = r.w;
      break;
    }
    case AllocationSolver::kAugmentedLagrangian: {
      nlp::EnergyAllocationProblem problem(txs.size(), constraints, eps,
                                           radio.w_min, radio.w_max);
      // Warm start at the independent allocation: feasible and O(1) scaled.
      const std::vector<Cost> w0 = nlp::independent_allocation(
          txs.size(), constraints, eps, radio.w_min, radio.w_max);
      nlp::AugmentedLagrangianOptions al;
      al.budget = options.budget;
      const nlp::NlpResult r =
          solve_augmented_lagrangian(problem, problem.from_costs(w0), al);
      outcome.feasible = r.feasible;
      outcome.solver_passes = r.outer_iterations;
      w = problem.to_costs(r.w);
      break;
    }
  }

  // Bounded retry before declaring infeasibility: numerical stalls (as
  // opposed to structural unreachability, handled above) are often escaped
  // by re-solving from a perturbed warm start with perturbed multipliers.
  if (!outcome.feasible && options.max_retries > 0) {
    auto& registry = obs::MetricsRegistry::global();
    static obs::Counter& retries_metric = registry.counter(obs::keys::kNlpRetries);
    static obs::Counter& rescued_metric =
        registry.counter(obs::keys::kNlpRetrySuccesses);
    support::Rng rng(options.retry_seed);
    nlp::EnergyAllocationProblem problem(txs.size(), constraints, eps,
                                         radio.w_min, radio.w_max);
    std::vector<Cost> w0 = nlp::independent_allocation(
        txs.size(), constraints, eps, radio.w_min, radio.w_max);
    nlp::AugmentedLagrangianOptions al;
    al.budget = options.budget;
    for (std::size_t attempt = 0; attempt < options.max_retries; ++attempt) {
      options.budget.check("energy_allocation_retry");
      ++outcome.retries;
      retries_metric.add(1);
      al.initial_penalty *= 4.0;  // perturbed multipliers: harder push
      std::vector<Cost> start = w0;
      for (Cost& x : start)
        x *= 1.0 + options.retry_perturbation * rng.uniform();
      const nlp::NlpResult r =
          solve_augmented_lagrangian(problem, problem.from_costs(start), al);
      outcome.solver_passes += r.outer_iterations;
      if (r.feasible) {
        outcome.feasible = true;
        w = problem.to_costs(r.w);
        rescued_metric.add(1);
        break;
      }
    }
  }

  for (std::size_t k = 0; k < txs.size(); ++k)
    outcome.schedule.add(txs[k].relay, txs[k].time, w[k]);
  return outcome;
}

}  // namespace tveg::core
