#include "core/prune.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "support/assert.hpp"

namespace tveg::core {

namespace {

Schedule rebuild(const std::vector<Transmission>& txs,
                 const std::vector<char>& keep) {
  Schedule s;
  for (std::size_t k = 0; k < txs.size(); ++k)
    if (keep[k]) s.add(txs[k]);
  return s;
}

bool feasible(const TmedbInstance& instance, const Schedule& s) {
  return check_feasibility(instance, s).feasible;
}

}  // namespace

Schedule prune_schedule(const TmedbInstance& instance, Schedule schedule) {
  return prune_schedule(instance, std::move(schedule), PruneOptions{});
}

Schedule prune_schedule(const TmedbInstance& instance, Schedule schedule,
                        const PruneOptions& options) {
  instance.validate();

  std::size_t checks = 0;
  std::size_t removed = 0;
  std::size_t reductions = 0;
  std::size_t rounds = 0;
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& runs_metric = registry.counter(obs::keys::kPruneRuns);
  static obs::Counter& rounds_metric = registry.counter(obs::keys::kPruneRounds);
  static obs::Counter& checks_metric =
      registry.counter(obs::keys::kPruneFeasibilityChecks);
  static obs::Counter& removed_metric = registry.counter(obs::keys::kPruneRemoved);
  static obs::Counter& reductions_metric =
      registry.counter(obs::keys::kPruneLevelReductions);
  const auto flush = [&] {
    runs_metric.add(1);
    rounds_metric.add(rounds);
    checks_metric.add(checks);
    removed_metric.add(removed);
    reductions_metric.add(reductions);
  };

  ++checks;
  if (!feasible(instance, schedule)) {
    flush();
    return schedule;
  }
  const Tveg& tveg = *instance.tveg;

  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    ++rounds;
    bool changed = false;

    if (options.try_removal) {
      // Try dropping transmissions, most expensive first.
      std::vector<Transmission> txs = schedule.transmissions();
      std::vector<std::size_t> order(txs.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return txs[a].cost > txs[b].cost;
      });
      std::vector<char> keep(txs.size(), 1);
      for (std::size_t k : order) {
        keep[k] = 0;
        ++checks;
        if (feasible(instance, rebuild(txs, keep))) {
          changed = true;  // the transmission was redundant
          ++removed;
        } else {
          keep[k] = 1;
        }
      }
      schedule = rebuild(txs, keep);
    }

    if (options.try_level_reduction) {
      // Try lowering each transmission to a cheaper DCS level.
      const std::vector<Transmission> txs = schedule.transmissions();
      std::vector<Cost> costs(txs.size());
      for (std::size_t k = 0; k < txs.size(); ++k) costs[k] = txs[k].cost;

      auto build = [&] {
        Schedule s;
        for (std::size_t m = 0; m < txs.size(); ++m)
          s.add(txs[m].relay, txs[m].time, costs[m]);
        return s;
      };

      for (std::size_t k = 0; k < txs.size(); ++k) {
        const auto dcs = tveg.discrete_cost_set(txs[k].relay, txs[k].time);
        // Candidate cheaper levels, ascending: accept the cheapest feasible.
        for (const DcsEntry& entry : dcs) {
          if (entry.cost >= costs[k]) break;
          const Cost saved = costs[k];
          costs[k] = entry.cost;
          ++checks;
          if (feasible(instance, build())) {
            changed = true;
            ++reductions;
            break;
          }
          costs[k] = saved;
        }
      }
      schedule = build();
    }

    if (!changed) break;
  }
  flush();
  return schedule;
}

}  // namespace tveg::core
