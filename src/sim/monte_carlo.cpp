#include "sim/monte_carlo.hpp"

#include <atomic>
#include <cmath>
#include <mutex>
#include <vector>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace tveg::sim {

using support::kInf;

namespace {

/// Per-trial channel/topology state.
struct TrialState {
  const core::Tveg& tveg;
  const McOptions& options;
  support::Rng& rng;
  /// This trial's index (TxFaultModel decisions are per-trial).
  std::size_t trial = 0;
  /// edge_up[e]: the edge exists this trial (presence_reliability draw).
  std::vector<char> edge_up;
  /// Bernoulli draws this trial (presence + channel); flushed per run.
  std::size_t draws = 0;
  /// Transmissions forced to fail by the fault model this trial.
  std::size_t tx_faults_hit = 0;

  TrialState(const core::Tveg& t, const McOptions& o, support::Rng& r,
             std::size_t trial_index = 0)
      : tveg(t), options(o), rng(r), trial(trial_index) {
    if (options.presence_reliability < 1.0) {
      edge_up.resize(tveg.graph().edge_count());
      for (auto& up : edge_up)
        up = rng.bernoulli(options.presence_reliability) ? 1 : 0;
      draws += edge_up.size();
    }
  }

  bool edge_alive(NodeId a, NodeId b) const {
    if (edge_up.empty()) return true;
    const std::size_t e = tveg.graph().edge_id(a, b);
    return e != static_cast<std::size_t>(-1) && edge_up[e];
  }

  /// True when transmission k is forced to fail this trial (counted).
  bool tx_forced_fail(std::size_t k) {
    if (!options.tx_faults.active() || !options.tx_faults.fails(trial, k))
      return false;
    ++tx_faults_hit;
    return true;
  }
};

/// One trial without interference: equal-time groups run to a fixpoint
/// (non-stop journeys at τ = 0 are legal), each transmission draws its
/// channel once.
std::size_t run_trial_plain(const std::vector<core::Transmission>& txs,
                            NodeId source, TrialState& state,
                            std::vector<Time>& informed_at) {
  const core::Tveg& tveg = state.tveg;
  const Time tau = tveg.latency();
  informed_at.assign(informed_at.size(), kInf);
  // The source has held the packet "since before time began".
  informed_at[static_cast<std::size_t>(source)] = -1.0;

  std::vector<char> fired(txs.size(), 0);
  std::size_t group_begin = 0;
  while (group_begin < txs.size()) {
    std::size_t group_end = group_begin + 1;
    while (group_end < txs.size() &&
           txs[group_end].time - txs[group_begin].time <= 1e-9)
      ++group_end;

    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t k = group_begin; k < group_end; ++k) {
        if (fired[k]) continue;
        const core::Transmission& tx = txs[k];
        if (informed_at[static_cast<std::size_t>(tx.relay)] > tx.time + 1e-9)
          continue;  // relay does not hold the packet (yet)
        fired[k] = 1;
        progress = true;
        if (state.tx_forced_fail(k)) continue;  // fault: emits nothing
        for (NodeId j : tveg.graph().neighbors_at(tx.relay, tx.time)) {
          if (!state.edge_alive(tx.relay, j)) continue;
          if (informed_at[static_cast<std::size_t>(j)] <= tx.time + tau)
            continue;
          const double phi =
              tveg.failure_probability(tx.relay, j, tx.time, tx.cost);
          ++state.draws;
          if (!state.rng.bernoulli(phi))
            informed_at[static_cast<std::size_t>(j)] = tx.time + tau;
        }
      }
    }
    group_begin = group_end;
  }

  std::size_t informed = 0;
  for (Time t : informed_at)
    if (t < kInf) ++informed;
  return informed;
}

/// One trial with interference: only relays informed strictly before the
/// group may transmit; a receiver in range of two or more of the group's
/// active relays decodes nothing.
std::size_t run_trial_interference(const std::vector<core::Transmission>& txs,
                                   NodeId source, TrialState& state,
                                   std::vector<Time>& informed_at) {
  const core::Tveg& tveg = state.tveg;
  const Time tau = tveg.latency();
  const auto n = informed_at.size();
  informed_at.assign(n, kInf);
  // The source has held the packet "since before time began".
  informed_at[static_cast<std::size_t>(source)] = -1.0;

  std::vector<int> heard(n, 0);
  std::size_t group_begin = 0;
  while (group_begin < txs.size()) {
    const Time t = txs[group_begin].time;
    std::size_t group_end = group_begin + 1;
    while (group_end < txs.size() && txs[group_end].time - t <= 1e-9)
      ++group_end;

    // Active relays: informed strictly before this instant (no same-time
    // receive-and-forward under the interference model). With τ > 0 an
    // arrival exactly at t came from a strictly earlier transmission, so it
    // also qualifies.
    std::vector<std::size_t> active;
    for (std::size_t k = group_begin; k < group_end; ++k) {
      const Time ia = informed_at[static_cast<std::size_t>(txs[k].relay)];
      if (ia < t - 1e-9 || (tau > 1e-9 && ia <= t + 1e-9)) {
        if (state.tx_forced_fail(k)) continue;  // fault: emits nothing
        active.push_back(k);
      }
    }

    // Count concurrent signals per potential receiver.
    std::fill(heard.begin(), heard.end(), 0);
    for (std::size_t k : active)
      for (NodeId j : tveg.graph().neighbors_at(txs[k].relay, t))
        if (state.edge_alive(txs[k].relay, j))
          ++heard[static_cast<std::size_t>(j)];

    for (std::size_t k : active) {
      const core::Transmission& tx = txs[k];
      for (NodeId j : tveg.graph().neighbors_at(tx.relay, t)) {
        const auto ji = static_cast<std::size_t>(j);
        if (!state.edge_alive(tx.relay, j)) continue;
        if (heard[ji] >= 2) continue;  // collision
        if (informed_at[ji] <= t + tau) continue;
        const double phi = tveg.failure_probability(tx.relay, j, t, tx.cost);
        ++state.draws;
        if (!state.rng.bernoulli(phi)) informed_at[ji] = t + tau;
      }
    }
    group_begin = group_end;
  }

  std::size_t informed = 0;
  for (Time x : informed_at)
    if (x < kInf) ++informed;
  return informed;
}

}  // namespace

DeliveryStats simulate_delivery(const core::Tveg& tveg, NodeId source,
                                const core::Schedule& schedule,
                                const McOptions& options) {
  TVEG_REQUIRE(options.trials > 0, "need at least one trial");
  TVEG_REQUIRE(source >= 0 && source < tveg.node_count(),
               "source out of range");
  TVEG_REQUIRE(options.presence_reliability > 0 &&
                   options.presence_reliability <= 1,
               "presence reliability must lie in (0, 1]");
  const auto& txs = schedule.transmissions();
  const auto n = static_cast<double>(tveg.node_count());

  std::vector<double> ratios(options.trials);
  std::atomic<std::size_t> full_count{0};
  std::atomic<std::size_t> total_draws{0};

  std::atomic<std::size_t> total_tx_faults{0};

  auto trial = [&](std::size_t i) {
    obs::Span trial_span("mc_trial");
    options.budget.check("mc_trial");
    // Per-trial stream via double-avalanche derivation: XOR with a multiple
    // of the golden gamma (the old scheme) let two scenario seeds share
    // trial streams at shifted indices.
    support::Rng rng(support::stream_seed(options.seed, i));
    TrialState state(tveg, options, rng, i);
    std::vector<Time> informed_at(static_cast<std::size_t>(tveg.node_count()));
    const std::size_t informed =
        options.model_interference
            ? run_trial_interference(txs, source, state, informed_at)
            : run_trial_plain(txs, source, state, informed_at);
    ratios[i] = static_cast<double>(informed) / n;
    if (informed == static_cast<std::size_t>(tveg.node_count()))
      full_count.fetch_add(1, std::memory_order_relaxed);
    total_draws.fetch_add(state.draws, std::memory_order_relaxed);
    total_tx_faults.fetch_add(state.tx_faults_hit, std::memory_order_relaxed);
  };

  double sim_ms = 0;
  {
    obs::Span span("monte_carlo", &sim_ms);
    if (options.parallel) {
      support::parallel_for(0, options.trials, trial, options.budget.cancel);
    } else {
      for (std::size_t i = 0; i < options.trials; ++i) trial(i);
    }
  }

  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& runs_metric = registry.counter(obs::keys::kMcRuns);
  static obs::Counter& trials_metric = registry.counter(obs::keys::kMcTrials);
  static obs::Counter& draws_metric =
      registry.counter(obs::keys::kMcChannelDraws);
  static obs::Gauge& rate_metric =
      registry.gauge(obs::keys::kMcLastDrawsPerSec);
  static obs::Counter& tx_faults_metric =
      registry.counter(obs::keys::kFaultInjectedTxFailure);
  runs_metric.add(1);
  trials_metric.add(options.trials);
  draws_metric.add(total_draws.load());
  tx_faults_metric.add(total_tx_faults.load());
  if (sim_ms > 0)
    rate_metric.set(static_cast<double>(total_draws.load()) * 1e3 / sim_ms);

  support::RunningStat stat;
  for (double r : ratios) stat.add(r);

  DeliveryStats out;
  out.trials = options.trials;
  out.mean_delivery_ratio = stat.mean();
  out.stddev_delivery_ratio = stat.stddev();
  out.full_delivery_fraction =
      static_cast<double>(full_count.load()) /
      static_cast<double>(options.trials);
  return out;
}

}  // namespace tveg::sim
