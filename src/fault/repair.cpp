#include "fault/repair.hpp"

#include <algorithm>
#include <cmath>

#include "obs/flight_recorder.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "online/driver.hpp"
#include "online/policy.hpp"
#include "support/math.hpp"

namespace tveg::fault {

using support::kInf;

namespace {
constexpr double kTimeTol = 1e-9;
}

std::vector<Time> replay_informed_times(const core::TmedbInstance& instance,
                                        const core::Schedule& schedule,
                                        std::vector<char>* fired_out) {
  instance.validate();
  const core::Tveg& tveg = *instance.tveg;
  const Time tau = tveg.latency();
  const double eps = instance.effective_epsilon();
  const auto n = static_cast<std::size_t>(tveg.node_count());
  const auto& txs = schedule.transmissions();

  // Cumulative coverage in log space, exactly as run_cascade evaluates
  // Eq. 6: a node is informed once the *product* of failure probabilities
  // over all its arrivals drops to ε — fading schedules (FR-*) split the
  // failure budget across overlapping transmissions, so a per-transmission
  // threshold would wrongly declare their nodes uncovered.
  std::vector<double> log_p(n, 0.0);
  log_p[static_cast<std::size_t>(instance.source)] = -kInf;
  std::vector<Time> informed(n, kInf);
  informed[static_cast<std::size_t>(instance.source)] = 0;
  std::vector<char> fired(txs.size(), 0);

  struct Arrival {
    Time arrival;
    NodeId receiver;
    double log_phi;
  };
  std::vector<Arrival> pending;
  std::size_t drained = 0;
  auto drain = [&](Time upto) {
    while (drained < pending.size() &&
           pending[drained].arrival <= upto + kTimeTol) {
      const Arrival& a = pending[drained++];
      const auto r = static_cast<std::size_t>(a.receiver);
      log_p[r] += a.log_phi;
      if (std::exp(log_p[r]) <= eps + 1e-12)
        informed[r] = std::min(informed[r], a.arrival);
    }
  };

  std::size_t k = 0;
  while (k < txs.size()) {
    const Time t = txs[k].time;
    if (t + tau > instance.deadline + kTimeTol) break;
    std::size_t group_end = k + 1;
    while (group_end < txs.size() && txs[group_end].time - t <= kTimeTol)
      ++group_end;

    drain(t);

    // Same-time fixpoint, mirroring run_cascade's causal semantics.
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t q = k; q < group_end; ++q) {
        if (fired[q]) continue;
        const core::Transmission& tx = txs[q];
        if (informed[static_cast<std::size_t>(tx.relay)] > tx.time + kTimeTol)
          continue;  // relay does not hold the packet
        fired[q] = 1;
        progress = true;
        for (NodeId j : tveg.graph().neighbors_at(tx.relay, tx.time)) {
          if (j == instance.source) continue;
          const double phi =
              tveg.failure_probability(tx.relay, j, tx.time, tx.cost);
          pending.push_back({tx.time + tau, j, support::safe_log(phi)});
        }
        if (tau <= kTimeTol) drain(t);  // same-instant delivery
      }
    }
    k = group_end;
  }
  drain(instance.deadline);

  if (fired_out) *fired_out = std::move(fired);
  return informed;
}

RepairOutcome repair_schedule(const core::TmedbInstance& planned_instance,
                              const core::TmedbInstance& instance,
                              const DiscreteTimeSet& dts,
                              const core::Schedule& planned,
                              const RepairOptions& options) {
  obs::Span span("schedule_repair");
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& passes = registry.counter(obs::keys::kFaultRepairPasses);
  static obs::Counter& diverged_metric =
      registry.counter(obs::keys::kFaultRepairDiverged);
  static obs::Counter& patched_txs =
      registry.counter(obs::keys::kFaultRepairPatchTransmissions);
  static obs::Counter& recovered =
      registry.counter(obs::keys::kFaultRepairNodesRecovered);
  passes.add(1);

  RepairOutcome out;
  std::vector<char> fired;
  out.informed_time = replay_informed_times(instance, planned, &fired);
  const std::vector<Time> expected =
      replay_informed_times(planned_instance, planned);

  const auto n = out.informed_time.size();
  out.uncovered_before = 0;
  // First divergence: a node the clean replay informs at time t that the
  // faulted replay has not informed by t. Detection happens at the expected
  // arrival — the moment an ack/beacon would have been missed.
  out.detect_time = instance.deadline;
  bool diverged = false;
  for (std::size_t v = 0; v < n; ++v) {
    if (out.informed_time[v] == kInf) ++out.uncovered_before;
    if (expected[v] < kInf &&
        out.informed_time[v] > expected[v] + kTimeTol) {
      diverged = true;
      out.detect_time = std::min(out.detect_time, expected[v]);
    }
  }

  // The executed part of the plan: transmissions that actually fired.
  const auto& txs = planned.transmissions();
  for (std::size_t q = 0; q < txs.size(); ++q)
    if (fired[q]) out.repaired.add(txs[q]);

  if (!diverged || out.uncovered_before == 0) {
    out.uncovered_after = out.uncovered_before;
    return out;
  }
  diverged_metric.add(1);
  obs::flight_recorder().record(obs::FlightEventKind::kRepairDivergence,
                                out.uncovered_before,
                                static_cast<std::uint64_t>(txs.size()));
  obs::flight_dump("schedule-repair divergence");

  // Incremental re-solve on the faulted instance from what reality actually
  // achieved, starting at the detection time. Epidemic is the right patch
  // policy: after a fault the priority is coverage, not energy.
  online::EpidemicPolicy patch_policy;
  online::OnlineOptions online_options;
  online_options.seed = options.seed;
  const core::SchedulerResult patched = online::run_online_from(
      instance, dts, patch_policy, out.informed_time, out.detect_time,
      online_options);
  out.patch = patched.schedule;
  for (const core::Transmission& tx : out.patch.transmissions())
    out.repaired.add(tx);

  const std::vector<Time> after =
      replay_informed_times(instance, out.repaired);
  out.uncovered_after = 0;
  for (Time t : after)
    if (t == kInf) ++out.uncovered_after;

  patched_txs.add(out.patch.size());
  obs::flight_recorder().record(obs::FlightEventKind::kRepairPatched,
                                out.uncovered_after, out.patch.size());
  if (out.uncovered_before > out.uncovered_after)
    recovered.add(out.uncovered_before - out.uncovered_after);
  return out;
}

}  // namespace tveg::fault
