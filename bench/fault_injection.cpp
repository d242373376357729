// Robustness bench: how much coverage do injected topology faults destroy,
// and how much of it does schedule repair win back? Sweeps fault severity
// (edge dropout + contact truncation at increasing probability), replays
// the clean FR-EEDCB schedule against each faulted reality, and compares
// uncovered nodes and Monte-Carlo delivery with and without repair. Also
// reports the fallback ladder's rung under shrinking solver budgets.
#include <iostream>

#include "bench/common.hpp"
#include "fault/degrade.hpp"
#include "fault/fault_plan.hpp"
#include "fault/repair.hpp"

using namespace tveg;
using bench::paper_trace;
using support::Table;

int main() {
  bench::Report report("fault_injection");
  const NodeId n = 20;
  const Time deadline = 4000;
  report.set_config("nodes", static_cast<double>(n));
  report.set_config("deadline_s", deadline);

  const trace::ContactTrace clean = paper_trace(n, /*ramped=*/false);
  const sim::Workbench bench(clean, sim::paper_radio());
  const auto sources = bench::source_panel(n, 4);

  // Severity sweep: planned schedule vs faulted reality, repair on/off.
  {
    Table table({"severity", "fault_events", "uncovered_no_repair",
                 "uncovered_repaired", "delivery_planned",
                 "delivery_repaired"});
    for (double severity : {0.0, 0.1, 0.2, 0.4}) {
      fault::FaultPlan plan;
      plan.seed = 17;
      plan.edge_dropout = severity;
      plan.contact_truncation = severity;

      support::RunningStat uncovered_before, uncovered_after;
      support::RunningStat delivery_planned, delivery_repaired;
      std::size_t events = 0;
      for (std::size_t i = 0; i < sources.size(); ++i) {
        const auto outcome =
            bench.run(sim::Algorithm::kFrEedcb, sources[i], deadline, i + 1);
        if (!outcome.covered_all || !outcome.allocation_feasible) continue;

        const fault::FaultedTrace faulted = fault::apply_plan(clean, plan);
        events = faulted.log.events.size();
        const sim::Workbench faulted_bench(faulted.trace, sim::paper_radio());
        const auto planned_inst = bench.fading_instance(sources[i], deadline);
        const auto real_inst =
            faulted_bench.fading_instance(sources[i], deadline);

        const auto repair = fault::repair_schedule(
            planned_inst, real_inst, faulted_bench.dts(), outcome.schedule);
        uncovered_before.add(static_cast<double>(repair.uncovered_before));
        uncovered_after.add(static_cast<double>(repair.uncovered_after));

        sim::McOptions mc{.trials = 400, .seed = i + 1};
        delivery_planned.add(
            faulted_bench.delivery_under_fading(sources[i], outcome.schedule,
                                                mc)
                .mean_delivery_ratio);
        delivery_repaired.add(
            faulted_bench.delivery_under_fading(sources[i], repair.repaired,
                                                mc)
                .mean_delivery_ratio);
      }
      table.add_row({Table::fmt(severity, 2),
                     Table::fmt(static_cast<double>(events), 0),
                     Table::fmt(uncovered_before.mean(), 2),
                     Table::fmt(uncovered_after.mean(), 2),
                     Table::fmt(delivery_planned.mean(), 4),
                     Table::fmt(delivery_repaired.mean(), 4)});
    }
    report.emit("Fault severity vs coverage: repair off/on", table);
  }

  // Fallback ladder: rung reached under shrinking budgets.
  {
    Table table({"budget_ms", "rung", "descents", "covered", "energy"});
    const auto instance = bench.step_instance(sources[0], deadline);
    for (double budget : {-1.0, 200.0, 5.0, 0.0}) {
      fault::RobustSolveOptions options;
      if (budget >= 0) options.budget = support::Budget::after_ms(budget);
      const auto r = fault::robust_solve(instance, bench.dts(), options);
      table.add_row({budget < 0 ? "unlimited" : Table::fmt(budget, 0),
                     fault::rung_name(r.rung),
                     Table::fmt(static_cast<double>(r.descents.size()), 0),
                     r.result.covered_all ? "yes" : "no",
                     Table::fmt(core::normalized_energy(instance,
                                                        r.result.schedule),
                                1)});
    }
    report.emit("Fallback ladder rung vs solver budget", table);
  }

  std::cout << "\nExpected: uncovered nodes grow with severity without "
               "repair and shrink back\nwith it; tighter budgets push the "
               "ladder from eedcb toward greed at higher\nenergy but intact "
               "coverage.\n";
  report.write_json();
  return 0;
}
