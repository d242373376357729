// tmedb — command-line front end for the library.
//
//   tmedb generate --kind haggle --nodes 20 --horizon 17000 --seed 1 --out t.trace
//   tmedb info t.trace
//   tmedb run t.trace --algorithm FR-EEDCB --source 0 --deadline 2000
//
// `run` prints the schedule, its feasibility verdict, normalized energy and
// (for fading evaluation) the Monte-Carlo delivery ratio.
#include <cmath>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "core/schedule_io.hpp"
#include "fault/degrade.hpp"
#include "fault/fault_plan.hpp"
#include "fault/repair.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"
#include "support/table.hpp"
#include "trace/generators.hpp"
#include "trace/io.hpp"
#include "trace/stats.hpp"

namespace {

using namespace tveg;

using cli::Args;
using cli::UsageError;

/// Per-command option specs; commands absent here accept no options.
const Args::Spec& spec_for(const std::string& cmd) {
  static const std::map<std::string, Args::Spec> specs = {
      {"generate",
       {{"kind", "nodes", "horizon", "seed", "out", "ramp", "pair-probability",
         "metrics-out"},
        {"trace"}}},
      {"info", {{}, {}}},
      {"stats", {{}, {}}},
      {"run",
       {{"algorithm", "source", "deadline", "seed", "trials", "steiner",
         "level", "threads", "save-schedule", "metrics-out", "faults",
         "solver-budget-ms", "fault-log", "trace-out", "flight-out",
         "request-budget-ms", "max-inflight", "stall-ms", "shed-policy"},
        {"trace"}}},
      {"sweep", {{"source", "from", "to", "step", "seed", "threads",
                  "trace-out", "flight-out", "request-budget-ms",
                  "max-inflight", "stall-ms", "shed-policy"},
                 {}}},
      {"evaluate",
       {{"source", "deadline", "trials", "seed", "reliability", "interference"},
        {}}},
  };
  static const Args::Spec empty;
  auto it = specs.find(cmd);
  return it == specs.end() ? empty : it->second;
}

/// --threads: a small non-negative integer (0 = serial). Validated here so
/// a stray negative value fails as a usage error, not deep inside the
/// thread-pool constructor.
std::size_t parse_threads(const Args& args) {
  const double n = args.get_num("threads", 0);
  if (n < 0 || n > 256 || n != std::floor(n))
    throw UsageError("--threads expects an integer in [0, 256], got " +
                     args.get("threads", "?"));
  return static_cast<std::size_t>(n);
}

/// True when any flag routing EEDCB solves through the governed batch
/// (fault::solve_many_governed) is present.
bool wants_governance(const Args& args) {
  return args.has("request-budget-ms") || args.has("max-inflight") ||
         args.has("stall-ms") || args.has("shed-policy");
}

/// --request-budget-ms / --max-inflight / --stall-ms / --shed-policy.
fault::GovernOptions parse_governance(const Args& args) {
  fault::GovernOptions gov;
  gov.request_budget_ms = args.get_num("request-budget-ms", -1);
  const double inflight = args.get_num("max-inflight", 0);
  if (inflight < 0 || inflight > 1e9 || inflight != std::floor(inflight))
    throw UsageError("--max-inflight expects a non-negative integer, got " +
                     args.get("max-inflight", "?"));
  gov.max_inflight = static_cast<std::size_t>(inflight);
  gov.stall_ms = args.get_num("stall-ms", -1);
  const std::string policy = args.get("shed-policy", "degrade");
  if (policy == "degrade")
    gov.shed_policy = fault::ShedPolicy::kDegrade;
  else if (policy == "error")
    gov.shed_policy = fault::ShedPolicy::kError;
  else
    throw UsageError("--shed-policy expects degrade or error, got '" + policy +
                     "'");
  return gov;
}

/// --steiner / --level: recursive greedy at level 1 or 2 (the default), or
/// the level-free shortest-path heuristic.
void parse_steiner(const Args& args, sim::Workbench::Options& bench_options) {
  const std::string steiner = args.get("steiner", "greedy");
  if (steiner == "spt") {
    if (args.has("level"))
      throw UsageError("--level applies to --steiner greedy only");
    bench_options.steiner_method = core::SteinerMethod::kShortestPath;
    return;
  }
  if (steiner != "greedy")
    throw UsageError("--steiner expects greedy or spt, got '" + steiner + "'");
  const double level = args.get_num("level", bench_options.steiner_level);
  if (level != 1 && level != 2)
    throw UsageError("--level expects 1 or 2, got " + args.get("level", "?"));
  bench_options.steiner_method = core::SteinerMethod::kRecursiveGreedy;
  bench_options.steiner_level = static_cast<int>(level);
}

/// --deadline / --from / --to: a time in (0, horizon] of the loaded trace,
/// so an out-of-range value fails as a usage error naming the horizon
/// instead of deep inside instance validation.
Time parse_deadline(const Args& args, const std::string& key, Time fallback,
                    const trace::ContactTrace& trace) {
  const Time t = args.get_num(key, fallback);
  if (!(t > 0) || t > trace.horizon()) {
    std::ostringstream msg;
    msg << "--" << key << " expects a time in (0, " << trace.horizon()
        << "], the trace horizon; got " << t
        << (args.has(key) ? "" : " (the default)");
    throw UsageError(msg.str());
  }
  return t;
}

/// Seeds the pipeline phases so exported phase_totals carry the same keys
/// for every algorithm, then turns tracing on.
void enable_observability() {
  obs::declare_phases({"dts_build", "aux_graph", "steiner", "prune",
                       "nlp_allocation", "monte_carlo"});
  obs::set_enabled(true);
}

/// Shared --trace-out / --flight-out prologue: arms tracing (one switch for
/// the phase tree and the span rings) and the crash-time flight-recorder
/// dump path.
void arm_tracing(const Args& args) {
  if (args.has("trace-out")) {
    enable_observability();
    obs::set_current_thread_name("main");
  }
  if (args.has("flight-out"))
    obs::set_flight_dump_path(args.get("flight-out", ""));
}

/// Shared --metrics-out / --trace / --trace-out / --flight-out epilogue.
void emit_observability(const Args& args) {
  if (args.has("trace")) obs::trace_report(std::cerr);
  const std::string path = args.get("metrics-out", "");
  if (!path.empty()) {
    obs::write_snapshot_file(path);
    std::cout << "metrics written to: " << path << "\n";
  }
  const std::string trace_path = args.get("trace-out", "");
  if (!trace_path.empty()) {
    obs::write_chrome_trace_file(trace_path);
    std::cout << "trace written to:   " << trace_path
              << " (load in ui.perfetto.dev)\n";
  }
  if (args.has("flight-out")) {
    // On-demand dump: the file exists even when no crash trigger fired
    // during the run (triggers overwrite it with fresher context).
    obs::flight_dump("on demand");
    std::cout << "flight recorder:    " << args.get("flight-out", "") << "\n";
  }
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  tmedb generate --kind haggle|waypoint|dutycycle|snapshots\n"
      "                 [--nodes N] [--horizon T] [--seed S] --out FILE\n"
      "                 [--metrics-out FILE] [--trace]\n"
      "  tmedb info TRACE\n"
      "  tmedb stats TRACE\n"
      "  tmedb run TRACE [--algorithm EEDCB|GREED|RAND|FR-EEDCB|FR-GREED|FR-RAND]\n"
      "                  [--source ID] [--deadline T] [--seed S] [--trials K]\n"
      "                  [--steiner greedy|spt] [--level 1|2]\n"
      "                  [--threads N] [--save-schedule FILE]\n"
      "                  [--faults PLAN] [--solver-budget-ms N]\n"
      "                  [--fault-log FILE]\n"
      "                  [--request-budget-ms N] [--max-inflight K]\n"
      "                  [--stall-ms N] [--shed-policy degrade|error]\n"
      "                  [--metrics-out FILE] [--trace]\n"
      "                  [--trace-out FILE] [--flight-out FILE]\n"
      "  tmedb sweep TRACE [--source ID] [--from T0] [--to T1] [--step DT]\n"
      "                  [--threads N]\n"
      "                  [--request-budget-ms N] [--max-inflight K]\n"
      "                  [--stall-ms N] [--shed-policy degrade|error]\n"
      "                  [--trace-out FILE] [--flight-out FILE]\n"
      "  tmedb evaluate TRACE SCHEDULE [--source ID] [--deadline T]\n"
      "                  [--trials K] [--reliability Q] [--interference 1]\n"
      "\n"
      "--steiner picks EEDCB's Steiner solver: greedy, the default\n"
      "(recursive greedy at --level 1 or 2, default 2; --level is an error\n"
      "with spt), or spt (union of shortest paths + prune; faster, no\n"
      "approximation bound). --deadline, --from and --to must lie in\n"
      "(0, H], H the trace horizon.\n"
      "--metrics-out writes an obs snapshot (JSON, or CSV when FILE ends in\n"
      ".csv); --trace prints the phase tree to stderr.\n"
      "--trace-out records thread-aware spans (phases, pool tasks,\n"
      "queue waits, cache fills, MC trials) and writes a Chrome/Perfetto\n"
      "trace_event JSON — open it in ui.perfetto.dev. --flight-out arms the\n"
      "crash-time flight recorder: the last 256 solver events are dumped to\n"
      "FILE on fallback-ladder demotion, deadline expiry or repair\n"
      "divergence (and once more, on demand, when the command finishes).\n"
      "--faults injects a deterministic fault plan (key=value,... — keys:\n"
      "seed, edge_dropout, node_churn, churn_span, truncation,\n"
      "truncation_keep, jitter, cost_inflation, inflation_factor,\n"
      "tx_failure); the schedule is repaired against the faulted reality\n"
      "and delivery is measured there. --solver-budget-ms N (N >= 0) bounds\n"
      "the solve wall-clock (EEDCB degrades to BIP, then GREED); it applies\n"
      "to --algorithm EEDCB or FR-EEDCB only and not with the governance\n"
      "flags below. --fault-log dumps the injected events for audit/replay.\n"
      "--threads N fills the auxiliary graph's discrete cost sets on N\n"
      "workers (the Steiner search is serial; Monte-Carlo trials always use\n"
      "the shared process pool); every schedule stays byte-identical to the\n"
      "serial solve.\n"
      "--request-budget-ms, --max-inflight, --stall-ms and --shed-policy\n"
      "route the EEDCB solves through the governed batch: each request gets\n"
      "its own deadline + cancel token, requests past the admission bound\n"
      "are shed, a watchdog force-cancels a solve that stops polling its\n"
      "budget for the stall window, and exhausted budgets either degrade to\n"
      "a GREED fallback schedule (shed-policy degrade, the default) or\n"
      "return a structured error (shed-policy error). In sweep output a\n"
      "trailing * marks a degraded EEDCB cell, 'shed'/'!' a shed or failed\n"
      "request.\n";
  return 2;
}

int cmd_generate(const Args& args) {
  const std::string kind = args.get("kind", "haggle");
  const std::string out = args.get("out", "");
  if (out.empty()) return usage();
  if (args.has("metrics-out") || args.has("trace")) enable_observability();

  trace::ContactTrace result = [&] {
    if (kind == "haggle") {
      trace::HaggleLikeConfig cfg;
      cfg.nodes = static_cast<NodeId>(args.get_num("nodes", cfg.nodes));
      cfg.horizon = args.get_num("horizon", cfg.horizon);
      cfg.activation_ramp_end = args.get_num(
          "ramp", std::min(cfg.activation_ramp_end, 0.45 * cfg.horizon));
      cfg.pair_probability =
          args.get_num("pair-probability", cfg.pair_probability);
      cfg.seed = static_cast<std::uint64_t>(args.get_num("seed", 1));
      return trace::generate_haggle_like(cfg);
    }
    if (kind == "waypoint") {
      trace::RandomWaypointConfig cfg;
      cfg.nodes = static_cast<NodeId>(args.get_num("nodes", cfg.nodes));
      cfg.horizon = args.get_num("horizon", cfg.horizon);
      cfg.seed = static_cast<std::uint64_t>(args.get_num("seed", 1));
      return trace::generate_random_waypoint(cfg);
    }
    if (kind == "dutycycle") {
      trace::DutyCycleConfig cfg;
      cfg.nodes = static_cast<NodeId>(args.get_num("nodes", cfg.nodes));
      cfg.horizon = args.get_num("horizon", cfg.horizon);
      cfg.seed = static_cast<std::uint64_t>(args.get_num("seed", 1));
      return trace::generate_duty_cycle(cfg);
    }
    if (kind == "snapshots") {
      trace::SnapshotConfig cfg;
      cfg.nodes = static_cast<NodeId>(args.get_num("nodes", cfg.nodes));
      cfg.horizon = args.get_num("horizon", cfg.horizon);
      cfg.seed = static_cast<std::uint64_t>(args.get_num("seed", 1));
      return trace::generate_snapshots(cfg);
    }
    throw std::invalid_argument("unknown trace kind: " + kind);
  }();

  trace::write_trace_file(out, result);
  std::cout << "wrote " << result.contact_count() << " contacts over "
            << result.node_count() << " nodes to " << out << "\n";
  emit_observability(args);
  return 0;
}

/// Load a trace through the structured parser, or exit 2 (bad input, like a
/// usage error — distinct from internal failures, which exit 1) with the
/// parse error and its input line on stderr.
trace::ContactTrace load_trace(const std::string& path) {
  auto parsed = trace::parse_trace_file(path);
  if (!parsed.ok()) {
    std::cerr << "error: " << path << ": " << parsed.error().to_string()
              << "\n";
    std::exit(2);
  }
  return std::move(parsed).value();
}

int cmd_info(const Args& args) {
  if (args.positional().size() < 3) return usage();
  const auto trace = load_trace(args.positional()[2]);
  std::cout << "nodes:    " << trace.node_count() << "\n"
            << "horizon:  " << trace.horizon() << " s\n"
            << "contacts: " << trace.contact_count() << "\n"
            << "pairs:    " << trace.pair_count() << "\n";
  support::Table table({"time", "avg_degree"});
  for (int i = 0; i <= 10; ++i) {
    const Time t = trace.horizon() * i / 10.0;
    table.add_row({support::Table::fmt(t, 0),
                   support::Table::fmt(trace.average_degree(t), 2)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_stats(const Args& args) {
  if (args.positional().size() < 3) return usage();
  const auto trace = load_trace(args.positional()[2]);
  const trace::TraceSummary s = trace::summarize(trace);
  std::cout << "nodes:                    " << trace.node_count() << "\n"
            << "horizon:                  " << trace.horizon() << " s\n"
            << "contacts:                 " << s.contacts << "\n"
            << "pairs ever meeting:       " << s.pairs << "\n"
            << "mean contact duration:    " << s.mean_contact_duration
            << " s\n"
            << "mean inter-contact gap:   " << s.mean_inter_contact << " s\n"
            << "inter-contact tail (Hill):" << (s.inter_contact_tail_exponent
                                                    ? std::to_string(
                                                          s.inter_contact_tail_exponent)
                                                    : std::string(" n/a"))
            << "\n"
            << "mean / max avg degree:    " << s.mean_degree << " / "
            << s.max_degree << "\n";
  return 0;
}

int cmd_sweep(const Args& args) {
  if (args.positional().size() < 3) return usage();
  arm_tracing(args);
  const auto trace = load_trace(args.positional()[2]);
  const auto source = static_cast<NodeId>(args.get_num("source", 0));
  const Time from = parse_deadline(args, "from", 2000, trace);
  const Time to = parse_deadline(args, "to", 6000, trace);
  const Time step = args.get_num("step", 500);
  if (!(step > 0))
    throw UsageError("--step expects a positive time, got " +
                     args.get("step", "?"));
  const auto seed = static_cast<std::uint64_t>(args.get_num("seed", 1));

  sim::Workbench::Options bench_options;
  bench_options.threads = parse_threads(args);
  const sim::Workbench bench(trace, sim::paper_radio(), bench_options);

  // Under governance flags the EEDCB column runs as one governed batch
  // (per-deadline requests, isolated budgets); "!" marks a failed request,
  // "shed" an admission shed, a trailing "*" a degraded (fallback) cell.
  const bool governed = wants_governance(args);
  std::vector<std::string> eedcb_col;
  std::vector<core::SolveRequest> requests;
  if (governed) {
    for (Time deadline = from; deadline <= to + 1e-9; deadline += step) {
      core::SolveRequest request;
      request.source = source;
      request.deadline = deadline;
      requests.push_back(request);
    }
    const auto solved =
        bench.run_many_eedcb_governed(requests, parse_governance(args));
    for (std::size_t i = 0; i < solved.size(); ++i) {
      const fault::GovernedSolve& g = solved[i];
      if (!g.outcome.ok()) {
        eedcb_col.push_back(g.shed ? "shed" : "!");
        continue;
      }
      const core::SchedulerResult& r = g.outcome.value();
      std::string cell =
          r.covered_all
              ? support::Table::fmt(
                    core::normalized_energy(
                        bench.step_instance(source, requests[i].deadline),
                        r.schedule),
                    1)
              : "-";
      if (g.degraded() || g.shed) cell += "*";
      eedcb_col.push_back(std::move(cell));
    }
  }

  support::Table table({"deadline_s", "EEDCB", "GREED", "RAND", "FR-EEDCB",
                        "FR-GREED", "FR-RAND"});
  std::size_t row_index = 0;
  for (Time deadline = from; deadline <= to + 1e-9; deadline += step) {
    std::vector<std::string> row{support::Table::fmt(deadline, 0)};
    for (sim::Algorithm a : sim::kAllAlgorithms) {
      if (governed && a == sim::Algorithm::kEedcb) {
        row.push_back(eedcb_col[row_index]);
        continue;
      }
      const auto outcome = bench.run(a, source, deadline, seed);
      row.push_back(outcome.covered_all && outcome.allocation_feasible
                        ? support::Table::fmt(outcome.normalized_energy, 1)
                        : "-");
    }
    table.add_row(std::move(row));
    ++row_index;
  }
  table.print(std::cout);
  emit_observability(args);
  return 0;
}

std::optional<sim::Algorithm> parse_algorithm(const std::string& name) {
  for (sim::Algorithm a : sim::kAllAlgorithms)
    if (name == sim::algorithm_name(a)) return a;
  return std::nullopt;
}

int cmd_run(const Args& args) {
  if (args.positional().size() < 3) return usage();
  const auto trace = load_trace(args.positional()[2]);

  const std::string algo_name = args.get("algorithm", "EEDCB");
  const auto algorithm = parse_algorithm(algo_name);
  if (!algorithm) {
    std::cerr << "unknown algorithm: " << algo_name << "\n";
    return usage();
  }

  const auto source = static_cast<NodeId>(args.get_num("source", 0));
  const Time deadline = parse_deadline(args, "deadline", 2000, trace);
  const auto seed = static_cast<std::uint64_t>(args.get_num("seed", 1));
  const auto trials = static_cast<std::size_t>(args.get_num("trials", 2000));

  std::optional<fault::FaultPlan> plan;
  if (args.has("faults")) {
    auto parsed = fault::FaultPlan::parse(args.get("faults", ""));
    if (!parsed.ok()) {
      std::cerr << "bad --faults plan: " << parsed.error().to_string() << "\n";
      return 2;
    }
    plan = parsed.value();
  }

  sim::Workbench::Options bench_options;
  parse_steiner(args, bench_options);
  bench_options.threads = parse_threads(args);
  const bool governed = wants_governance(args);
  if (governed && *algorithm != sim::Algorithm::kEedcb)
    throw UsageError(
        "governance flags (--request-budget-ms/--max-inflight/--stall-ms/"
        "--shed-policy) apply to --algorithm EEDCB only");
  // --solver-budget-ms runs the fallback ladder, whose lower rungs the
  // other algorithms already are; the governed batch has its own
  // per-request budget.
  const bool laddered = args.has("solver-budget-ms");
  const double budget_ms = args.get_num("solver-budget-ms", 0);
  if (laddered) {
    if (!(budget_ms >= 0))
      throw UsageError("--solver-budget-ms expects a non-negative number, got " +
                       args.get("solver-budget-ms", "?"));
    if (*algorithm != sim::Algorithm::kEedcb &&
        *algorithm != sim::Algorithm::kFrEedcb)
      throw UsageError(
          "--solver-budget-ms applies to --algorithm EEDCB or FR-EEDCB only");
    if (governed)
      throw UsageError(
          "--solver-budget-ms does not combine with the governance flags; "
          "use --request-budget-ms");
  }

  if (args.has("metrics-out") || args.has("trace")) enable_observability();
  arm_tracing(args);
  const sim::Workbench bench(trace, sim::paper_radio(), bench_options);

  // Solve — through the governed batch when governance flags are present,
  // under the fallback ladder when a solver budget was given, plainly
  // otherwise.
  sim::Workbench::RunOutcome outcome;
  std::string rung_note;
  std::vector<support::Error> descents;
  if (governed) {
    std::vector<core::SolveRequest> requests(1);
    requests[0].source = source;
    requests[0].deadline = deadline;
    const auto solved =
        bench.run_many_eedcb_governed(requests, parse_governance(args));
    const fault::GovernedSolve& g = solved[0];
    rung_note = fault::rung_name(g.rung);
    if (g.shed) rung_note += " (admission shed)";
    descents = g.descents;
    if (!g.outcome.ok()) {
      std::cout << algo_name << " from node " << source << ", T=" << deadline
                << " s\n"
                << "request failed:     " << g.outcome.error().to_string()
                << "\n"
                << "solver rung:        " << rung_note << "\n";
      for (const auto& d : descents)
        std::cout << "  degraded:         " << d.to_string() << "\n";
      emit_observability(args);
      return 1;
    }
    const core::SchedulerResult& r = g.outcome.value();
    outcome.schedule = r.schedule;
    outcome.covered_all = r.covered_all;
    outcome.stats = r.stats;
    outcome.normalized_energy = core::normalized_energy(
        bench.step_instance(source, deadline), outcome.schedule);
  } else if (laddered) {
    fault::RobustSolveOptions robust;
    robust.eedcb = bench.eedcb_options();
    robust.budget = support::Budget::after_ms(budget_ms);
    if (*algorithm == sim::Algorithm::kFrEedcb) {
      const auto instance = bench.fading_instance(source, deadline);
      core::AllocationOptions alloc;
      alloc.max_retries = 2;
      alloc.retry_seed = seed;
      const auto fr =
          fault::robust_solve_fr(instance, bench.dts(), robust, alloc);
      outcome.schedule = fr.schedule();
      outcome.covered_all = fr.backbone.result.covered_all;
      outcome.allocation_feasible = fr.allocation.feasible;
      outcome.stats = fr.backbone.result.stats;
      outcome.normalized_energy =
          core::normalized_energy(instance, outcome.schedule);
      rung_note = fault::rung_name(fr.backbone.rung);
      descents = fr.backbone.descents;
    } else {
      const auto instance = bench.step_instance(source, deadline);
      const auto rs = fault::robust_solve(instance, bench.dts(), robust);
      outcome.schedule = rs.result.schedule;
      outcome.covered_all = rs.result.covered_all;
      outcome.stats = rs.result.stats;
      outcome.normalized_energy =
          core::normalized_energy(instance, outcome.schedule);
      rung_note = fault::rung_name(rs.rung);
      descents = rs.descents;
    }
  } else {
    outcome = bench.run(*algorithm, source, deadline, seed);
  }

  std::cout << algo_name << " from node " << source << ", T=" << deadline
            << " s\n"
            << outcome.schedule << "\n"
            << "covered all nodes:  " << (outcome.covered_all ? "yes" : "no")
            << "\n"
            << "normalized energy:  " << outcome.normalized_energy << "\n";
  if (!rung_note.empty()) {
    std::cout << "solver rung:        " << rung_note << "\n";
    for (const auto& d : descents)
      std::cout << "  degraded:         " << d.to_string() << "\n";
  }
  if (outcome.stats.aux_vertices > 0) {
    std::cout << "pipeline:           " << outcome.stats.dts_points
              << (outcome.stats.dts_truncated
                      ? " DTS points (truncated at the per-node cap), "
                      : " DTS points, ")
              << outcome.stats.aux_vertices
              << " aux vertices, " << outcome.stats.aux_arcs << " aux arcs\n"
              << "phase times:        aux " << outcome.stats.aux_build_ms
              << " ms, steiner " << outcome.stats.steiner_ms << " ms, prune "
              << outcome.stats.prune_ms << " ms\n";
  }

  const auto& instance = sim::fading_resistant(*algorithm)
                             ? bench.fading_instance(source, deadline)
                             : bench.step_instance(source, deadline);
  const auto report = core::check_feasibility(instance, outcome.schedule);
  std::cout << "feasible:           " << (report.feasible ? "yes" : "no");
  if (!report.feasible) std::cout << " (" << report.reason << ")";
  std::cout << "\n";

  if (plan && plan->any()) {
    // Inject the plan, repair the schedule against the faulted reality, and
    // measure delivery there (with forced tx failures when configured).
    const fault::FaultedTrace faulted = fault::apply_plan(trace, *plan);
    std::cout << "faults injected:    " << faulted.log.events.size()
              << " event(s)\n";
    const std::string log_path = args.get("fault-log", "");
    if (!log_path.empty()) {
      std::ofstream log_out(log_path);
      log_out << faulted.log.serialize();
      if (!log_out) {
        std::cerr << "error: cannot write fault log to " << log_path << "\n";
        return 1;
      }
      std::cout << "fault log saved to: " << log_path << "\n";
    }

    const sim::Workbench faulted_bench(faulted.trace, sim::paper_radio(),
                                       bench_options);
    const bool fading = sim::fading_resistant(*algorithm);
    const auto real_instance =
        fading ? faulted_bench.fading_instance(source, deadline)
               : faulted_bench.step_instance(source, deadline);
    const auto repair =
        fault::repair_schedule(instance, real_instance, faulted_bench.dts(),
                               outcome.schedule, {.seed = seed});
    std::cout << "fault impact:       " << repair.uncovered_before
              << " node(s) uncovered without repair\n";
    if (repair.diverged()) {
      std::cout << "repair:             detected at t=" << repair.detect_time
                << " s, patched " << repair.patch.size()
                << " transmission(s), " << repair.uncovered_after
                << " node(s) still uncovered\n";
    }

    sim::McOptions mc;
    mc.trials = trials;
    mc.seed = seed;
    if (plan->tx_failure > 0)
      mc.tx_faults = fault::TxFaultModel(plan->seed, plan->tx_failure);
    const auto delivery =
        faulted_bench.delivery_under_fading(source, repair.repaired, mc);
    std::cout << "faulted delivery:   " << delivery.mean_delivery_ratio * 100
              << "% (over " << delivery.trials
              << " trials, repaired schedule)\n";
  } else {
    const auto delivery = bench.delivery_under_fading(
        source, outcome.schedule, {.trials = trials, .seed = seed});
    std::cout << "fading delivery:    " << delivery.mean_delivery_ratio * 100
              << "% (over " << delivery.trials << " trials)\n";
  }

  const std::string save_path = args.get("save-schedule", "");
  if (!save_path.empty()) {
    core::write_schedule_file(save_path, outcome.schedule);
    std::cout << "schedule saved to:  " << save_path << "\n";
  }
  emit_observability(args);
  return 0;
}

int cmd_evaluate(const Args& args) {
  if (args.positional().size() < 4) return usage();
  const auto trace = load_trace(args.positional()[2]);
  const core::Schedule schedule =
      core::read_schedule_file(args.positional()[3]);

  const auto source = static_cast<NodeId>(args.get_num("source", 0));
  const Time deadline = parse_deadline(args, "deadline", 2000, trace);
  const auto trials = static_cast<std::size_t>(args.get_num("trials", 2000));

  const sim::Workbench bench(trace, sim::paper_radio());
  const auto step_report =
      core::check_feasibility(bench.step_instance(source, deadline), schedule);
  const auto fading_report = core::check_feasibility(
      bench.fading_instance(source, deadline), schedule);
  std::cout << "schedule:           " << schedule.size() << " transmissions, "
            << "normalized energy "
            << core::normalized_energy(bench.step_instance(source, deadline),
                                       schedule)
            << "\n"
            << "feasible (step):    "
            << (step_report.feasible ? "yes" : step_report.reason) << "\n"
            << "feasible (fading):  "
            << (fading_report.feasible ? "yes" : fading_report.reason) << "\n";

  sim::McOptions mc{.trials = trials,
                    .seed = static_cast<std::uint64_t>(args.get_num("seed", 1))};
  mc.presence_reliability = args.get_num("reliability", 1.0);
  mc.model_interference = args.get_num("interference", 0) != 0;
  const auto delivery =
      sim::simulate_delivery(bench.fading(), source, schedule, mc);
  std::cout << "fading delivery:    " << delivery.mean_delivery_ratio * 100
            << "% (over " << delivery.trials << " trials"
            << (mc.model_interference ? ", interference on" : "")
            << (mc.presence_reliability < 1.0 ? ", unreliable edges" : "")
            << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc >= 2 ? argv[1] : "";
  try {
    const Args args(argc, argv, spec_for(cmd));
    if (args.positional().size() < 2) return usage();
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "evaluate") return cmd_evaluate(args);
    std::cerr << "unknown command: " << cmd << "\n";
    return usage();
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
