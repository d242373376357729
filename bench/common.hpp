// Shared helpers for the figure-reproduction benches. Every bench binary
// prints the same rows/series the paper's corresponding figure reports,
// as an aligned table followed by a CSV block.
#pragma once

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "trace/generators.hpp"

namespace tveg::bench {

/// The paper's trace substitute: Haggle-like, ≈17000 s (Sec. VII). With
/// `ramped` the pair-activation ramp reproduces Fig. 7's degree warm-up;
/// without it the trace is stationary from t = 0, which the delay-sweep
/// figures need (their broadcasts start at t = 0).
inline trace::ContactTrace paper_trace(NodeId nodes, bool ramped,
                                       std::uint64_t seed = 1) {
  trace::HaggleLikeConfig cfg;
  cfg.nodes = nodes;
  cfg.horizon = 17000;
  // Hold the expected social degree constant across N (a constant-density
  // population, as when sub-sampling one real trace): otherwise density —
  // and with it the broadcast advantage — grows with N and inverts the
  // paper's "more nodes cost more energy" trend.
  cfg.pair_probability =
      std::min(1.0, 9.0 / static_cast<double>(nodes - 1));
  cfg.activation_ramp_end = ramped ? 8000 : 500;
  cfg.seed = seed;
  return trace::generate_haggle_like(cfg);
}

/// Sources a figure point is averaged over (the paper picks a random
/// source; we average a fixed panel for stable series).
inline std::vector<NodeId> source_panel(NodeId nodes, std::size_t count = 6) {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(static_cast<NodeId>((i * 7 + 1) % nodes));
  return out;
}

/// One figure point: algorithm × (trace view) × deadline, averaged over the
/// source panel. Returns (mean normalized energy, coverage fraction).
struct PointStats {
  double mean_energy = 0;
  double covered_fraction = 0;
  std::size_t runs = 0;
};

inline PointStats run_point(const sim::Workbench& bench, sim::Algorithm algo,
                            const std::vector<NodeId>& sources,
                            Time deadline) {
  support::RunningStat energy;
  std::size_t covered = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto outcome =
        bench.run(algo, sources[i], deadline, /*seed=*/i + 1);
    if (outcome.covered_all && outcome.allocation_feasible) {
      energy.add(outcome.normalized_energy);
      ++covered;
    }
  }
  PointStats stats;
  stats.runs = sources.size();
  stats.covered_fraction =
      static_cast<double>(covered) / static_cast<double>(sources.size());
  stats.mean_energy = energy.empty() ? 0.0 : energy.mean();
  return stats;
}

/// Sweep of one algorithm over deadlines, averaged over the subset of
/// sources that is feasible at EVERY deadline — otherwise the set of
/// averaged sources shifts between points and the series picks up jumps
/// unrelated to the delay constraint.
inline std::vector<double> consistent_sweep(const sim::Workbench& bench,
                                            sim::Algorithm algo,
                                            const std::vector<NodeId>& sources,
                                            const std::vector<Time>& deadlines) {
  const std::size_t s = sources.size(), d = deadlines.size();
  std::vector<std::vector<double>> energy(d, std::vector<double>(s, -1));
  for (std::size_t j = 0; j < d; ++j)
    for (std::size_t i = 0; i < s; ++i) {
      const auto outcome =
          bench.run(algo, sources[i], deadlines[j], /*seed=*/i + 1);
      if (outcome.covered_all && outcome.allocation_feasible)
        energy[j][i] = outcome.normalized_energy;
    }
  std::vector<char> keep(s, 1);
  for (std::size_t i = 0; i < s; ++i)
    for (std::size_t j = 0; j < d; ++j)
      if (energy[j][i] < 0) keep[i] = 0;

  std::vector<double> means(d, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    support::RunningStat stat;
    for (std::size_t i = 0; i < s; ++i)
      if (keep[i]) stat.add(energy[j][i]);
    means[j] = stat.empty() ? 0.0 : stat.mean();
  }
  return means;
}

/// Prints a table twice: aligned text and CSV (machine-readable).
inline void emit(const std::string& title, const support::Table& table) {
  std::cout << "\n== " << title << " ==\n";
  table.print(std::cout);
  std::cout << "-- csv --\n";
  table.print_csv(std::cout);
}

/// Machine-readable bench report: records every emitted table plus freeform
/// config, and writes `BENCH_<name>.json` (schema tveg-bench-1) with the
/// obs metrics/phase snapshot attached. Construct one per bench binary,
/// route tables through `emit`, call `write_json()` at the end — after the
/// timed work, so snapshotting never perturbs the measurements.
class Report {
 public:
  explicit Report(std::string name) : name_(std::move(name)) {
    // Tracing on for every bench: the per-phase breakdown ("phases" in the
    // report) is what bench_gate uses to attribute a timing regression to
    // the phase that slowed down. obs::set_enabled is the one switch, so
    // every obs::Span also records into its thread's span ring (a full ring
    // overwrites its oldest records); the cost is two clock reads, a tree
    // accumulate and a ring push per span — identical in baseline and
    // current runs.
    obs::set_enabled(true);
  }

  /// Records a bench parameter shown under "config".
  void set_config(const std::string& key, const std::string& value) {
    config_.set(key, obs::Json(value));
  }
  void set_config(const std::string& key, double value) {
    config_.set(key, obs::Json(value));
  }

  /// Prints the table (text + CSV) and records it as a JSON series.
  void emit(const std::string& title, const support::Table& table) {
    bench::emit(title, table);
    obs::Json series = obs::Json::object();
    series.set("title", obs::Json(title));
    obs::Json columns = obs::Json::array();
    for (const auto& h : table.headers()) columns.push_back(obs::Json(h));
    series.set("columns", std::move(columns));
    obs::Json rows = obs::Json::array();
    for (const auto& row : table.data()) {
      obs::Json cells = obs::Json::array();
      for (const auto& cell : row) cells.push_back(obs::Json(cell));
      rows.push_back(std::move(cells));
    }
    series.set("rows", std::move(rows));
    series_.push_back(std::move(series));
  }

  /// Records one measured timing (a google-benchmark run or a manually
  /// timed section). These are what scripts/bench_gate.sh compares against
  /// the committed baselines, so names must be stable across runs.
  void add_timing(const std::string& name, double real_ms, double cpu_ms,
                  std::int64_t iterations) {
    obs::Json t = obs::Json::object();
    t.set("name", obs::Json(name));
    t.set("real_ms", obs::Json(real_ms));
    t.set("cpu_ms", obs::Json(cpu_ms));
    t.set("iterations", obs::Json(static_cast<double>(iterations)));
    timings_.push_back(std::move(t));
  }

  /// Writes BENCH_<name>.json in the working directory.
  void write_json() const {
    obs::Json doc = obs::Json::object();
    doc.set("schema", obs::Json("tveg-bench-1"));
    doc.set("bench", obs::Json(name_));
    doc.set("config", config_);
    obs::Json series = obs::Json::array();
    for (const auto& s : series_) series.push_back(s);
    doc.set("series", std::move(series));
    obs::Json timings = obs::Json::array();
    for (const auto& t : timings_) timings.push_back(t);
    doc.set("timings", std::move(timings));
    doc.set("obs", obs::snapshot());
    // Per-phase attribution (count, wall_ms, p50/p95/p99 duration): the
    // bench gate joins this against the committed baseline to name the
    // phase responsible when a top-level timing regresses.
    doc.set("phases", obs::phase_attribution());

    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    out << doc.dump(2) << "\n";
    if (!out) throw std::runtime_error("cannot write " + path);
    std::cout << "\nreport written to " << path << "\n";
  }

 private:
  std::string name_;
  obs::Json config_ = obs::Json::object();
  std::vector<obs::Json> series_;
  std::vector<obs::Json> timings_;
};

}  // namespace tveg::bench
