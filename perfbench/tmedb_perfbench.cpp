// End-to-end TMEDB solve benchmark: one closed-loop client drives the
// library in-process, checks every schedule it gets back, and prints one
// JSON result line. README.md in this directory documents the workloads,
// the metrics and what each layer metric is expected to move.
//
//   tmedb_perfbench --root DIR --workload NAME --seed N --seconds S
//                   --trace 0|1
//
// --trace 0 measures the library entry points with nothing but a clock
// around each op and prints the end-to-end metrics. --trace 1 replays each
// op twice: once through the same entry point (the reference schedule and
// the untraced time) and once composed layer by layer from public calls,
// each wrapped in a span kept here, and prints the per-layer metrics. The
// layered composition must reproduce the reference schedule byte for byte.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/aux_graph.hpp"
#include "core/ed_weight_cache.hpp"
#include "core/prune.hpp"
#include "core/schedule.hpp"
#include "core/schedule_io.hpp"
#include "core/solve_many.hpp"
#include "core/tveg.hpp"
#include "fault/govern.hpp"
#include "graph/steiner.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"
#include "support/thread_pool.hpp"
#include "tools/certify/certify.hpp"
#include "trace/generators.hpp"
#include "trace/io.hpp"

namespace {

using namespace tveg;
using Clock = std::chrono::steady_clock;

/// Setups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Hard stop for the measured loop on a very slow host, even mid-pass, so a
/// run ends well inside 180 s.
constexpr double kMaxMeasureSeconds = 120.0;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The benchmark's own seed stream, so its inputs do not depend on the
/// library's RNG helpers.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string schedule_bytes(const core::Schedule& s) {
  std::ostringstream out;
  core::write_schedule(out, s);
  return out.str();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Percentile with linear interpolation between order statistics.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// -- always-on obs counters, read as deltas around each op ------------------

struct Counters {
  double dts_points = 0;
  double dts_closure_steps = 0;
  double aux_builds = 0;
  double steiner_runs = 0;
  double steiner_expanded = 0;
  double steiner_relaxations = 0;

  static Counters read() {
    auto& r = obs::MetricsRegistry::global();
    auto get = [&](const char* key) {
      return static_cast<double>(r.counter(key).value());
    };
    return {get(obs::keys::kDtsPoints),
            get(obs::keys::kDtsClosureSteps),
            get(obs::keys::kAuxBuilds),
            get(obs::keys::kSteinerDijkstraRuns),
            get(obs::keys::kSteinerNodesExpanded),
            get(obs::keys::kSteinerRelaxations)};
  }

  Counters operator-(const Counters& o) const {
    return {dts_points - o.dts_points,
            dts_closure_steps - o.dts_closure_steps,
            aux_builds - o.aux_builds,
            steiner_runs - o.steiner_runs,
            steiner_expanded - o.steiner_expanded,
            steiner_relaxations - o.steiner_relaxations};
  }
  Counters& operator+=(const Counters& o) {
    dts_points += o.dts_points;
    dts_closure_steps += o.dts_closure_steps;
    aux_builds += o.aux_builds;
    steiner_runs += o.steiner_runs;
    steiner_expanded += o.steiner_expanded;
    steiner_relaxations += o.steiner_relaxations;
    return *this;
  }
};

// -- layer spans --------------------------------------------------------------

enum Layer {
  kTvegBuild,
  kDtsBuild,
  kAuxBuild,
  kSteinerInit,
  kSteinerSolve,
  kExtract,
  kPrune,
  kLayerCount,
};

/// Per-layer wall time of one op, accumulated by Span, plus the sizes and
/// cache traffic read from the objects the layers built.
struct Layers {
  double ms[kLayerCount] = {};
  double aux_vertices = 0;
  double aux_arcs = 0;
  double cache_hits = 0;
  double cache_misses = 0;

  double total_ms() const {
    double sum = 0;
    for (double x : ms) sum += x;
    return sum;
  }
  void add(const Layers& o) {
    for (int l = 0; l < kLayerCount; ++l) ms[l] += o.ms[l];
    aux_vertices += o.aux_vertices;
    aux_arcs += o.aux_arcs;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
  }
  void count_aux(const core::AuxGraph& aux) {
    aux_vertices += static_cast<double>(aux.vertex_count());
    aux_arcs += static_cast<double>(aux.arc_count());
  }
  /// Adds the cache traffic between two snapshots of one cache.
  void count_cache(const core::EdWeightCache::Stats& before,
                   const core::EdWeightCache::Stats& after) {
    cache_hits += static_cast<double>(after.hits - before.hits);
    cache_misses += static_cast<double>(after.misses - before.misses);
  }
};

class Span {
 public:
  Span(Layers& layers, Layer layer)
      : layers_(layers), layer_(layer), start_(Clock::now()) {}
  ~Span() { layers_.ms[layer_] += ms_since(start_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layers& layers_;
  Layer layer_;
  Clock::time_point start_;
};

// -- one solve's output and the correctness gate -----------------------------

/// What one solve inside an op produced.
struct Output {
  std::string instance;  ///< "<trace>/<source>/<deadline>"
  const trace::ContactTrace* trace = nullptr;
  NodeId source = 0;
  Time deadline = 0;
  core::Schedule schedule;
  bool covered = false;
  bool dts_truncated = false;
  double energy = 0;
  std::string error;  ///< non-empty when the solve returned an error
};

std::string instance_name(std::size_t trace, NodeId source, Time deadline) {
  std::ostringstream out;
  out << trace << '/' << source << '/' << deadline;
  return out.str();
}

/// Certifies each distinct instance's schedule once with the independent
/// checker, then requires every repeat to be byte-identical to it.
class Gate {
 public:
  /// Empty when `out` passes; otherwise the reason it fails.
  std::string check(const Output& out) {
    if (!out.error.empty()) return "solve error: " + out.error;
    if (out.dts_truncated) return "DTS truncated";
    if (!out.covered) return "schedule does not cover every node";
    const std::string bytes = schedule_bytes(out.schedule);
    const auto it = certified_.find(out.instance);
    if (it != certified_.end())
      return it->second.bytes == bytes ? std::string()
                                       : "schedule differs from the certified one";
    const channel::RadioParams radio = sim::paper_radio();
    certify::Options opt;
    opt.source = out.source;
    opt.deadline = out.deadline;
    opt.epsilon = radio.epsilon;
    opt.tau = 0;  // every workload runs at τ = 0
    opt.model = channel::ChannelModel::kStep;
    opt.noise_density = radio.noise_density;
    opt.decoding_threshold_db = radio.decoding_threshold_db;
    opt.path_loss_exponent = radio.path_loss_exponent;
    opt.w_min = radio.w_min;
    opt.w_max = radio.w_max;
    std::vector<certify::Transmission> txs;
    for (const core::Transmission& tx : out.schedule.transmissions())
      txs.push_back({tx.relay, tx.time, tx.cost});
    const auto start = Clock::now();
    const certify::Verdict verdict = certify::verify(*out.trace, txs, opt);
    certify_ms_.push_back(ms_since(start));
    if (!verdict.feasible) return "certification failed: " + verdict.json();
    certified_.emplace(out.instance, Entry{bytes, out.energy});
    return {};
  }

  double energy_mean() const {
    std::vector<double> e;
    for (const auto& [name, entry] : certified_) e.push_back(entry.energy);
    return mean(e);
  }
  double certify_ms_mean() const { return mean(certify_ms_); }
  std::size_t certified() const { return certified_.size(); }

 private:
  struct Entry {
    std::string bytes;
    double energy;
  };
  std::map<std::string, Entry> certified_;
  std::vector<double> certify_ms_;
};

// -- layered composition of the EEDCB pipeline --------------------------------

/// Replica of core::run_eedcb_on_aux made of public calls, one span each.
void layered_tail(const core::TmedbInstance& instance,
                  const core::AuxGraph& aux, graph::SteinerSolver& solver,
                  core::SteinerMethod method, support::ThreadPool* pool,
                  Layers& layers, Output& out) {
  solver.set_pool(pool);
  const graph::VertexId source = aux.source_vertex_for(instance.source);
  const std::vector<graph::VertexId> terminals = aux.terminals_for(instance);
  graph::SteinerResult tree;
  {
    const Span span(layers, kSteinerSolve);
    tree = method == core::SteinerMethod::kRecursiveGreedy
               ? solver.recursive_greedy(source, terminals, 2)
               : solver.shortest_path_heuristic(source, terminals);
  }
  out.covered = tree.feasible;
  {
    const Span span(layers, kExtract);
    out.schedule = aux.extract_schedule(tree);
  }
  if (out.covered) {
    const Span span(layers, kPrune);
    out.schedule = core::prune_schedule(instance, out.schedule);
  }
  out.energy = core::normalized_energy(instance, out.schedule);
}

/// Aux graph and Steiner solver for one deadline, each built under its span.
struct AuxAndSolver {
  AuxAndSolver(const core::TmedbInstance& instance, const DiscreteTimeSet& dts,
               support::ThreadPool* pool, Layers& layers) {
    {
      const Span span(layers, kAuxBuild);
      aux.emplace(instance, dts,
                  core::AuxGraph::Options{.power_expansion = true,
                                          .pool = pool});
    }
    layers.count_aux(*aux);
    const Span span(layers, kSteinerInit);
    solver.emplace(aux->digraph());
  }
  std::optional<core::AuxGraph> aux;
  std::optional<graph::SteinerSolver> solver;
};

// -- workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything the ops share. Called kSetupRepeats times; each call
  /// replaces the previous state.
  virtual void setup(std::uint64_t seed) = 0;
  /// Ops in one pass over the panel. A run measures whole passes, so every
  /// run times the same mix of instances.
  virtual std::size_t cycle() const = 0;
  /// Op i through the library entry point.
  virtual std::vector<Output> op(std::size_t i) = 0;
  /// Op i composed layer by layer from public calls, with spans. `pooled`
  /// selects the workload's pool; serial workloads ignore it.
  virtual std::vector<Output> layered_op(std::size_t i, bool pooled,
                                         Layers& layers) = 0;
  /// Setup-time layers, recorded once in a traced run by the workloads that
  /// build the TVEG and DTS in setup rather than in each op.
  virtual void traced_setup(Layers& /*layers*/, Counters& /*counters*/,
                            bool& /*truncated*/) {}
  /// True when each op builds its own TVEG and DTS.
  virtual bool builds_dts_per_op() const { return false; }
  virtual std::size_t workers() const { return 1; }
  virtual std::vector<std::string> digests() const = 0;
  /// Problems found in setup (an uncoverable instance, a truncated DTS).
  std::vector<std::string> setup_errors;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// True when every node can hold the packet by `deadline`, starting at the
/// source at t = 0 (foremost journeys, no energy model involved).
bool coverable(const TimeVaryingGraph& g, NodeId source, Time deadline) {
  const ArrivalInfo info = g.earliest_arrival(source, 0);
  return std::all_of(info.arrival.begin(), info.arrival.end(),
                     [&](Time t) { return t <= deadline; });
}

/// Deterministic shuffle driven by the benchmark's own seed stream.
template <class T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[splitmix64(state) % i]);
}

/// The shipped N=20 trace on a workbench whose TVEG, ED-weight cache and DTS
/// are built and warmed in setup; shared by steiner-n20 and sweep-n20-pool.
class ShippedTraceWorkload : public Workload {
 public:
  ShippedTraceWorkload(std::string root, std::size_t workers,
                       std::vector<Time> deadlines)
      : root_(std::move(root)), workers_(workers),
        deadlines_(std::move(deadlines)) {}

  void setup(std::uint64_t seed) override {
    const std::string path = root_ + "/data/haggle_like_n20.trace";
    digest_ = fnv1a_hex(read_file(path));
    wb_.reset();
    trace_ = std::make_unique<trace::ContactTrace>(
        trace::read_trace_file(path));
    wb_ = std::make_unique<sim::Workbench>(
        *trace_, sim::paper_radio(),
        sim::Workbench::Options{.threads = workers_ > 1 ? workers_ : 0});
    // Fill the ED-weight cache: the largest deadline's aux graph queries
    // every discrete cost set the ops will ask for.
    const Time t_max = *std::max_element(deadlines_.begin(), deadlines_.end());
    const core::AuxGraph warm(wb_->step_instance(0, t_max), wb_->dts());

    requests_.clear();
    setup_errors.clear();
    for (NodeId s : kSources)
      for (Time t : deadlines_) {
        requests_.push_back({.source = s, .deadline = t});
        if (!coverable(wb_->step().graph(), s, t))
          setup_errors.push_back("instance " + instance_name(0, s, t) +
                                 " is not coverable");
      }
    if (wb_->dts().truncated()) setup_errors.push_back("DTS truncated");
    shuffle(requests_, seed);
  }

  void traced_setup(Layers& layers, Counters& counters,
                    bool& truncated) override {
    const Counters before = Counters::read();
    std::optional<core::Tveg> tveg;
    {
      const Span span(layers, kTvegBuild);
      tveg.emplace(*trace_, sim::paper_radio(), core::Tveg::Options{});
    }
    std::optional<DiscreteTimeSet> dts;
    {
      const Span span(layers, kDtsBuild);
      dts.emplace(tveg->build_dts());
    }
    counters = Counters::read() - before;
    truncated = dts->truncated();
    for (NodeId v = 0; v < dts->node_count(); ++v)
      if (dts->points(v) != wb_->dts().points(v)) {
        setup_errors.push_back("layered DTS differs from the workbench DTS");
        break;
      }
  }

  std::size_t workers() const override { return workers_; }
  std::vector<std::string> digests() const override { return {digest_}; }

 protected:
  static constexpr NodeId kSources[] = {0, 3, 7, 11, 15, 19};

  Output output_for(const core::SolveRequest& r) const {
    Output out;
    out.instance = instance_name(0, r.source, r.deadline);
    out.trace = trace_.get();
    out.source = r.source;
    out.deadline = r.deadline;
    out.dts_truncated = wb_->dts().truncated();
    return out;
  }

  std::string root_;
  std::size_t workers_;
  std::vector<Time> deadlines_;
  std::string digest_;
  std::unique_ptr<trace::ContactTrace> trace_;
  std::unique_ptr<sim::Workbench> wb_;
  /// Every (source, deadline) of the panel, in seed-shuffled order.
  std::vector<core::SolveRequest> requests_;
};

/// steiner-n20: one serial recursive-greedy EEDCB solve per op, cycling
/// through 6 sources x 3 deadlines.
class SteinerN20 final : public ShippedTraceWorkload {
 public:
  explicit SteinerN20(std::string root)
      : ShippedTraceWorkload(std::move(root), 1, {6000, 10000, 14000}) {}

  std::size_t cycle() const override { return requests_.size(); }

  std::vector<Output> op(std::size_t i) override {
    const core::SolveRequest& r = requests_[i];
    Output out = output_for(r);
    const sim::Workbench::RunOutcome run =
        wb_->run(sim::Algorithm::kEedcb, r.source, r.deadline);
    out.schedule = run.schedule;
    out.covered = run.covered_all;
    out.energy = run.normalized_energy;
    return {out};
  }

  std::vector<Output> layered_op(std::size_t i, bool /*pooled*/,
                                 Layers& layers) override {
    const core::SolveRequest& r = requests_[i];
    const core::EdWeightCache::Stats cache_before = wb_->step().cache()->stats();
    Output out = output_for(r);
    const core::TmedbInstance instance = wb_->step_instance(r.source, r.deadline);
    AuxAndSolver built(instance, wb_->dts(), nullptr, layers);
    layered_tail(instance, *built.aux, *built.solver,
                 core::SteinerMethod::kRecursiveGreedy, nullptr, layers, out);
    layers.count_cache(cache_before, wb_->step().cache()->stats());
    return {out};
  }
};

/// sweep-n20-pool: one 12-request governed batch per op on a pooled
/// workbench.
class SweepN20Pool final : public ShippedTraceWorkload {
 public:
  SweepN20Pool(std::string root, std::size_t workers)
      : ShippedTraceWorkload(std::move(root), workers, {6000, 10000}) {}

  std::size_t cycle() const override { return 1; }

  std::vector<Output> op(std::size_t) override {
    const std::vector<fault::GovernedSolve> solved =
        wb_->run_many_eedcb_governed(requests_);
    std::vector<Output> outs;
    for (std::size_t k = 0; k < solved.size(); ++k) {
      Output out = output_for(requests_[k]);
      const fault::GovernedSolve& g = solved[k];
      if (!g.outcome.ok()) {
        out.error = g.outcome.error().message;
      } else if (g.degraded() || g.shed) {
        out.error = "request degraded or shed";
      } else {
        out.schedule = g.outcome.value().schedule;
        out.covered = g.outcome.value().covered_all;
        out.energy = core::normalized_energy(
            wb_->step_instance(out.source, out.deadline), out.schedule);
      }
      outs.push_back(std::move(out));
    }
    return outs;
  }

  /// The batch's grouping replayed from public calls: requests grouped by
  /// deadline in first-appearance order, one aux graph and solver per group.
  std::vector<Output> layered_op(std::size_t, bool pooled,
                                 Layers& layers) override {
    if (pooled && !pool_)
      pool_ = std::make_unique<support::ThreadPool>(workers_);
    support::ThreadPool* pool = pooled ? pool_.get() : nullptr;
    const core::EdWeightCache::Stats cache_before = wb_->step().cache()->stats();
    std::vector<Output> outs(requests_.size());
    std::vector<bool> done(requests_.size(), false);
    for (std::size_t first = 0; first < requests_.size(); ++first) {
      if (done[first]) continue;
      const Time deadline = requests_[first].deadline;
      std::optional<AuxAndSolver> built;
      for (std::size_t k = first; k < requests_.size(); ++k) {
        if (requests_[k].deadline != deadline) continue;
        done[k] = true;
        const core::TmedbInstance instance =
            wb_->step_instance(requests_[k].source, deadline);
        if (!built) built.emplace(instance, wb_->dts(), pool, layers);
        outs[k] = output_for(requests_[k]);
        layered_tail(instance, *built->aux, *built->solver,
                     core::SteinerMethod::kRecursiveGreedy, pool, layers,
                     outs[k]);
      }
    }
    layers.count_cache(cache_before, wb_->step().cache()->stats());
    return outs;
  }

 private:
  /// Pool for the layered replay; the workbench's own pool is private.
  std::unique_ptr<support::ThreadPool> pool_;
};

/// cold-n30: the one-shot `tmedb run` path on a fresh N=30 trace per op —
/// Workbench construction (both TVEG views, their caches, the DTS) plus one
/// shortest-path-heuristic solve from node 0 at T = 2000.
class ColdN30 final : public Workload {
 public:
  static constexpr std::size_t kPanel = 48;
  static constexpr NodeId kNodes = 30;
  static constexpr NodeId kSource = 0;
  static constexpr Time kDeadline = 2000;

  void setup(std::uint64_t seed) override {
    panel_.clear();
    digests_.clear();
    std::uint64_t state = seed;
    while (panel_.size() < kPanel) {
      trace::HaggleLikeConfig cfg;
      cfg.nodes = kNodes;
      cfg.horizon = 17000;
      cfg.pair_probability = 9.0 / 29.0;
      cfg.activation_ramp_end = 500;
      cfg.seed = splitmix64(state);
      trace::ContactTrace candidate = trace::generate_haggle_like(cfg);
      // The panel holds instances a broadcast can solve: a trace on which
      // some node cannot be reached by the deadline is drawn again.
      if (!coverable(candidate.to_graph(0), kSource, kDeadline)) continue;
      std::ostringstream text;
      trace::write_trace(text, candidate);
      digests_.push_back(fnv1a_hex(text.str()));
      panel_.push_back(std::move(candidate));
    }
  }

  std::size_t cycle() const override { return panel_.size(); }

  std::vector<Output> op(std::size_t i) override {
    Output out = output_for(i);
    const sim::Workbench wb(
        panel_[i], sim::paper_radio(),
        sim::Workbench::Options{
            .steiner_method = core::SteinerMethod::kShortestPath});
    out.dts_truncated = wb.dts().truncated();
    const sim::Workbench::RunOutcome run =
        wb.run(sim::Algorithm::kEedcb, kSource, kDeadline);
    out.schedule = run.schedule;
    out.covered = run.covered_all;
    out.energy = run.normalized_energy;
    return {out};
  }

  std::vector<Output> layered_op(std::size_t i, bool /*pooled*/,
                                 Layers& layers) override {
    Output out = output_for(i);
    const channel::RadioParams radio = sim::paper_radio();
    std::optional<core::Tveg> step;
    std::optional<core::Tveg> fading;
    {
      // The workbench builds both channel views and a cache for each.
      const Span span(layers, kTvegBuild);
      step.emplace(panel_[i], radio,
                   core::Tveg::Options{.model = channel::ChannelModel::kStep});
      fading.emplace(
          panel_[i], radio,
          core::Tveg::Options{.model = channel::ChannelModel::kRayleigh});
      step->attach_cache(std::make_shared<core::EdWeightCache>());
      fading->attach_cache(std::make_shared<core::EdWeightCache>());
    }
    std::optional<DiscreteTimeSet> dts;
    {
      const Span span(layers, kDtsBuild);
      dts.emplace(step->build_dts());
    }
    out.dts_truncated = dts->truncated();
    const core::TmedbInstance instance{&*step, kSource, kDeadline};
    AuxAndSolver built(instance, *dts, nullptr, layers);
    layered_tail(instance, *built.aux, *built.solver,
                 core::SteinerMethod::kShortestPath, nullptr, layers, out);
    layers.count_cache({}, step->cache()->stats());
    return {out};
  }

  bool builds_dts_per_op() const override { return true; }
  std::vector<std::string> digests() const override { return digests_; }

 private:
  Output output_for(std::size_t i) const {
    Output out;
    out.instance = instance_name(i, kSource, kDeadline);
    out.trace = &panel_[i];
    out.source = kSource;
    out.deadline = kDeadline;
    return out;
  }

  std::vector<trace::ContactTrace> panel_;
  std::vector<std::string> digests_;
};

// -- measurement loop and report ---------------------------------------------

struct Args {
  std::string root = ".";
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--root") {
      a.root = value;
    } else if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a, std::size_t workers) {
  if (a.workload == "steiner-n20") return std::make_unique<SteinerN20>(a.root);
  if (a.workload == "cold-n30") return std::make_unique<ColdN30>();
  if (a.workload == "sweep-n20-pool")
    return std::make_unique<SweepN20Pool>(a.root, workers);
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

class MetricsJson {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value))
      throw std::runtime_error("metric " + name + " is not finite");
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += json_string(name) + ": {\"value\": " + buf +
             ", \"unit\": " + json_string(unit) + "}";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Op bookkeeping shared by both modes.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t solves = 0;
  std::vector<std::string> failures;

  /// Gates every output of one op; the op fails if any output fails.
  void record(Gate& gate, const std::vector<Output>& outs) {
    ++attempted;
    bool ok = true;
    for (const Output& out : outs) {
      ++solves;
      const std::string why = gate.check(out);
      if (!why.empty()) {
        ok = false;
        note(out.instance + ": " + why);
      }
    }
    if (!ok) ++failed;
  }
  void record_throw(const std::exception& e) {
    ++attempted;
    ++failed;
    note(std::string("op threw: ") + e.what());
  }
  void note(std::string why) {
    if (failures.size() < 5) failures.push_back(std::move(why));
  }
};

bool same_schedules(const std::vector<Output>& a, const std::vector<Output>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k)
    if (a[k].instance != b[k].instance || a[k].covered != b[k].covered ||
        schedule_bytes(a[k].schedule) != schedule_bytes(b[k].schedule))
      return false;
  return true;
}

/// Sums over the ops of a traced run.
struct TracedTotals {
  double ops = 0;
  double untraced_ms = 0;
  double untraced_cpu_ms = 0;
  double aux_reuses = 0;
  double traced_ms = 0;
  double serial_ms = 0;
  double truncated = 0;
  std::size_t mismatches = 0;
  Layers layers;
  Counters counters;
};

/// One traced op: the library entry point (reference schedule, untraced
/// time), then the layered replay with spans, then — on a pooled workload —
/// the same replay without the pool. All three must agree byte for byte.
void traced_op(Workload& wl, std::size_t i, Gate& gate, Tally& tally,
               TracedTotals& totals) {
  const Counters c0 = Counters::read();
  const double cpu0 = process_cpu_ms();
  const auto t0 = Clock::now();
  const std::vector<Output> reference = wl.op(i);
  const double untraced_ms = ms_since(t0);
  const double untraced_cpu_ms = process_cpu_ms() - cpu0;
  const double aux_builds = (Counters::read() - c0).aux_builds;
  tally.record(gate, reference);

  Layers layers;
  const Counters c1 = Counters::read();
  const auto t1 = Clock::now();
  const std::vector<Output> layered = wl.layered_op(i, true, layers);
  const double traced_ms = ms_since(t1);
  const Counters counters = Counters::read() - c1;

  double serial_ms = traced_ms;
  bool same = same_schedules(reference, layered);
  if (wl.workers() > 1) {
    Layers serial_layers;
    const auto t2 = Clock::now();
    const std::vector<Output> serial = wl.layered_op(i, false, serial_layers);
    serial_ms = ms_since(t2);
    same = same && same_schedules(reference, serial);
  }
  if (!same)
    tally.note("op " + std::to_string(i) +
               ": layered composition differs from the library entry point");

  totals.ops += 1;
  totals.untraced_ms += untraced_ms;
  totals.untraced_cpu_ms += untraced_cpu_ms;
  totals.aux_reuses += static_cast<double>(reference.size()) - aux_builds;
  totals.traced_ms += traced_ms;
  totals.serial_ms += serial_ms;
  for (const Output& out : layered) totals.truncated += out.dts_truncated;
  totals.layers.add(layers);
  totals.counters += counters;
  if (!same) totals.mismatches += 1;
}

int run(const Args& args) {
  obs::set_enabled(false);
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers = std::min<std::size_t>(4, nproc);
  std::unique_ptr<Workload> wl = make_workload(args, workers);

  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto start = Clock::now();
    wl->setup(args.seed);
    setup_s.push_back(ms_since(start) / 1e3);
  }
  Layers setup_layers;
  Counters setup_counters;
  bool setup_truncated = false;
  if (args.trace)
    wl->traced_setup(setup_layers, setup_counters, setup_truncated);

  Gate gate;
  // One untimed op first, so the pool's threads, the allocator and the
  // page tables are warm when timing starts. Its output is checked too.
  try {
    for (const Output& out : wl->op(0)) {
      const std::string why = gate.check(out);
      if (!why.empty()) wl->setup_errors.push_back("warm-up: " + why);
    }
  } catch (const std::exception& e) {
    wl->setup_errors.push_back(std::string("warm-up threw: ") + e.what());
  }

  Tally tally;
  std::vector<double> op_ms;
  double op_cpu_ms = 0;
  TracedTotals totals;

  const auto measure_start = Clock::now();
  for (std::size_t done = 1;; ++done) {
    const std::size_t i = (done - 1) % wl->cycle();
    if (args.trace) {
      try {
        traced_op(*wl, i, gate, tally, totals);
      } catch (const std::exception& e) {
        tally.record_throw(e);
      }
    } else {
      // A failed op still counts in the latency samples.
      const double cpu = process_cpu_ms();
      const auto start = Clock::now();
      std::vector<Output> outs;
      std::optional<std::runtime_error> thrown;
      try {
        outs = wl->op(i);
      } catch (const std::exception& e) {
        thrown.emplace(e.what());
      }
      op_ms.push_back(ms_since(start));
      op_cpu_ms += process_cpu_ms() - cpu;
      if (thrown)
        tally.record_throw(*thrown);
      else
        tally.record(gate, outs);
    }
    const double elapsed_s = ms_since(measure_start) / 1e3;
    if (elapsed_s >= kMaxMeasureSeconds) break;
    if (done % wl->cycle() == 0 && elapsed_s >= args.seconds) break;
  }
  const double measured_s = ms_since(measure_start) / 1e3;

  MetricsJson metrics;
  if (!args.trace) {
    double total_ms = 0;
    for (double ms : op_ms) total_ms += ms;
    const double solves = static_cast<double>(tally.solves);
    metrics.add("latency_ms_p50", percentile(op_ms, 0.5), "ms");
    metrics.add("latency_ms_p90", percentile(op_ms, 0.9), "ms");
    metrics.add("solves_per_s", solves / (total_ms / 1e3), "1/s");
    metrics.add("cpu_ms_per_solve", op_cpu_ms / solves, "ms");
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MiB");
    metrics.add("energy_norm_mean", gate.energy_mean(), "N0.gamma_th");
    metrics.add("ok_frac",
                1.0 - static_cast<double>(tally.failed) /
                          static_cast<double>(tally.attempted),
                "fraction");
  } else {
    const TracedTotals& t = totals;
    auto per_op = [&](double total) { return total / t.ops; };
    // Workloads that build the TVEG and DTS in every op report those layers
    // per op; the others report the single build their setup makes.
    const bool per_op_dts = wl->builds_dts_per_op();
    const double dts_div = per_op_dts ? t.ops : 1.0;
    const Layers& dts_layers = per_op_dts ? t.layers : setup_layers;
    const Counters& dts_counters = per_op_dts ? t.counters : setup_counters;
    const double lookups = t.layers.cache_hits + t.layers.cache_misses;

    metrics.add("dts.build_ms", dts_layers.ms[kDtsBuild] / dts_div, "ms");
    metrics.add("dts.points", dts_counters.dts_points / dts_div, "count");
    metrics.add("dts.closure_steps", dts_counters.dts_closure_steps / dts_div,
                "count");
    metrics.add("dts.truncations",
                per_op_dts ? t.truncated : (setup_truncated ? 1.0 : 0.0),
                "count");
    metrics.add("tveg.build_ms", dts_layers.ms[kTvegBuild] / dts_div, "ms");
    metrics.add("cache.hit_ratio",
                lookups > 0 ? t.layers.cache_hits / lookups : 0.0, "ratio");
    metrics.add("cache.lookups", per_op(lookups), "count");
    metrics.add("aux.build_ms", per_op(t.layers.ms[kAuxBuild]), "ms");
    metrics.add("aux.vertices", per_op(t.layers.aux_vertices), "count");
    metrics.add("aux.arcs", per_op(t.layers.aux_arcs), "count");
    metrics.add("steiner.init_ms", per_op(t.layers.ms[kSteinerInit]), "ms");
    metrics.add("steiner.solve_ms", per_op(t.layers.ms[kSteinerSolve]), "ms");
    metrics.add("steiner.dijkstra_runs", per_op(t.counters.steiner_runs),
                "count");
    metrics.add("steiner.nodes_expanded", per_op(t.counters.steiner_expanded),
                "count");
    metrics.add("steiner.relaxations", per_op(t.counters.steiner_relaxations),
                "count");
    metrics.add("schedule.extract_ms", per_op(t.layers.ms[kExtract]), "ms");
    metrics.add("prune.ms", per_op(t.layers.ms[kPrune]), "ms");
    metrics.add("unattributed_ms",
                per_op(t.traced_ms - t.layers.total_ms()), "ms");
    metrics.add("op.untraced_ms", per_op(t.untraced_ms), "ms");
    metrics.add("op.traced_ms", per_op(t.traced_ms), "ms");
    metrics.add("sweep.serial_ms", per_op(t.serial_ms), "ms");
    metrics.add("pool.speedup", t.serial_ms / t.untraced_ms, "x");
    metrics.add("pool.cpu_util",
                t.untraced_cpu_ms /
                    (t.untraced_ms * static_cast<double>(wl->workers())),
                "ratio");
    metrics.add("batch.aux_reuses", per_op(t.aux_reuses), "count");
    metrics.add("certify.ms", gate.certify_ms_mean(), "ms");
    metrics.add("trace.overhead_pct",
                100.0 * (t.traced_ms - t.untraced_ms) / t.untraced_ms, "%");
  }

  for (const std::string& e : wl->setup_errors)
    std::cerr << "perfbench: setup: " << e << '\n';
  for (const std::string& e : tally.failures)
    std::cerr << "perfbench: " << e << '\n';

#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::cout << "{\"host\": {\"nproc\": " << nproc
            << ", \"pool_workers\": " << wl->workers()
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << json_string(compiler)
            << ", \"workload\": " << json_string(args.workload)
            << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
            << ", \"ops\": " << tally.attempted
            << ", \"solves\": " << tally.solves
            << ", \"measured_s\": " << measured_s
            << ", \"certified_instances\": " << gate.certified()
            << ", \"trace_digests\": [";
  const std::vector<std::string> digests = wl->digests();
  for (std::size_t k = 0; k < digests.size(); ++k)
    std::cout << (k ? ", " : "") << json_string(digests[k]);
  std::cout << "]}}\n";

  const bool correct = tally.failed == 0 && totals.mismatches == 0 &&
                       wl->setup_errors.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << metrics.str() << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
