#include "tvg/dts.hpp"

#include <algorithm>
#include <deque>

#include "obs/flight_recorder.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/assert.hpp"

namespace tveg {

namespace {

/// Sorted insert with tolerance dedup; returns true if the point was new.
bool insert_point(std::vector<Time>& pts, Time t, double tol) {
  auto it = std::lower_bound(pts.begin(), pts.end(), t);
  if (it != pts.end() && *it - t <= tol) return false;
  if (it != pts.begin() && t - *(it - 1) <= tol) return false;
  pts.insert(it, t);
  return true;
}

}  // namespace

DiscreteTimeSet DiscreteTimeSet::build(const TimeVaryingGraph& g,
                                       const DtsOptions& options) {
  obs::Span span("dts_build");
  const auto n = static_cast<std::size_t>(g.node_count());
  TVEG_REQUIRE(options.extra_points.empty() || options.extra_points.size() == n,
               "extra_points must be empty or have one entry per node");

  DiscreteTimeSet dts;
  dts.tol_ = options.tolerance;
  dts.points_.assign(n, {});

  struct Pending {
    NodeId node;
    Time t;
  };
  std::deque<Pending> worklist;

  auto add = [&](NodeId v, Time t) {
    auto& pts = dts.points_[static_cast<std::size_t>(v)];
    if (pts.size() >= options.max_points_per_node) {
      dts.truncated_ = true;
      return;
    }
    if (insert_point(pts, t, options.tolerance)) worklist.push_back({v, t});
  };

  // Seed: adjacent partitions (Eq. 9) plus caller-supplied event points.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const Partition adj = g.adjacent_partition(v, options.tolerance);
    for (Time t : adj.points()) add(v, t);
    if (!options.extra_points.empty())
      for (Time t : options.extra_points[static_cast<std::size_t>(v)])
        add(v, t);
  }

  // Fixpoint closure under +τ propagation: if v may transmit at t and u is
  // adjacent, u's status may change at t + τ and u may transmit then.
  const Time tau = g.latency();
  std::size_t propagations = 0;
  while (!worklist.empty()) {
    const auto [v, t] = worklist.front();
    worklist.pop_front();
    ++propagations;
    if (t + tau > g.horizon()) continue;
    for (NodeId u : g.neighbors_at(v, t)) add(u, t + tau);
  }

  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& builds = registry.counter(obs::keys::kDtsBuilds);
  static obs::Counter& points = registry.counter(obs::keys::kDtsPoints);
  static obs::Counter& closure = registry.counter(obs::keys::kDtsClosureSteps);
  static obs::Counter& truncations = registry.counter(obs::keys::kDtsTruncations);
  builds.add(1);
  points.add(dts.total_points());
  closure.add(propagations);
  if (dts.truncated_) {
    truncations.add(1);
    obs::flight_recorder().record(obs::FlightEventKind::kDtsTruncated,
                                  dts.total_points(),
                                  options.max_points_per_node);
  }
  return dts;
}

const std::vector<Time>& DiscreteTimeSet::points(NodeId i) const {
  TVEG_REQUIRE(i >= 0 && static_cast<std::size_t>(i) < points_.size(),
               "node id out of range");
  return points_[static_cast<std::size_t>(i)];
}

std::size_t DiscreteTimeSet::total_points() const {
  std::size_t total = 0;
  for (const auto& pts : points_) total += pts.size();
  return total;
}

std::size_t DiscreteTimeSet::lower_bound(NodeId i, Time t) const {
  const auto& pts = points(i);
  auto it = std::lower_bound(pts.begin(), pts.end(), t - tol_);
  return static_cast<std::size_t>(it - pts.begin());
}

bool DiscreteTimeSet::contains(NodeId i, Time t) const {
  const auto& pts = points(i);
  const std::size_t k = lower_bound(i, t);
  return k < pts.size() && std::abs(pts[k] - t) <= tol_;
}

std::vector<Time> DiscreteTimeSet::global_points() const {
  std::vector<Time> all;
  all.reserve(total_points());
  for (const auto& pts : points_) all.insert(all.end(), pts.begin(), pts.end());
  std::sort(all.begin(), all.end());
  std::vector<Time> out;
  out.reserve(all.size());
  for (Time t : all)
    if (out.empty() || t - out.back() > tol_) out.push_back(t);
  return out;
}

}  // namespace tveg
