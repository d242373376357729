#include "graph/digraph.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace tveg::graph {

Digraph::Digraph(VertexId n) : vertices_(n) {
  TVEG_REQUIRE(n >= 0, "vertex count must be non-negative");
}

VertexId Digraph::add_vertex() {
  TVEG_REQUIRE(!frozen_, "cannot add vertices to a frozen graph");
  return vertices_++;
}

void Digraph::check_vertex(VertexId v) const {
  TVEG_REQUIRE(v >= 0 && v < vertices_, "vertex id out of range");
}

void Digraph::add_arc(VertexId from, VertexId to, double weight) {
  TVEG_REQUIRE(!frozen_, "cannot add arcs to a frozen graph");
  check_vertex(from);
  check_vertex(to);
  // Finite: an infinite weight would relax nothing (inf < inf is false), so
  // its head would read as unreached rather than reached at +inf.
  TVEG_REQUIRE(weight >= 0 && std::isfinite(weight),
               "arc weight must be finite and non-negative");
  staged_from_.push_back(from);
  staged_.push_back({to, weight});
}

void Digraph::reserve_arcs(std::size_t arcs) {
  staged_from_.reserve(arcs);
  staged_.reserve(arcs);
}

void Digraph::freeze() {
  if (frozen_) return;
  const auto n = static_cast<std::size_t>(vertices_);
  const std::size_t m = staged_.size();
  offsets_.assign(n + 1, 0);
  for (const VertexId from : staged_from_)
    ++offsets_[static_cast<std::size_t>(from) + 1];
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  arcs_.resize(m);
  for (std::size_t i = 0; i < m; ++i)
    arcs_[cursor_[static_cast<std::size_t>(staged_from_[i])]++] = staged_[i];
  staged_from_.clear();
  staged_from_.shrink_to_fit();
  staged_.clear();
  staged_.shrink_to_fit();
  frozen_ = true;
  obs::MetricsRegistry::global().counter(obs::keys::kGraphFreezes).add(1);
  obs::MetricsRegistry::global()
      .counter(obs::keys::kGraphFrozenArcs)
      .add(static_cast<std::int64_t>(m));
}

void Digraph::reset(VertexId n) {
  TVEG_REQUIRE(n >= 0, "vertex count must be non-negative");
  vertices_ = n;
  frozen_ = false;
  staged_from_.clear();
  staged_.clear();
  offsets_.clear();
  arcs_.clear();
}

void Digraph::ensure_frozen() const {
  // Lazy freeze keeps the historical "build then query" call sites working
  // unchanged; logically const (the arc set is unaffected), hence the cast.
  // Not safe to race — callers sharing a graph across threads freeze first.
  if (!frozen_) const_cast<Digraph*>(this)->freeze();
}

std::span<const Arc> Digraph::out(VertexId v) const {
  check_vertex(v);
  ensure_frozen();
  const auto i = static_cast<std::size_t>(v);
  return {arcs_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
}

Digraph Digraph::reversed() const {
  ensure_frozen();
  Digraph r(vertices_);
  const auto n = static_cast<std::size_t>(vertices_);
  // Counting sort by head vertex; scanning arcs_ in (source, position) order
  // replays the historical per-source add_arc loop, so each reversed
  // vertex's arc order matches the old representation exactly.
  r.offsets_.assign(n + 1, 0);
  for (const Arc& a : arcs_) ++r.offsets_[static_cast<std::size_t>(a.to) + 1];
  for (std::size_t v = 0; v < n; ++v) r.offsets_[v + 1] += r.offsets_[v];
  r.cursor_.assign(r.offsets_.begin(), r.offsets_.end() - 1);
  r.arcs_.resize(arcs_.size());
  for (VertexId v = 0; v < vertices_; ++v) {
    const auto i = static_cast<std::size_t>(v);
    for (std::size_t j = offsets_[i]; j < offsets_[i + 1]; ++j) {
      const Arc& a = arcs_[j];
      r.arcs_[r.cursor_[static_cast<std::size_t>(a.to)]++] = {v, a.weight};
    }
  }
  r.frozen_ = true;
  obs::MetricsRegistry::global().counter(obs::keys::kGraphFreezes).add(1);
  obs::MetricsRegistry::global()
      .counter(obs::keys::kGraphFrozenArcs)
      .add(static_cast<std::int64_t>(r.arcs_.size()));
  return r;
}

ShortestPaths dijkstra(const Digraph& g, VertexId src) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  TVEG_REQUIRE(src >= 0 && static_cast<std::size_t>(src) < n,
               "source vertex out of range");
  ShortestPaths sp;
  sp.dist.assign(n, support::kInf);
  sp.parent.assign(n, kNoVertex);
  sp.dist[static_cast<std::size_t>(src)] = 0;
  // A min-heap over (dist, vertex) pairs: push_heap/pop_heap with
  // std::greater<>, the algorithm std::priority_queue runs. Its (dist, id)
  // pop order and the strict `<` below fix every tie-break downstream.
  std::vector<std::pair<double, VertexId>> heap{{0.0, src}};
  while (!heap.empty()) {
    const auto [d, u] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    heap.pop_back();
    if (d > sp.dist[static_cast<std::size_t>(u)]) continue;
    ++sp.settled;
    for (const Arc& a : g.out(u)) {
      const auto t = static_cast<std::size_t>(a.to);
      const double nd = d + a.weight;
      if (nd < sp.dist[t]) {
        sp.dist[t] = nd;
        sp.parent[t] = u;
        heap.emplace_back(nd, a.to);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        ++sp.relaxations;
      }
    }
  }
  return sp;
}

std::vector<VertexId> extract_path(const ShortestPaths& sp, VertexId dst) {
  TVEG_REQUIRE(dst >= 0 && static_cast<std::size_t>(dst) < sp.dist.size(),
               "destination out of range");
  if (sp.dist[static_cast<std::size_t>(dst)] == support::kInf) return {};
  std::vector<VertexId> path{dst};
  while (sp.parent[static_cast<std::size_t>(path.back())] != kNoVertex)
    path.push_back(sp.parent[static_cast<std::size_t>(path.back())]);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace tveg::graph
