#include "graph/reverse_sweep.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <utility>

#include "support/assert.hpp"
#include "support/math.hpp"

namespace tveg::graph {

namespace {

/// r[k] = min(r[k], next[k] + weight) for every k; true if any r[k] fell.
bool relax_row(double* r, const double* next, double weight,
               std::size_t terms) {
  bool improved = false;
  for (std::size_t k = 0; k < terms; ++k) {
    const double candidate = next[k] + weight;
    improved |= candidate < r[k];
    r[k] = std::min(r[k], candidate);
  }
  return improved;
}

}  // namespace

SccOrder scc_sinks_first(const Digraph& g) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  // index = DFS number; a vertex already placed in a component carries
  // kPlaced, which never lowers a low-link, so no on-stack flags are needed.
  constexpr auto kUnvisited = std::numeric_limits<std::uint32_t>::max();
  constexpr auto kPlaced = kUnvisited - 1;
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<VertexId> stack;
  // Explicit DFS frames (vertex, next out-arc): aux graphs have chains tens
  // of thousands of vertices deep.
  std::vector<std::pair<VertexId, std::size_t>> frames;
  std::uint32_t counter = 0;
  const auto visit = [&](VertexId v) {
    index[static_cast<std::size_t>(v)] = low[static_cast<std::size_t>(v)] =
        counter++;
    stack.push_back(v);
    frames.emplace_back(v, 0);
  };

  SccOrder order;
  order.vertices.reserve(n);
  order.position.assign(n, 0);
  order.begin.push_back(0);
  for (VertexId root = 0; root < g.vertex_count(); ++root) {
    if (index[static_cast<std::size_t>(root)] != kUnvisited) continue;
    visit(root);
    while (!frames.empty()) {
      auto& [v, next] = frames.back();
      const auto vi = static_cast<std::size_t>(v);
      const std::span<const Arc> arcs = g.out(v);
      if (next < arcs.size()) {
        const VertexId w = arcs[next++].to;
        if (index[static_cast<std::size_t>(w)] == kUnvisited)
          visit(w);  // invalidates v and next
        else
          low[vi] = std::min(low[vi], index[static_cast<std::size_t>(w)]);
        continue;
      }
      const VertexId done = v;
      frames.pop_back();
      if (!frames.empty()) {
        const auto parent = static_cast<std::size_t>(frames.back().first);
        low[parent] = std::min(low[parent], low[vi]);
      }
      if (low[vi] != index[vi]) continue;
      // `done` roots a component: the stack above it is its other members.
      VertexId w = kNoVertex;
      do {
        w = stack.back();
        stack.pop_back();
        index[static_cast<std::size_t>(w)] = kPlaced;
        order.position[static_cast<std::size_t>(w)] =
            static_cast<std::uint32_t>(order.vertices.size());
        order.vertices.push_back(w);
      } while (w != done);
      order.begin.push_back(static_cast<std::uint32_t>(order.vertices.size()));
    }
  }
  return order;
}

void distances_to(const Digraph& g, const SccOrder& order,
                  std::span<const VertexId> terminals,
                  const support::Budget& budget, std::vector<double>& dist) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  const std::size_t kTerms = terminals.size();
  TVEG_REQUIRE(order.vertices.size() == n,
               "SCC order does not belong to this graph");
  dist.assign(n * kTerms, support::kInf);
  for (std::size_t k = 0; k < kTerms; ++k) {
    const VertexId t = terminals[k];
    TVEG_REQUIRE(t >= 0 && static_cast<std::size_t>(t) < n,
                 "terminal vertex out of range");
    dist[static_cast<std::size_t>(t) * kTerms + k] = 0;
  }
  if (kTerms == 0) return;
  const auto row = [&](VertexId v) {
    return dist.data() + static_cast<std::size_t>(v) * kTerms;
  };

  // Scratch for the per-terminal heaps: a component's internal arcs
  // reversed into local CSR form, plus one label array and heap.
  std::vector<std::uint32_t> in_begin;
  std::vector<std::uint32_t> cursor;
  std::vector<std::pair<std::uint32_t, double>> in_arcs;
  std::vector<double> label;
  std::vector<std::pair<double, std::uint32_t>> heap;

  support::Budget::Poller poller(budget, "steiner_reverse");
  for (std::size_t c = 0; c + 1 < order.begin.size(); ++c) {
    const std::uint32_t lo = order.begin[c];
    const std::uint32_t hi = order.begin[c + 1];
    // A head at position >= lo lies inside this component (later
    // components are unreachable from it); lower positions hold final rows.
    const auto internal = [&](VertexId v) {
      return order.position[static_cast<std::size_t>(v)] >= lo;
    };
    for (std::uint32_t i = lo; i < hi; ++i) {
      poller.poll();
      double* r = row(order.vertices[i]);
      for (const Arc& a : g.out(order.vertices[i]))
        if (!internal(a.to)) relax_row(r, row(a.to), a.weight, kTerms);
    }
    const std::uint32_t size = hi - lo;
    if (size == 1) continue;

    // Rounds over the internal arcs in Tarjan's pop order, which lists DFS
    // descendants before their ancestors. With E internal arcs a round costs
    // K·E and the heaps below about K·E·log2(size), so capping the rounds at
    // bit_width(size) keeps a component within about twice the heaps' cost.
    // On aux graphs the rounds settle nearly every component: on the shipped
    // N=20 trace at T=10000 the sweep runs 3–4× faster this way than with
    // the heaps alone (CHANGES.md).
    const auto rounds = static_cast<int>(std::bit_width(size));
    bool improved = true;
    for (int round = 0; improved && round < rounds; ++round) {
      improved = false;
      for (std::uint32_t i = lo; i < hi; ++i) {
        double* r = row(order.vertices[i]);
        for (const Arc& a : g.out(order.vertices[i]))
          if (internal(a.to) && a.to != order.vertices[i])
            improved |= relax_row(r, row(a.to), a.weight, kTerms);
      }
    }
    if (!improved) continue;

    // Still improving: one heap per terminal, seeded with the current rows.
    const auto local = [&](VertexId v) {
      return order.position[static_cast<std::size_t>(v)] - lo;
    };
    in_begin.assign(size + 1, 0);
    for (std::uint32_t i = lo; i < hi; ++i)
      for (const Arc& a : g.out(order.vertices[i]))
        if (internal(a.to)) ++in_begin[local(a.to) + 1];
    for (std::uint32_t j = 0; j < size; ++j) in_begin[j + 1] += in_begin[j];
    in_arcs.resize(in_begin[size]);
    cursor.assign(in_begin.begin(), in_begin.end() - 1);
    for (std::uint32_t i = lo; i < hi; ++i)
      for (const Arc& a : g.out(order.vertices[i]))
        if (internal(a.to)) in_arcs[cursor[local(a.to)]++] = {i - lo, a.weight};

    label.resize(size);
    for (std::size_t k = 0; k < kTerms; ++k) {
      heap.clear();
      for (std::uint32_t j = 0; j < size; ++j) {
        label[j] = row(order.vertices[lo + j])[k];
        if (label[j] < support::kInf) heap.emplace_back(label[j], j);
      }
      std::make_heap(heap.begin(), heap.end(), std::greater<>{});
      while (!heap.empty()) {
        const auto [d, j] = heap.front();
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        heap.pop_back();
        if (d > label[j]) continue;
        for (std::uint32_t e = in_begin[j]; e < in_begin[j + 1]; ++e) {
          const auto [tail, weight] = in_arcs[e];
          const double nd = d + weight;
          if (nd < label[tail]) {
            label[tail] = nd;
            heap.emplace_back(nd, tail);
            std::push_heap(heap.begin(), heap.end(), std::greater<>{});
          }
        }
      }
      for (std::uint32_t j = 0; j < size; ++j)
        row(order.vertices[lo + j])[k] = label[j];
    }
  }
}

}  // namespace tveg::graph
