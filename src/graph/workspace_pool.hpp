// Process-wide pool of DijkstraWorkspace objects.
//
// Every traversal site in the solve core (SteinerSolver queries, AuxGraph
// helpers, governed-batch solves) borrows its scratch through here
// instead of stack-allocating, so the dist/parent/heap buffers warm up once
// per thread-pool width and are reused for the life of the process.
// Acquisition is counted on `tveg.steiner.heap.acquires` /
// `tveg.steiner.heap.reuses`; each default construction (a real heap
// allocation) additionally bumps `tveg.alloc.steady_state`, which the
// Overhead-style ctest pins at zero delta once warm.
#pragma once

#include "graph/digraph.hpp"
#include "support/object_pool.hpp"

namespace tveg::graph {

using WorkspacePool = support::ObjectPool<DijkstraWorkspace>;
using WorkspaceHandle = WorkspacePool::Handle;

/// The global workspace pool (function-local static, thread-safe).
WorkspacePool& dijkstra_workspaces();

/// Borrows one workspace from the global pool.
WorkspaceHandle acquire_workspace();

}  // namespace tveg::graph
