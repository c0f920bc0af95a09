// Random graph families.
//
// The paper's Section 4 construction needs "arbitrary 4-regular expander
// graphs". Random d-regular graphs are expanders with high probability, so we
// realize them with the configuration model plus double-edge-swap repair.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "stats/rng.h"

namespace rumor {

// Random d-regular simple graph via the configuration model: stubs are paired
// uniformly at random; self-loops and parallel edges are then removed by
// random double edge swaps, which preserves uniform-ish degree sequence
// exactly (every node keeps degree d). Requires n*d even, 0 <= d < n.
//
// The repair tracks the current pairing as flat per-node stub-partner slots
// (n*d NodeIds: node x's d slots hold the partners of its d stubs), so the
// multiplicity of a pair {x, y} is an O(d) scan of x's slots and a swap
// clears and refills one slot per endpoint — O(n*d) memory, no tree. The
// counts equal the pair multiplicities an ordered bag of pairs would report,
// so every accept/reject decision, every rng draw and every output pair is
// the same as for the textbook tree-based repair, which
// tests/test_random_graphs.cpp keeps as an oracle.
//
// random_regular_edges returns the normalized (u < v) pairs in pairing order
// without building a Graph, for callers that splice the edges into a larger
// edge list (graph/hk_graph.h); random_regular wraps them in a Graph. Both
// draw from rng identically.
std::vector<Edge> random_regular_edges(Rng& rng, NodeId n, NodeId d);
Graph random_regular(Rng& rng, NodeId n, NodeId d);

// Erdős–Rényi G(n, p).
Graph erdos_renyi(Rng& rng, NodeId n, double p);

// Random connected d-regular graph: resamples random_regular until connected
// (a.a.s. one draw suffices for d >= 3).
Graph random_connected_regular(Rng& rng, NodeId n, NodeId d, int max_attempts = 64);

}  // namespace rumor
