// Unit tests for the random graph generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "graph/connectivity.h"
#include "graph/hk_graph.h"
#include "graph/random_graphs.h"
#include "stats/summary.h"

namespace rumor {
namespace {

using Pair = std::pair<NodeId, NodeId>;

Pair normalized(NodeId a, NodeId b) { return a < b ? Pair{a, b} : Pair{b, a}; }

// The textbook configuration-model repair over a std::multiset of pairs: the
// reference the flat stub-slot repair must match pair for pair and draw for
// draw.
std::vector<Pair> multiset_regular_pairs(Rng& rng, NodeId n, NodeId d) {
  if (d == 0) return {};
  std::vector<NodeId> stubs;
  for (NodeId u = 0; u < n; ++u)
    for (NodeId j = 0; j < d; ++j) stubs.push_back(u);
  std::shuffle(stubs.begin(), stubs.end(), rng);
  std::vector<Pair> pairs;
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2)
    pairs.push_back(normalized(stubs[i], stubs[i + 1]));

  std::multiset<Pair> occupied(pairs.begin(), pairs.end());
  auto is_bad = [&occupied](const Pair& p) {
    return p.first == p.second || occupied.count(p) > 1;
  };
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    while (is_bad(pairs[i])) {
      const std::size_t j = static_cast<std::size_t>(rng.below(pairs.size()));
      if (j == i) continue;
      const Pair a = pairs[i], b = pairs[j];
      occupied.erase(occupied.find(a));
      occupied.erase(occupied.find(b));
      const Pair na = normalized(a.first, b.second);
      const Pair nb = normalized(b.first, a.second);
      const bool na_ok = na.first != na.second && occupied.count(na) == 0;
      const bool nb_ok = nb.first != nb.second && occupied.count(nb) == 0 && !(nb == na);
      if (na_ok && nb_ok) {
        pairs[i] = na;
        pairs[j] = nb;
      }
      occupied.insert(pairs[i]);
      occupied.insert(pairs[j]);
    }
  }
  return pairs;
}

std::vector<Pair> as_sorted_pairs(const std::vector<Edge>& edges) {
  std::vector<Pair> out;
  out.reserve(edges.size());
  for (const Edge& e : edges) out.push_back(normalized(e.u, e.v));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> iota_nodes(NodeId lo, NodeId hi) {
  std::vector<NodeId> v(static_cast<std::size_t>(hi - lo));
  std::iota(v.begin(), v.end(), lo);
  return v;
}

class RandomRegular : public ::testing::TestWithParam<std::tuple<NodeId, NodeId, std::uint64_t>> {
};

TEST_P(RandomRegular, ExactDegreesAndSimplicity) {
  const auto [n, d, seed] = GetParam();
  Rng rng(seed);
  const Graph g = random_regular(rng, n, d);
  EXPECT_EQ(g.node_count(), n);
  EXPECT_EQ(g.min_degree(), d);
  EXPECT_EQ(g.max_degree(), d);
  EXPECT_EQ(g.edge_count(), static_cast<std::int64_t>(n) * d / 2);
  // Simplicity is enforced by the Graph constructor; reaching here proves it.
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomRegular,
    ::testing::ValuesIn(std::vector<std::tuple<NodeId, NodeId, std::uint64_t>>{
        {10, 3, 1},
        {10, 4, 2},
        {50, 4, 3},
        {64, 3, 4},
        {64, 8, 5},
        {128, 4, 6},
        {128, 16, 7},
        {200, 5, 8},
        {256, 4, 9},
        {500, 6, 10}}));

TEST(RandomRegular, DegreeZeroGivesEmptyGraph) {
  Rng rng(1);
  const Graph g = random_regular(rng, 5, 0);
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(RandomRegular, RejectsOddProduct) {
  Rng rng(1);
  EXPECT_THROW(random_regular(rng, 5, 3), std::invalid_argument);
  EXPECT_THROW(random_regular(rng, 5, 5), std::invalid_argument);
}

TEST(RandomRegular, FourRegularIsUsuallyConnected) {
  // Random 4-regular graphs are connected (and expanders) a.a.s.
  int connected = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed + 100);
    if (is_connected(random_regular(rng, 100, 4))) ++connected;
  }
  EXPECT_GE(connected, 19);
}

TEST(RandomRegular, FlatRepairMatchesMultisetReference) {
  const std::vector<std::pair<NodeId, NodeId>> sizes = {{10, 4},  {12, 5},   {20, 9},
                                                        {64, 8},  {256, 16}, {1536, 4}};
  for (const auto& [n, d] : sizes) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      Rng flat(seed), reference(seed);
      std::vector<Pair> want = multiset_regular_pairs(reference, n, d);
      std::sort(want.begin(), want.end());
      ASSERT_EQ(as_sorted_pairs(random_regular_edges(flat, n, d)), want)
          << "n=" << n << " d=" << d << " seed=" << seed;
      // Same number of draws: the streams stay in lockstep afterwards.
      ASSERT_EQ(flat.next(), reference.next()) << "n=" << n << " d=" << d << " seed=" << seed;
    }
  }
}

TEST(HkGraph, EdgeListExpandersMatchPerExpanderGraphPath) {
  // The construction as it read when each expander was a full Graph whose
  // sorted edges were then relabelled: same layout, same draws, same graph.
  const NodeId n = 400, a_count = 100, delta = 6;
  const int k = 3;
  const std::vector<NodeId> a_side = iota_nodes(0, a_count), b_side = iota_nodes(a_count, n);
  Rng rng(2024), reference(2024);
  const HkGraph h = build_hk_graph(rng, n, a_side, b_side, k, delta);

  std::vector<Edge> edges;
  for (int i = 0; i < k; ++i)
    for (NodeId u : h.clusters[static_cast<std::size_t>(i)])
      for (NodeId v : h.clusters[static_cast<std::size_t>(i) + 1]) edges.push_back({u, v});
  for (const std::vector<NodeId>* members : {&h.expander_a, &h.expander_b}) {
    const auto m = static_cast<NodeId>(members->size());
    std::vector<Edge> local;
    for (const Pair& p : multiset_regular_pairs(reference, m, 4))
      local.push_back({p.first, p.second});
    const Graph expander(m, std::move(local));
    for (const Edge& e : expander.edges())
      edges.push_back({(*members)[static_cast<std::size_t>(e.u)],
                       (*members)[static_cast<std::size_t>(e.v)]});
  }
  auto attach = [&edges](const std::vector<NodeId>& cluster, const std::vector<NodeId>& target) {
    std::size_t cursor = 0;
    for (NodeId u : cluster)
      for (NodeId j = 0; j < delta; ++j) {
        edges.push_back({u, target[cursor]});
        cursor = (cursor + 1) % target.size();
      }
  };
  attach(h.clusters.front(), h.expander_a);
  attach(h.clusters.back(), h.expander_b);

  const Graph want(n, std::move(edges));
  EXPECT_EQ(h.graph.edges(), want.edges());
  EXPECT_EQ(rng.next(), reference.next());
}

TEST(RandomConnectedRegular, AlwaysConnected) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const Graph g = random_connected_regular(rng, 60, 3);
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(g.min_degree(), 3);
    EXPECT_EQ(g.max_degree(), 3);
  }
}

TEST(ErdosRenyi, EdgeCountConcentrates) {
  Rng rng(42);
  const NodeId n = 100;
  const double p = 0.05;
  OnlineStats s;
  for (int i = 0; i < 50; ++i)
    s.add(static_cast<double>(erdos_renyi(rng, n, p).edge_count()));
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(s.mean(), expected, expected * 0.08);
}

TEST(ErdosRenyi, ExtremesAndValidation) {
  Rng rng(43);
  EXPECT_EQ(erdos_renyi(rng, 10, 0.0).edge_count(), 0);
  EXPECT_EQ(erdos_renyi(rng, 10, 1.0).edge_count(), 45);
  EXPECT_THROW(erdos_renyi(rng, 10, 1.5), std::invalid_argument);
  EXPECT_THROW(erdos_renyi(rng, 10, -0.1), std::invalid_argument);
}

TEST(ErdosRenyi, AllEdgesValidSimple) {
  Rng rng(44);
  const Graph g = erdos_renyi(rng, 40, 0.2);
  for (const Edge& e : g.edges()) {
    EXPECT_LT(e.u, e.v);
    EXPECT_GE(e.u, 0);
    EXPECT_LT(e.v, 40);
  }
}

TEST(ErdosRenyi, DeterministicForSeed) {
  Rng a(7), b(7);
  const Graph ga = erdos_renyi(a, 30, 0.1);
  const Graph gb = erdos_renyi(b, 30, 0.1);
  EXPECT_EQ(ga.edges().size(), gb.edges().size());
  for (std::size_t i = 0; i < ga.edges().size(); ++i)
    EXPECT_TRUE(ga.edges()[i] == gb.edges()[i]);
}

}  // namespace
}  // namespace rumor
