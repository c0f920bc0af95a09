// E14 — engine and substrate throughput (google-benchmark).
//
// Not a paper experiment: these microbenchmarks document the cost model the
// experiment binaries rely on (events/second of the two engines, metric
// computation, sampler operations) and guard against performance regressions.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/async_engine.h"
#include "core/sync_engine.h"
#include "dynamic/diligent_adversary.h"
#include "dynamic/edge_markovian.h"
#include "dynamic/simple_networks.h"
#include "graph/builders.h"
#include "graph/conductance.h"
#include "graph/diligence.h"
#include "graph/random_graphs.h"
#include "graph/topology.h"
#include "stats/block_rates.h"
#include "support/bitset.h"

namespace rumor {
namespace {

void BM_JumpEngineClique(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto g = std::make_shared<const Graph>(make_clique(n));
  std::uint64_t seed = 1;
  std::int64_t infections = 0;
  for (auto _ : state) {
    StaticNetwork net(g);
    Rng rng(seed++);
    const auto r = run_async_jump(net, 0, rng);
    infections += r.informative_contacts;
    benchmark::DoNotOptimize(r.spread_time);
  }
  state.SetItemsProcessed(infections);
  state.SetLabel("items = infections");
}
BENCHMARK(BM_JumpEngineClique)->Arg(256)->Arg(1024)->Arg(4096);

void BM_JumpEngineExpander(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng build_rng(7);
  const auto g = std::make_shared<const Graph>(random_connected_regular(build_rng, n, 4));
  std::uint64_t seed = 1;
  std::int64_t infections = 0;
  for (auto _ : state) {
    StaticNetwork net(g);
    Rng rng(seed++);
    const auto r = run_async_jump(net, 0, rng);
    infections += r.informative_contacts;
  }
  state.SetItemsProcessed(infections);
}
BENCHMARK(BM_JumpEngineExpander)->Arg(1024)->Arg(8192);

void BM_TickEngineClique(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto g = std::make_shared<const Graph>(make_clique(n));
  std::uint64_t seed = 1;
  std::int64_t contacts = 0;
  for (auto _ : state) {
    StaticNetwork net(g);
    Rng rng(seed++);
    const auto r = run_async_tick(net, 0, rng);
    contacts += r.total_contacts;
  }
  state.SetItemsProcessed(contacts);
  state.SetLabel("items = contacts");
}
BENCHMARK(BM_TickEngineClique)->Arg(256)->Arg(1024);

void BM_SyncEngineClique(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto g = std::make_shared<const Graph>(make_clique(n));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    StaticNetwork net(g);
    Rng rng(seed++);
    const auto r = run_sync(net, 0, rng);
    benchmark::DoNotOptimize(r.spread_time);
  }
}
BENCHMARK(BM_SyncEngineClique)->Arg(1024);

void BM_DiligentAdversaryRun(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    DiligentAdversaryNetwork net(n, 0.125, 0, seed);
    Rng rng(seed++);
    const auto r = run_async_jump(net, net.suggested_source(), rng);
    benchmark::DoNotOptimize(r.spread_time);
  }
}
BENCHMARK(BM_DiligentAdversaryRun)->Arg(1024);

void BM_ExactConductance(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const Graph g = make_pendant_clique(n - 1);
  for (auto _ : state) benchmark::DoNotOptimize(exact_conductance(g));
}
BENCHMARK(BM_ExactConductance)->Arg(12)->Arg(16);

void BM_SpectralConductance(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const Graph g = make_regular_circulant(n, 8);
  for (auto _ : state) benchmark::DoNotOptimize(spectral_conductance_bounds(g).lower);
}
BENCHMARK(BM_SpectralConductance)->Arg(1024)->Arg(8192);

void BM_AbsoluteDiligence(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const Graph g = make_regular_circulant(n, 8);
  for (auto _ : state) benchmark::DoNotOptimize(absolute_diligence(g));
}
BENCHMARK(BM_AbsoluteDiligence)->Arg(8192);

void BM_TopologyFullRebuild(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(3);
  const Graph base = erdos_renyi(rng, n, 8.0 / static_cast<double>(n));
  TopologyBuilder topo(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.rebuild(base.edges()).edge_count());
  }
  state.SetItemsProcessed(state.iterations() * base.edge_count());
  state.SetLabel("items = edges");
}
BENCHMARK(BM_TopologyFullRebuild)->Arg(4096)->Arg(65536);

void BM_TopologyApplyDelta(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(3);
  const Graph base = erdos_renyi(rng, n, 8.0 / static_cast<double>(n));
  TopologyBuilder topo(n);
  topo.rebuild(base.edges());
  // Flip the same small edge set in and out: a realistic change-point delta.
  std::vector<Edge> batch;
  for (const Edge& e : base.edges()) {
    if (batch.size() >= 64) break;
    batch.push_back(e);
  }
  bool present = true;
  for (auto _ : state) {
    if (present) {
      benchmark::DoNotOptimize(topo.apply_delta(batch, {}).edge_count());
    } else {
      benchmark::DoNotOptimize(topo.apply_delta({}, batch).edge_count());
    }
    present = !present;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
  state.SetLabel("items = delta edges");
}
BENCHMARK(BM_TopologyApplyDelta)->Arg(4096)->Arg(65536);

void BM_EdgeMarkovianStep(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  EdgeMarkovianNetwork net(n, 4.0 / static_cast<double>(n), 0.2, 5);
  Bitset informed(static_cast<std::size_t>(n));
  std::int64_t count = 1;
  informed.set(0);
  const InformedView view(&informed, &count);
  std::int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.graph_at(t++, view).edge_count());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("items = change-points");
}
BENCHMARK(BM_EdgeMarkovianStep)->Arg(1024)->Arg(8192);

void BM_BlockRatesSampleUpdate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  BlockRates r(n);
  Rng rng(3);
  for (std::size_t i = 0; i < n; ++i) r.add(i, rng.uniform() + 0.01);
  for (auto _ : state) {
    const auto i = r.sample(rng.uniform() * r.total());
    r.add(i, rng.uniform() * 0.01);
    benchmark::DoNotOptimize(i);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BlockRatesSampleUpdate)->Arg(1024)->Arg(65536);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngUniform);

// Args: {n, d}. n = 1536, d = 4 is the B-side expander of the diligent
// adversary at n = 2048; d = 32 checks that the repair's O(d) stub-slot
// scans stay cheap at larger degrees.
void BM_RandomRegularBuild(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto d = static_cast<NodeId>(state.range(1));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(random_regular(rng, n, d).edge_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * d / 2);
}
BENCHMARK(BM_RandomRegularBuild)
    ->Args({1024, 4})
    ->Args({1536, 4})
    ->Args({8192, 4})
    ->Args({1536, 32});

}  // namespace
}  // namespace rumor

BENCHMARK_MAIN();
