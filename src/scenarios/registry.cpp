#include "scenarios/registry.h"

#include <memory>
#include <stdexcept>

#include "dynamic/absolute_adversary.h"
#include "dynamic/clique_bridge.h"
#include "dynamic/diligent_adversary.h"
#include "dynamic/dynamic_star.h"
#include "dynamic/edge_markovian.h"
#include "dynamic/edge_sampling.h"
#include "dynamic/intermittent.h"
#include "dynamic/mobile_geometric.h"
#include "dynamic/simple_networks.h"
#include "graph/builders.h"
#include "graph/extra_builders.h"
#include "graph/random_graphs.h"
#include "support/contracts.h"

namespace rumor {
namespace {

// Shorthand for the schema entries.
ParamSpec pi(std::string name, double fallback, double lo, double hi, std::string desc) {
  return {std::move(name), ParamKind::integer, fallback, lo, hi, std::move(desc)};
}
ParamSpec pr(std::string name, double fallback, double lo, double hi, std::string desc) {
  return {std::move(name), ParamKind::real, fallback, lo, hi, std::move(desc)};
}
ParamSpec pf(std::string name, bool fallback, std::string desc) {
  return {std::move(name), ParamKind::flag, fallback ? 1.0 : 0.0, 0.0, 1.0, std::move(desc)};
}

NodeId node_param(const ScenarioParams& p, const char* name) {
  return static_cast<NodeId>(p.integer(name));
}

// --- Static baselines -------------------------------------------------------

// Deterministic static graphs are seed-independent and immutable: build once
// at factory creation and alias the snapshot across trials (the per-trial
// rebuild-and-copy used to dominate large static sweeps).
NetworkFactory make_shared_static(Graph g, const char* name) {
  auto shared = std::make_shared<const Graph>(std::move(g));
  return [shared, name](std::uint64_t) {
    return std::make_unique<StaticNetwork>(shared, name);
  };
}

NetworkFactory make_static_clique(const ScenarioParams& p) {
  return make_shared_static(make_clique(node_param(p, "n")), "clique");
}

NetworkFactory make_static_star(const ScenarioParams& p) {
  return make_shared_static(make_star(node_param(p, "n")), "star");
}

NetworkFactory make_static_cycle(const ScenarioParams& p) {
  return make_shared_static(make_cycle(node_param(p, "n")), "cycle");
}

NetworkFactory make_static_hypercube(const ScenarioParams& p) {
  return make_shared_static(make_hypercube(static_cast<int>(p.integer("dims"))), "hypercube");
}

NetworkFactory make_static_torus(const ScenarioParams& p) {
  return make_shared_static(make_torus_grid(node_param(p, "rows"), node_param(p, "cols")),
                            "torus");
}

NetworkFactory make_static_expander(const ScenarioParams& p) {
  const NodeId n = node_param(p, "n");
  const NodeId d = node_param(p, "d");
  return [n, d](std::uint64_t seed) {
    Rng rng(seed);
    return std::make_unique<StaticNetwork>(random_connected_regular(rng, n, d), "expander");
  };
}

NetworkFactory make_erdos_renyi(const ScenarioParams& p) {
  const NodeId n = node_param(p, "n");
  const double prob = p.real("p");
  return [n, prob](std::uint64_t seed) {
    Rng rng(seed);
    return std::make_unique<StaticNetwork>(erdos_renyi(rng, n, prob), "erdos-renyi");
  };
}

NetworkFactory make_watts_strogatz(const ScenarioParams& p) {
  const NodeId n = node_param(p, "n");
  const NodeId k = node_param(p, "k");
  const double beta = p.real("beta");
  return [n, k, beta](std::uint64_t seed) {
    Rng rng(seed);
    return std::make_unique<StaticNetwork>(watts_strogatz(rng, n, k, beta), "watts-strogatz");
  };
}

NetworkFactory make_barabasi_albert(const ScenarioParams& p) {
  const NodeId n = node_param(p, "n");
  const NodeId m = node_param(p, "m");
  return [n, m](std::uint64_t seed) {
    Rng rng(seed);
    return std::make_unique<StaticNetwork>(barabasi_albert(rng, n, m), "barabasi-albert");
  };
}

// --- The paper's dynamic families -------------------------------------------

NetworkFactory make_dynamic_star(const ScenarioParams& p) {
  const NodeId leaves = node_param(p, "n");
  return [leaves](std::uint64_t seed) {
    return std::make_unique<DynamicStarNetwork>(leaves, seed);
  };
}

NetworkFactory make_clique_bridge(const ScenarioParams& p) {
  const NodeId n = node_param(p, "n");
  return [n](std::uint64_t) { return std::make_unique<CliqueBridgeNetwork>(n); };
}

NetworkFactory make_diligent_adversary(const ScenarioParams& p) {
  const NodeId n = node_param(p, "n");
  const double rho = p.real("rho");
  const int k = static_cast<int>(p.integer("k"));
  return [n, rho, k](std::uint64_t seed) {
    return std::make_unique<DiligentAdversaryNetwork>(n, rho, k, seed);
  };
}

NetworkFactory make_absolute_adversary(const ScenarioParams& p) {
  const NodeId n = node_param(p, "n");
  const double rho = p.real("rho");
  return [n, rho](std::uint64_t seed) {
    return std::make_unique<AbsoluteAdversaryNetwork>(n, rho, seed);
  };
}

// --- Related-work dynamic models --------------------------------------------

NetworkFactory make_edge_markovian(const ScenarioParams& p) {
  const NodeId n = node_param(p, "n");
  const double birth = p.real("p");
  const double death = p.real("q");
  const bool start_empty = p.flag("start_empty");
  return [n, birth, death, start_empty](std::uint64_t seed) {
    return std::make_unique<EdgeMarkovianNetwork>(n, birth, death, seed, start_empty);
  };
}

NetworkFactory make_edge_markovian_frozen(const ScenarioParams& p) {
  const NodeId n = node_param(p, "n");
  const double birth = p.real("p");
  const bool start_empty = p.flag("start_empty");
  return [n, birth, start_empty](std::uint64_t seed) {
    // q = 0: edges are born and never die. Starting empty (the default), the
    // rumor has to wait for links to accumulate before it can move at all.
    return std::make_unique<EdgeMarkovianNetwork>(n, birth, /*q=*/0.0, seed, start_empty);
  };
}

NetworkFactory make_mobile_geometric(const ScenarioParams& p) {
  const NodeId n = node_param(p, "n");
  const double radius = p.real("radius");
  const double step = p.real("step");
  return [n, radius, step](std::uint64_t seed) {
    return std::make_unique<MobileGeometricNetwork>(n, radius, step, seed);
  };
}

NetworkFactory make_edge_sampling(const ScenarioParams& p) {
  const NodeId n = node_param(p, "n");
  const NodeId d = node_param(p, "d");
  const double keep = p.real("p");
  return [n, d, keep](std::uint64_t seed) {
    // Split the trial seed: one stream builds the base expander, the other
    // drives the per-step edge sampling.
    Rng rng(seed);
    Graph base = random_connected_regular(rng, n, d);
    return std::make_unique<EdgeSamplingNetwork>(std::move(base), keep, rng.next());
  };
}

NetworkFactory make_intermittent_expander(const ScenarioParams& p) {
  const NodeId n = node_param(p, "n");
  const NodeId d = node_param(p, "d");
  const int period = static_cast<int>(p.integer("period"));
  const int up = static_cast<int>(p.integer("up"));
  return [n, d, period, up](std::uint64_t seed) {
    Rng rng(seed);
    auto base =
        std::make_unique<StaticNetwork>(random_connected_regular(rng, n, d), "expander");
    return std::make_unique<IntermittentNetwork>(std::move(base), period, up);
  };
}

std::vector<ScenarioSpec> build_registry() {
  std::vector<ScenarioSpec> specs;
  const double nmax = 1e7;

  specs.push_back({"static_clique", "complete graph K_n, the classic push-pull baseline",
                   "Sec. 1 (static special case)",
                   {pi("n", 512, 2, nmax, "number of nodes")},
                   &make_static_clique});
  specs.push_back({"static_star", "star K_{1,n-1}; rumor starts at the centre",
                   "Sec. 1 (static special case)",
                   {pi("n", 512, 2, nmax, "number of nodes")},
                   &make_static_star});
  specs.push_back({"static_cycle", "cycle C_n, the low-conductance static worst case",
                   "Sec. 1 (static special case)",
                   {pi("n", 512, 3, nmax, "number of nodes")},
                   &make_static_cycle});
  specs.push_back({"static_hypercube", "d-dimensional hypercube on 2^dims nodes",
                   "extension baseline",
                   {pi("dims", 9, 1, 24, "hypercube dimension")},
                   &make_static_hypercube});
  specs.push_back({"static_torus", "rows x cols torus grid (4-regular)",
                   "extension baseline",
                   {pi("rows", 16, 3, 4096, "grid rows"), pi("cols", 16, 3, 4096, "grid columns")},
                   &make_static_torus});
  specs.push_back({"static_expander",
                   "random connected d-regular expander, fresh per trial",
                   "Sec. 4 (expander building block)",
                   {pi("n", 512, 4, nmax, "number of nodes"),
                    pi("d", 4, 3, 64, "regular degree")},
                   &make_static_expander});
  specs.push_back({"erdos_renyi", "Erdos-Renyi G(n,p), fresh per trial",
                   "related work [24] (async push-pull on G(n,p))",
                   {pi("n", 512, 2, nmax, "number of nodes"),
                    pr("p", 0.05, 0.0, 1.0, "edge probability (keep > ln(n)/n: below the"
                                            " connectivity threshold runs rarely complete)")},
                   &make_erdos_renyi});
  specs.push_back({"watts_strogatz", "Watts-Strogatz small world, fresh per trial",
                   "social-network motivation [12]",
                   {pi("n", 512, 8, nmax, "number of nodes"),
                    pi("k", 6, 2, 64, "ring-lattice degree (even)"),
                    pr("beta", 0.1, 0.0, 1.0, "rewiring probability")},
                   &make_watts_strogatz});
  specs.push_back({"barabasi_albert", "Barabasi-Albert preferential attachment, fresh per trial",
                   "social-network motivation [12]",
                   {pi("n", 512, 4, nmax, "number of nodes"),
                    pi("m", 3, 1, 64, "edges per arriving node")},
                   &make_barabasi_albert});

  specs.push_back({"dynamic_star",
                   "G2: star whose centre re-seats onto an uninformed node each step",
                   "Thm 1.7(ii)-(iii), Fig. 1(b)",
                   {pi("n", 256, 2, nmax, "number of leaves (n+1 nodes total)")},
                   &make_dynamic_star});
  specs.push_back({"clique_bridge",
                   "G1: pendant clique that splits into two bridged cliques at t=1",
                   "Thm 1.7(i), Fig. 1(a)",
                   {pi("n", 128, 4, nmax, "clique size (n+1 nodes total)")},
                   &make_clique_bridge});
  specs.push_back({"diligent_adversary",
                   "G(n,rho): adaptive k-layer bipartite-string adversary",
                   "Thm 1.2, Sec. 4, Lemma 4.2",
                   {pi("n", 512, 128, nmax, "number of nodes (k*ceil(1/rho)+5 <= n/4)"),
                    pr("rho", 0.25, 1e-6, 1.0, "diligence target (>= 1/sqrt(n))"),
                    pi("k", 0, 0, 64, "string layers; 0 = Theta(log n / log log n)")},
                   &make_diligent_adversary});
  specs.push_back({"absolute_adversary",
                   "G(n,rho): adaptive bridged-circulant adversary for the absolute bound",
                   "Thm 1.5, Sec. 5.1, Lemma 5.2",
                   {pi("n", 512, 64, nmax, "number of nodes"),
                    pr("rho", 0.1, 1e-6, 1.0, "diligence target (>= 10/n)")},
                   &make_absolute_adversary});

  specs.push_back({"edge_markovian",
                   "every non-edge born w.p. p, every edge dies w.p. q, per step",
                   "related work [7] (Clementi et al.)",
                   {pi("n", 256, 2, nmax, "number of nodes"),
                    pr("p", 0.01, 0.0, 1.0, "edge birth probability"),
                    pr("q", 0.2, 0.0, 1.0, "edge death probability"),
                    pf("start_empty", false, "start from the empty graph")},
                   &make_edge_markovian});
  specs.push_back({"edge_markovian_frozen",
                   "frozen edges (q = 0): non-edges born w.p. p per step, edges never die",
                   "related work [7], q = 0 boundary",
                   {pi("n", 256, 2, nmax, "number of nodes"),
                    pr("p", 0.002, 0.0, 1.0, "edge birth probability"),
                    pf("start_empty", true, "start from the empty graph")},
                   &make_edge_markovian_frozen});
  specs.push_back({"mobile_geometric",
                   "agents on the unit torus; edges within communication radius",
                   "related work [22, 20] (mobile networks)",
                   {pi("n", 256, 2, nmax, "number of agents"),
                    pr("radius", 0.12, 0.0, 1.0, "connection radius"),
                    pr("step", 0.02, 0.0, 1.0, "max movement per step")},
                   &make_mobile_geometric});
  specs.push_back({"edge_sampling_expander",
                   "random subgraph of a d-regular expander, resampled per step",
                   "unreliable-links robustness setting [14]",
                   {pi("n", 256, 4, nmax, "number of nodes"),
                    pi("d", 4, 3, 64, "base regular degree"),
                    pr("p", 0.3, 0.0, 1.0, "per-edge keep probability")},
                   &make_edge_sampling});
  specs.push_back({"intermittent_expander",
                   "static expander on a duty cycle: empty graph on down steps",
                   "Thm 1.3 connectivity indicator",
                   {pi("n", 256, 4, nmax, "number of nodes"),
                    pi("d", 4, 3, 64, "regular degree"),
                    pi("period", 4, 1, 1024, "duty-cycle period"),
                    pi("up", 2, 1, 1024, "up steps per period")},
                   &make_intermittent_expander});

  for (const ScenarioSpec& s : specs) {
    DG_ASSERT(s.make_factory != nullptr, "scenario '" + s.name + "' has no factory");
  }
  return specs;
}

}  // namespace

const std::vector<ScenarioSpec>& scenario_registry() {
  static const std::vector<ScenarioSpec> registry = build_registry();
  return registry;
}

const ScenarioSpec* find_scenario(const std::string& name) {
  for (const ScenarioSpec& s : scenario_registry()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const ScenarioSpec& require_scenario(const std::string& name) {
  const ScenarioSpec* spec = find_scenario(name);
  if (spec == nullptr) {
    std::string catalog;
    for (const ScenarioSpec& s : scenario_registry()) {
      if (!catalog.empty()) catalog += ", ";
      catalog += s.name;
    }
    throw std::invalid_argument("unknown scenario '" + name + "' (known: " + catalog +
                                "); see: rumor_cli describe --scenario NAME");
  }
  return *spec;
}

}  // namespace rumor
