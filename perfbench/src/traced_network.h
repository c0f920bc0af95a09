// A decorating DynamicNetwork for the traced run. Installed around each
// trial's network through the NetworkFactory, it times every call the engine
// and the bound continuation make into the dynamic layer (graph_at) and the
// bounds layer (current_profile), counts steps, change-points and churned
// edges, and replays each change into a shadow TopologyBuilder:
//  * delta-reporting families (edge-Markovian): every reported delta goes
//    through TopologyBuilder::apply_delta_sorted, and the shadow snapshot
//    must equal the family's snapshot edge for edge;
//  * rebuilding families (the adaptive adversaries): every new snapshot goes
//    through TopologyBuilder::rebuild, the cost the family pays per
//    change-point.
// The shadow replays time the graph layer from outside the family; they run
// after the inner call returns, so they never count inside graph_at time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "dynamic/dynamic_network.h"
#include "graph/topology.h"
#include "report.h"

namespace perfbench {

enum class Shadow { delta, rebuild };

// Stationary edge-Markovian law the shadow checks each step against: edge
// count ~ Bin(n(n-1)/2, p/(p+q)), deaths ~ Bin(m_prev, q), both within 6σ.
struct MarkovianLaw {
  bool enabled = false;
  double n = 0.0;
  double p = 0.0;
  double q = 0.0;
};

// Accumulated over every traced call, across trials.
struct LayerCounters {
  double graph_at_s = 0.0;
  double profile_s = 0.0;
  double apply_delta_s = 0.0;  // shadow TopologyBuilder::apply_delta_sorted
  double rebuild_s = 0.0;      // shadow TopologyBuilder::rebuild
  double shadow_check_s = 0.0; // edge-for-edge comparisons and law checks
  std::int64_t steps = 0;          // graph_at calls
  std::int64_t change_points = 0;  // version changes after the first snapshot
  std::int64_t churn_edges = 0;    // |removed| + |added| over reported deltas
  std::int64_t profile_calls = 0;
  std::int64_t snapshot_edges = 0; // edge counts summed over new snapshots
  std::int64_t snapshots = 0;
  std::int64_t shadow_mismatches = 0;
  std::int64_t law_violations = 0;
};

class TracedNetwork final : public rumor::DynamicNetwork {
 public:
  TracedNetwork(std::unique_ptr<rumor::DynamicNetwork> inner, Shadow shadow,
                const MarkovianLaw& law, LayerCounters& counters);

  // Per-call spans go to `spans` under `parent` while enabled; the bound
  // continuation's millions of steps switch them off and are covered by one
  // span of their own.
  void set_spans(SpanLog* spans, int parent, std::int64_t id) {
    spans_ = spans;
    parent_ = parent;
    id_ = id;
  }

  rumor::NodeId node_count() const override { return inner_->node_count(); }
  const rumor::Graph& graph_at(std::int64_t t, const rumor::InformedView& informed) override;
  const rumor::Graph& current_graph() const override { return inner_->current_graph(); }
  rumor::GraphProfile current_profile() const override;
  rumor::NodeId suggested_source() const override { return inner_->suggested_source(); }
  std::string name() const override { return inner_->name(); }
  bool reports_deltas() const override { return inner_->reports_deltas(); }
  std::optional<rumor::TopologyDelta> last_delta() const override {
    return inner_->last_delta();
  }
  void set_parallel_evolution(rumor::ParallelEvolution* evolution) override {
    inner_->set_parallel_evolution(evolution);
  }

 private:
  void replay(const rumor::Graph& snapshot);

  std::unique_ptr<rumor::DynamicNetwork> inner_;
  Shadow shadow_mode_;
  MarkovianLaw law_;
  LayerCounters& counters_;
  rumor::TopologyBuilder shadow_;
  std::uint64_t version_ = 0;
  bool seen_first_ = false;
  SpanLog* spans_ = nullptr;
  int parent_ = -1;
  std::int64_t id_ = 0;
};

}  // namespace perfbench
