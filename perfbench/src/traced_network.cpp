#include "traced_network.h"

#include <cmath>
#include <vector>

namespace perfbench {

TracedNetwork::TracedNetwork(std::unique_ptr<rumor::DynamicNetwork> inner, Shadow shadow,
                             const MarkovianLaw& law, LayerCounters& counters)
    : inner_(std::move(inner)),
      shadow_mode_(shadow),
      law_(law),
      counters_(counters),
      shadow_(inner_->node_count()) {}

const rumor::Graph& TracedNetwork::graph_at(std::int64_t t,
                                            const rumor::InformedView& informed) {
  const double start = now_s();
  const rumor::Graph& g = inner_->graph_at(t, informed);
  const double end = now_s();
  counters_.graph_at_s += end - start;
  ++counters_.steps;
  if (spans_ != nullptr) spans_->add("graph_at", parent_, id_, start, end);
  if (!seen_first_ || g.version() != version_) {
    if (seen_first_) ++counters_.change_points;
    seen_first_ = true;
    version_ = g.version();
    ++counters_.snapshots;
    counters_.snapshot_edges += g.edge_count();
    replay(g);
  }
  return g;
}

rumor::GraphProfile TracedNetwork::current_profile() const {
  const double start = now_s();
  const rumor::GraphProfile profile = inner_->current_profile();
  const double end = now_s();
  counters_.profile_s += end - start;
  ++counters_.profile_calls;
  if (spans_ != nullptr) spans_->add("profile", parent_, id_, start, end);
  return profile;
}

void TracedNetwork::replay(const rumor::Graph& snapshot) {
  const std::optional<rumor::TopologyDelta> delta = inner_->last_delta();
  const std::int64_t previous_edges =
      shadow_.has_snapshot() ? shadow_.current().edge_count() : -1;

  const double start = now_s();
  const bool use_delta = shadow_mode_ == Shadow::delta && delta.has_value() &&
                         shadow_.has_snapshot();
  if (use_delta) {
    shadow_.apply_delta_sorted(delta->removed, delta->added);
  } else {
    // First snapshot, a composed multi-step change, or a rebuilding family.
    shadow_.rebuild(std::vector<rumor::Edge>(snapshot.edges()));
  }
  const double replayed = now_s();
  (use_delta ? counters_.apply_delta_s : counters_.rebuild_s) += replayed - start;
  if (spans_ != nullptr) {
    spans_->add(use_delta ? "apply_delta" : "rebuild", parent_, id_, start, replayed);
  }

  if (shadow_.current().edges() != snapshot.edges()) ++counters_.shadow_mismatches;
  if (use_delta) {
    counters_.churn_edges += static_cast<std::int64_t>(delta->removed.size() + delta->added.size());
  }
  if (law_.enabled) {
    const double pairs = law_.n * (law_.n - 1.0) / 2.0;
    const double pi = law_.p / (law_.p + law_.q);
    const double m = static_cast<double>(snapshot.edge_count());
    if (std::abs(m - pairs * pi) > 6.0 * std::sqrt(pairs * pi * (1.0 - pi))) {
      ++counters_.law_violations;
    }
    if (use_delta && previous_edges >= 0) {
      const double prev = static_cast<double>(previous_edges);
      const double deaths = static_cast<double>(delta->removed.size());
      if (std::abs(deaths - prev * law_.q) > 6.0 * std::sqrt(prev * law_.q * (1.0 - law_.q))) {
        ++counters_.law_violations;
      }
    }
  }
  counters_.shadow_check_s += now_s() - replayed;
}

}  // namespace perfbench
