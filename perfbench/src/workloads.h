// The benchmark's workloads and the traced trial path they share.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine_workspace.h"
#include "scenarios/experiment.h"
#include "report.h"
#include "traced_network.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;   // traced run: where the span log is written
  std::string socket_path;  // serve: unix socket of the in-process daemon
};

// One cell prepared for the traced trial path: the resolved scenario, its
// factory, the runner options run_experiment would use, and the label that
// emit_trial_json renders records with.
struct CellPlan {
  rumor::ExperimentResult label;  // spec + resolved params (report unused)
  rumor::NetworkFactory factory;
  rumor::RunnerOptions runner;
  Shadow shadow = Shadow::rebuild;
  MarkovianLaw law;
  double resolve_s = 0.0;  // scenario resolution time
  double build_s = 0.0;    // make_factory time (a shared snapshot's build)
};

// Theorem 1.2's floor on the mean spread time of the diligent adversary
// G(n, rho): 0.5·n/(4kΔ) with k = round(ln n / ln ln n) and Δ = ⌈1/rho⌉.
double theorem12_mean_floor(double n, double rho);

// Resolves `config` into a plan (scenario resolution + factory build).
CellPlan plan_cell(const rumor::ExperimentConfig& config, Shadow shadow, const MarkovianLaw& law);

// Per-trial wall-clock split of one traced trial, in seconds.
struct TrialTrace {
  double wall = 0.0;
  double construct = 0.0;      // factory(seed): the family's constructor
  double engine_self = 0.0;    // run_async_jump minus the decorated calls inside it
  double continuation_self = 0.0;  // bound continuation minus its decorated calls
  double layer_calls = 0.0;    // graph_at + profile + shadow replay/check, all calls
  double emit = 0.0;           // emit_trial_json
  std::int64_t emit_bytes = 0;
  std::int64_t rate_rebuilds = 0;
  std::int64_t rate_deltas = 0;
  std::int64_t continuation_steps = 0;
  std::string record;          // the emitted trial record line
  rumor::SpreadResult result;

  double layer_sum() const {
    return construct + engine_self + continuation_self + layer_calls + emit;
  }
};

// Runs trial `trial` of the plan exactly as the runner would (same seeds,
// same engine options, same bound continuation), but with the network
// wrapped in a TracedNetwork and the caller's workspace, and times each part.
TrialTrace traced_trial(const CellPlan& plan, int trial, rumor::EngineWorkspace& workspace,
                        LayerCounters& counters, SpanLog& spans, int parent_span);

// Serve-layer figures of a run (from serve_mix.cpp).
struct ServeFigures {
  double setup_s = 0.0;          // median daemon start + warm-up
  double hit_ms = 0.0;           // mean over rounds of a round's median hit round trip
  double miss_ms = 0.0;          // median over rounds of a round's mean miss round trip
  double requests_per_s = 0.0;
  double direct_trial_s = 0.0;   // mean per-trial wall of direct run_experiment re-runs
  // Traced extras.
  double resolve_ms = 0.0;
  double handle_hit_ms = 0.0;
  double handle_miss_ms = 0.0;
  double transport_ms = 0.0;
  double fingerprint_ms = 0.0;
  double response_bytes = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t admission_waits = 0;
  // Request lines of a sample of simulated cells, for traced replays.
  std::vector<std::string> miss_sample;
};

struct ServeMixOptions {
  int clients = 1;
  int setup_reps = 1;     // daemon set-ups timed; the last one stays up
  int direct_passes = 1;  // direct run_experiment passes over the checked cells
  bool in_process = false;  // timed rounds call handle_request_line, no socket
  std::uint64_t seed = 1;
  std::string socket_path;
  bool trace = false;
};

// The serve mix (serve_mix.cpp): an in-process daemon on a unix socket and
// closed-loop clients running a seeded request script. Construction starts
// and warms the daemon; run_rounds() drives whole client rounds; finish()
// runs the cross checks and returns the figures.
class ServeMix {
 public:
  ServeMix(const ServeMixOptions& options, Report& report);
  ~ServeMix();
  ServeMix(const ServeMix&) = delete;
  ServeMix& operator=(const ServeMix&) = delete;

  // Every client runs whole rounds, in parallel, until `seconds` are spent
  // (at least one round each).
  void run_rounds(double seconds);
  ServeFigures finish(SpanLog& spans);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

// Replays the first `trials_per_cell` trials of each sampled serve cell
// through the traced trial path, adding their layer counters to `counters`;
// returns the traces and, when asked, the cells' median resolution (ms) and
// factory build (s) times.
std::vector<TrialTrace> trace_serve_cells(const std::vector<std::string>& request_lines,
                                          int trials_per_cell, LayerCounters& counters,
                                          SpanLog& spans, double* resolve_ms = nullptr,
                                          double* build_s = nullptr);

int run_sim_workload(const RunArgs& args, Report& report);
int run_serve_workload(const RunArgs& args, Report& report);

// Prints every per-layer metric of a traced run: per main trial, except the
// medians (core.trial_s, graph.build_s, the *_ms figures) and the serve
// counts, which are the run's.
void report_layers(Report& report, const std::vector<TrialTrace>& main_trials,
                   const LayerCounters& counters, double build_s, double resolve_ms,
                   const ServeFigures& serve);

}  // namespace perfbench
