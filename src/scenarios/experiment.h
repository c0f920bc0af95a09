// Experiment driver over the scenario registry: the library half of
// `rumor_cli`, shared with the tests so CLI output provably matches direct
// library calls.
//
// run_experiment resolves a scenario's parameters, builds its NetworkFactory,
// and hands it to core/runner's run_trials; the emit_* functions render one
// run as human tables, JSON lines (one record per trial plus a summary record
// carrying the full reproducibility manifest), or CSV rows. A (scenario,
// params, engine, protocol, seed) tuple fully determines every emitted
// statistic; wall-clock timing is the only nondeterministic field.
#pragma once

#include <iosfwd>
#include <map>
#include <string>

#include "scenarios/registry.h"

namespace rumor {

class JsonWriter;

struct ExperimentConfig {
  std::string scenario;
  std::map<std::string, std::string> param_overrides;
  RunnerOptions runner;  // engine, protocol, trials, seed, threads, shards, bounds, failure

  // Path of the binary to re-invoke in hidden worker mode when
  // runner.shards >= 2 selects the sharded backend (rumor_cli passes its own
  // path). run_experiment composes the full worker command from it — the
  // resolved scenario, every runner option, and the worker subcommand — so a
  // worker reproduces exactly its slice of this experiment.
  std::string worker_binary;
};

struct ExperimentResult {
  const ScenarioSpec* spec = nullptr;
  std::vector<std::pair<std::string, std::string>> params;  // resolved, schema order
  RunnerOptions runner;                                     // options actually used
  RunnerReport report;
  double elapsed_seconds = 0.0;
};

// Per-trial streaming observer: invoked in trial order while the trials run,
// with the partially filled result (spec/params/runner valid, report not yet)
// for labelling. Wired to RunnerOptions::trial_sink, so at most one chunk of
// SpreadResults is ever resident — the memory contract that lets `rumor_cli
// --json` stream million-node sweeps.
using TrialSink =
    std::function<void(const ExperimentResult& partial, int trial, const SpreadResult& r)>;

// Resolves + validates the scenario and runs the trials. Runner options are
// forwarded verbatim; callers that want per-trial records pass a sink.
ExperimentResult run_experiment(const ExperimentConfig& config, const TrialSink& sink = {});

// Engine/protocol names as used on the command line (accepts '-' and '_'
// interchangeably); throws std::invalid_argument with the valid names.
EngineKind parse_engine(const std::string& name);
Protocol parse_protocol(const std::string& name);

// --- Output rendering -------------------------------------------------------

// The reproducibility manifest written into every JSON summary record:
// scenario + resolved params, engine, protocol, trials, seed, the full
// execution topology (threads, chunk_trials, backend, shards, and the worker
// command line when sharded — all record-invariant by the determinism
// contract), bound tracking, failure probability, and the build identifier
// handed in by the binary (git describe) — everything needed to reproduce
// the run bit-for-bit — plus memory telemetry (peak_rss_mb, and
// worker_peak_rss_mb for sharded runs), which like wall-clock timing is
// reported, not reproduced.
void write_manifest(JsonWriter& json, const ExperimentResult& result,
                    const std::string& build_info);

// One {"record":"trial",...} line; the per-record form the streaming drivers
// call from a TrialSink.
void emit_trial_json(std::ostream& os, const ExperimentResult& result, int trial,
                     const SpreadResult& r);

// One {"record":"summary",...} line with the manifest and aggregates.
void emit_summary_json(std::ostream& os, const ExperimentResult& result,
                       const std::string& build_info);

// CSV: a header (sweep drivers emit it once across cells) plus one row per
// trial, written from a TrialSink.
void emit_csv_header(std::ostream& os);
void emit_trial_csv(std::ostream& os, const ExperimentResult& result, int trial,
                    const SpreadResult& r);

// Human-readable summary table (the default `rumor_cli run` output).
void emit_text(std::ostream& os, const ExperimentResult& result);

}  // namespace rumor
