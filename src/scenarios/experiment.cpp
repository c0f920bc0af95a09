#include "scenarios/experiment.h"

#include <ostream>

#include "exec/execution_backend.h"
#include "support/contracts.h"
#include "support/json.h"
#include "support/resource.h"
#include "support/table.h"
#include "support/timer.h"

namespace rumor {

namespace {

std::string canonical(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '-') c = '_';
  }
  return out;
}

// Aggregate statistics of one SampleSet as a JSON object (null when empty so
// consumers need no sentinel conventions).
void write_sample_stats(JsonWriter& json, const std::string& key, const SampleSet& s) {
  json.key(key);
  if (s.empty()) {
    json.null();
    return;
  }
  json.begin_object()
      .field("count", static_cast<std::int64_t>(s.count()))
      .field("mean", s.mean())
      .field("stddev", s.stddev())
      .field("min", s.min())
      .field("median", s.median())
      .field("max", s.max())
      .end_object();
}

// Base command line of a shard worker: the binary re-invoked in hidden
// worker mode with the resolved scenario and every record-affecting runner
// option spelled out (numeric values via json_number, which round-trips
// doubles exactly). The sharded backend appends each shard's
// `--trial-offset/--trials/--threads`.
std::vector<std::string> make_worker_argv(const std::string& binary,
                                          const ScenarioSpec& spec,
                                          const ScenarioParams& params,
                                          const RunnerOptions& opt) {
  std::vector<std::string> argv = {binary, "worker", "--scenario", spec.name};
  for (const auto& [name, value] : params.items()) {
    argv.push_back("--" + name);
    argv.push_back(value);
  }
  argv.insert(argv.end(), {"--engine", to_string(opt.engine),
                           "--protocol", to_string(opt.protocol),
                           "--seed", std::to_string(opt.seed),
                           "--clock-rate", json_number(opt.clock_rate),
                           "--time-limit", json_number(opt.time_limit),
                           "--round-limit", std::to_string(opt.round_limit),
                           "--source", std::to_string(opt.source),
                           "--failure", json_number(opt.transmission_failure_prob),
                           "--bound-cap", std::to_string(opt.bound_continuation_cap),
                           "--chunk", std::to_string(opt.chunk_trials)});
  if (opt.track_bounds) {
    argv.push_back("--bounds");
    argv.push_back(json_number(opt.bound_c));
  }
  return argv;
}

std::string join_argv(const std::vector<std::string>& argv) {
  std::string out;
  for (const std::string& arg : argv) {
    if (!out.empty()) out += ' ';
    out += arg;
  }
  return out;
}

}  // namespace

EngineKind parse_engine(const std::string& name) {
  const std::string c = canonical(name);
  if (c == "async_jump") return EngineKind::async_jump;
  if (c == "async_tick") return EngineKind::async_tick;
  if (c == "sync" || c == "sync_rounds") return EngineKind::sync_rounds;
  if (c == "flooding") return EngineKind::flooding;
  DG_REQUIRE(false, "unknown engine '" + name +
                        "' (known: async_jump, async_tick, sync, flooding)");
  return EngineKind::async_jump;
}

Protocol parse_protocol(const std::string& name) {
  const std::string c = canonical(name);
  if (c == "push") return Protocol::push;
  if (c == "pull") return Protocol::pull;
  if (c == "push_pull") return Protocol::push_pull;
  DG_REQUIRE(false, "unknown protocol '" + name + "' (known: push, pull, push_pull)");
  return Protocol::push_pull;
}

ExperimentResult run_experiment(const ExperimentConfig& config, const TrialSink& sink) {
  const ScenarioSpec& spec = require_scenario(config.scenario);
  const ScenarioParams params = ScenarioParams::resolve(spec, config.param_overrides);

  ExperimentResult result;
  result.spec = &spec;
  result.params = params.items();

  RunnerOptions options = config.runner;
  // shards >= 2 selects the sharded multi-process backend
  // (exec/sharded_backend.h): compose the worker command that replays this
  // exact experiment per shard. Library callers without a worker binary get
  // a clear error instead of a silent in-process fallback.
  if (options.shards >= 2) {
    DG_REQUIRE(!config.worker_binary.empty(),
               "sharded execution (shards=" + std::to_string(options.shards) +
                   ") needs ExperimentConfig::worker_binary — the rumor_cli path to "
                   "re-invoke in worker mode");
    options.worker_argv = make_worker_argv(config.worker_binary, spec, params, options);
  }
  result.runner = options;  // the options actually used, worker command included

  // The sink observes results as chunks complete, labelled with the resolved
  // spec/params already present in `result`.
  if (sink) {
    options.trial_sink = [&result, &sink](int trial, const SpreadResult& r) {
      sink(result, trial, r);
    };
  }

  // The timer covers factory creation too: shared-static factories build
  // their one Graph snapshot up front, and that cost belongs in the recorded
  // elapsed_seconds (BENCH snapshots compare builds against each other).
  // Sharded runs skip it — each worker builds its own factory, and the
  // coordinator holding an unused million-node snapshot would defeat the
  // per-process memory win that sharding exists for.
  Timer timer;
  const NetworkFactory factory =
      options.shards >= 2 ? NetworkFactory() : spec.make_factory(params);
  result.report = run_trials(factory, options);
  result.elapsed_seconds = timer.seconds();
  return result;
}

void write_manifest(JsonWriter& json, const ExperimentResult& result,
                    const std::string& build_info) {
  const RunnerOptions& opt = result.runner;
  json.begin_object();
  json.field("scenario", result.spec->name);
  json.key("params").begin_object();
  for (const auto& [name, value] : result.params) json.field(name, value);
  json.end_object();
  json.field("engine", to_string(opt.engine));
  json.field("protocol", to_string(opt.protocol));
  json.field("trials", opt.trials);
  json.field("seed", opt.seed);
  // The execution topology, in full. Per-trial records are invariant to
  // every one of these (the determinism contract); they are recorded so a
  // run's placement is reproducible too, not because the records need it.
  json.field("threads", opt.threads);
  json.field("chunk_trials", opt.chunk_trials);
  json.field("backend", backend_name(opt));
  json.field("shards", opt.shards);
  if (!opt.worker_argv.empty()) {
    json.field("worker_cmd", join_argv(opt.worker_argv));
  }
  json.field("clock_rate", opt.clock_rate);
  json.field("time_limit", opt.time_limit);
  json.field("round_limit", opt.round_limit);
  json.field("track_bounds", opt.track_bounds);
  json.field("bound_c", opt.bound_c);
  json.field("bound_continuation_cap", opt.bound_continuation_cap);
  json.field("transmission_failure_prob", opt.transmission_failure_prob);
  json.field("source", static_cast<std::int64_t>(opt.source));
  json.field("build", build_info);
  json.field("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));
  if (result.report.max_worker_rss_mb > 0.0) {
    json.field("worker_peak_rss_mb", result.report.max_worker_rss_mb);
  }
  json.end_object();
}

void emit_trial_json(std::ostream& os, const ExperimentResult& result, int trial,
                     const SpreadResult& r) {
  JsonWriter json(os);
  json.begin_object()
      .field("record", "trial")
      .field("scenario", result.spec->name)
      .field("trial", static_cast<std::int64_t>(trial))
      .field("completed", r.completed)
      .field("spread_time", r.spread_time)
      .field("informed_count", r.informed_count)
      .field("informative_contacts", r.informative_contacts)
      .field("total_contacts", r.total_contacts)
      .field("graph_changes", r.graph_changes)
      .field("theorem11_crossing", r.theorem11_crossing)
      .field("theorem13_crossing", r.theorem13_crossing)
      .end_object();
  os << '\n';
}

void emit_summary_json(std::ostream& os, const ExperimentResult& result,
                       const std::string& build_info) {
  JsonWriter json(os);
  json.begin_object().field("record", "summary");
  json.key("manifest");
  write_manifest(json, result, build_info);
  json.field("completed", result.report.completed);
  json.field("completion_rate", result.report.completion_rate());
  write_sample_stats(json, "spread_time", result.report.spread_time);
  write_sample_stats(json, "informative_contacts", result.report.informative_contacts);
  write_sample_stats(json, "theorem11_crossing", result.report.theorem11_crossing);
  write_sample_stats(json, "theorem13_crossing", result.report.theorem13_crossing);
  json.field("elapsed_seconds", result.elapsed_seconds);
  json.end_object();
  os << '\n';
}

void emit_csv_header(std::ostream& os) {
  os << "scenario,params,engine,protocol,seed,trial,completed,spread_time,"
        "informative_contacts,total_contacts,graph_changes,"
        "theorem11_crossing,theorem13_crossing\n";
}

void emit_trial_csv(std::ostream& os, const ExperimentResult& result, int trial,
                    const SpreadResult& r) {
  // Resolved parameters as one semicolon-joined cell (comma-free by
  // construction), so sweep rows from different grid cells stay
  // distinguishable.
  std::string params;
  for (const auto& [name, value] : result.params) {
    if (!params.empty()) params += ';';
    params += name + "=" + value;
  }
  os << result.spec->name << ',' << params << ',' << to_string(result.runner.engine) << ','
     << to_string(result.runner.protocol) << ',' << result.runner.seed << ',' << trial << ','
     << (r.completed ? 1 : 0) << ',' << json_number(r.spread_time) << ','
     << r.informative_contacts << ',' << r.total_contacts << ',' << r.graph_changes << ','
     << r.theorem11_crossing << ',' << r.theorem13_crossing << '\n';
}

void emit_text(std::ostream& os, const ExperimentResult& result) {
  os << "scenario  " << result.spec->name << "  (" << result.spec->paper_anchor << ")\n";
  os << "params    ";
  for (std::size_t i = 0; i < result.params.size(); ++i) {
    if (i > 0) os << "  ";
    os << result.params[i].first << "=" << result.params[i].second;
  }
  os << "\nengine    " << to_string(result.runner.engine) << "  protocol "
     << to_string(result.runner.protocol) << "  trials " << result.runner.trials << "  seed "
     << result.runner.seed << "  threads " << result.runner.threads << "\n\n";

  Table table({"metric", "count", "mean", "stddev", "min", "median", "max"});
  const std::pair<const char*, const SampleSet*> rows[] = {
      {"spread_time", &result.report.spread_time},
      {"informative_contacts", &result.report.informative_contacts},
      {"theorem11_crossing", &result.report.theorem11_crossing},
      {"theorem13_crossing", &result.report.theorem13_crossing},
  };
  for (const auto& [label, set] : rows) {
    if (set->empty()) continue;
    table.add_row({label, Table::cell(set->count()), Table::cell(set->mean()),
                   Table::cell(set->stddev()), Table::cell(set->min()),
                   Table::cell(set->median()), Table::cell(set->max())});
  }
  table.print(os);
  os << "\ncompleted " << result.report.completed << "/" << result.report.trials << " in "
     << json_number(result.elapsed_seconds) << "s\n";
}

}  // namespace rumor
