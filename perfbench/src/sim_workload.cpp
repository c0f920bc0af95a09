// The three simulation workloads (em_churn, torus_static, adversary_bounds)
// and the traced trial path.
//
// Untraced run: the fixed trial set is run in whole rounds through
// run_experiment (the entry point rumor_cli uses) until --seconds are spent;
// trial_s is the median sink-to-sink interval. Traced run: the same trials go
// through traced_trial, which replays the runner's per-trial code with a
// decorated network and a caller-owned EngineWorkspace. Both end with a short
// serve tail (serve_mix.cpp) that supplies the serve-side figures.
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>

#include "exec/in_process_backend.h"
#include "scenarios/registry.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Share of the timed phase given to the interleaved serve tail.
constexpr double kTailShare = 0.15;

struct SimSpec {
  std::string scenario;
  std::map<std::string, std::string> overrides;
  bool track_bounds = false;
  int trial_set = 4;       // timed trials per round
  bool lead_trial = false; // round's first trial absorbs the factory's shared build
  int setup_reps = 5;
  Shadow shadow = Shadow::rebuild;
  bool markovian_law = false;
};

SimSpec sim_spec(const std::string& workload) {
  SimSpec s;
  if (workload == "em_churn") {
    s.scenario = "edge_markovian";
    s.overrides = {{"n", "100000"}, {"p", "1.6e-05"}, {"q", "0.2"}};
    s.trial_set = 7;
    s.setup_reps = 9;
    s.shadow = Shadow::delta;
    s.markovian_law = true;
  } else if (workload == "torus_static") {
    s.scenario = "static_torus";
    s.overrides = {{"rows", "1000"}, {"cols", "1000"}};
    s.trial_set = 5;
    s.lead_trial = true;
    s.setup_reps = 5;
  } else if (workload == "adversary_bounds") {
    s.scenario = "diligent_adversary";
    s.overrides = {{"n", "2048"}, {"rho", "0.25"}};
    s.track_bounds = true;
    s.trial_set = 12;
    s.setup_reps = 25;
  } else {
    throw std::invalid_argument("unknown simulation workload '" + workload + "'");
  }
  return s;
}

rumor::ExperimentConfig make_config(const SimSpec& spec, std::uint64_t seed, int trials) {
  rumor::ExperimentConfig config;
  config.scenario = spec.scenario;
  config.param_overrides = spec.overrides;
  config.runner.engine = rumor::EngineKind::async_jump;
  config.runner.protocol = rumor::Protocol::push_pull;
  config.runner.trials = trials;
  config.runner.seed = seed;
  config.runner.threads = 1;
  config.runner.track_bounds = spec.track_bounds;
  return config;
}

MarkovianLaw law_of(const SimSpec& spec) {
  MarkovianLaw law;
  if (!spec.markovian_law) return law;
  law.enabled = true;
  law.n = std::stod(spec.overrides.at("n"));
  law.p = std::stod(spec.overrides.at("p"));
  law.q = std::stod(spec.overrides.at("q"));
  return law;
}

// Output checks every simulated trial must pass.
bool trial_ok(const rumor::SpreadResult& r, std::int64_t n, bool bounds) {
  bool ok = r.completed && r.informed_count == n && r.informative_contacts == n - 1;
  // Theorem 1.1: the spread time never exceeds the bound's crossing step + 1.
  if (bounds) ok = ok && r.theorem11_crossing >= 0 && 
            r.spread_time <= static_cast<double>(r.theorem11_crossing) + 1.0;
  return ok;
}

std::string trial_line(const rumor::ExperimentResult& partial, int trial,
                       const rumor::SpreadResult& r) {
  std::ostringstream os;
  rumor::emit_trial_json(os, partial, trial, r);
  return os.str();
}

struct Setup {
  double setup_s = 0.0;
  double build_s = 0.0;     // median make_factory (the shared CSR for torus)
  double resolve_ms = 0.0;  // median scenario resolution
  std::int64_t n = 0;
};

// Scenario resolution + factory build + the first trial's network, repeated;
// medians, so one page-fault storm cannot move the figure.
Setup measure_setup(const SimSpec& spec, std::uint64_t seed) {
  std::vector<double> total, build, resolve;
  Setup out;
  const std::uint64_t net_seed = rumor::trial_seeds(seed, 0).first;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    const double t0 = now_s();
    const rumor::ScenarioSpec& scenario = rumor::require_scenario(spec.scenario);
    const rumor::ScenarioParams params = rumor::ScenarioParams::resolve(scenario, spec.overrides);
    const double t1 = now_s();
    const rumor::NetworkFactory factory = scenario.make_factory(params);
    const double t2 = now_s();
    const std::unique_ptr<rumor::DynamicNetwork> net = factory(net_seed);
    const double t3 = now_s();
    out.n = net->node_count();
    total.push_back(t3 - t0);
    build.push_back(t2 - t1);
    resolve.push_back(1e3 * (t1 - t0));
  }
  out.setup_s = median(total);
  out.build_s = median(build);
  out.resolve_ms = median(resolve);
  return out;
}

// Rounds of the fixed trial set through run_experiment; returns the timed
// per-trial intervals and fills `records` with the first round's lines.
std::vector<double> timed_rounds(const SimSpec& spec, const RunArgs& args, std::int64_t n,
                                 Report& report, std::vector<std::string>& records,
                                 std::vector<rumor::SpreadResult>& results,
                                 const std::function<void()>& between_trials) {
  const int first_timed = spec.lead_trial ? 1 : 0;
  rumor::ExperimentConfig config = make_config(spec, args.seed, spec.trial_set + first_timed);
  config.runner.chunk_trials = 1;  // the sink fires after every trial (records are invariant)

  std::vector<double> samples;
  const double start = now_s();
  double last_round = 0.0;
  int round = 0;
  while (round == 0 || now_s() - start + last_round <= args.seconds) {
    const double round_start = now_s();
    double mark = round_start;
    std::vector<std::string> lines;
    const rumor::TrialSink sink = [&](const rumor::ExperimentResult& partial, int trial,
                                      const rumor::SpreadResult& r) {
      const double t = now_s();
      if (trial >= first_timed) samples.push_back(t - mark);
      std::string line = trial_line(partial, trial, r);
      bool ok = trial_ok(r, n, spec.track_bounds);
      if (round == 0) {
        results.push_back(r);
      } else {
        ok = ok && line == records[static_cast<std::size_t>(trial)];  // rounds repeat exactly
      }
      lines.push_back(std::move(line));
      report.operation(ok);
      between_trials();
      mark = now_s();
    };
    rumor::run_experiment(config, sink);
    if (round == 0) records = lines;
    last_round = now_s() - round_start;
    ++round;
  }
  return samples;
}

// A sample of the trial set re-run at threads 2 must give identical records.
void check_threads(const SimSpec& spec, const RunArgs& args,
                   const std::vector<std::string>& records, Report& report) {
  const int trials = std::min<int>(2, static_cast<int>(records.size()));
  rumor::ExperimentConfig config = make_config(spec, args.seed, trials);
  config.runner.threads = 2;
  std::vector<std::string> lines;
  rumor::run_experiment(config, [&](const rumor::ExperimentResult& partial, int trial,
                                     const rumor::SpreadResult& r) {
    lines.push_back(trial_line(partial, trial, r));
  });
  for (int i = 0; i < trials; ++i) {
    report.check(lines[static_cast<std::size_t>(i)] == records[static_cast<std::size_t>(i)],
                 spec.scenario + ": trial " + std::to_string(i) +
                     " differs between threads 1 and threads 2");
  }
}

// Theorem 1.2: the adaptive adversary forces mean spread time >= 0.5·n/(4kΔ).
void check_adversary_law(const SimSpec& spec, const std::vector<rumor::SpreadResult>& results,
                         Report& report) {
  if (spec.scenario != "diligent_adversary" || results.empty()) return;
  const double bound =
      theorem12_mean_floor(std::stod(spec.overrides.at("n")), std::stod(spec.overrides.at("rho")));
  double mean = 0.0;
  for (const rumor::SpreadResult& r : results) mean += r.spread_time;
  mean /= static_cast<double>(results.size());
  report.check(mean >= bound, "adversary mean spread time " + std::to_string(mean) +
                                  " below 0.5·n/(4kΔ) = " + std::to_string(bound));
}

void check_shadow(const std::string& what, const LayerCounters& counters, Report& report) {
  report.check(counters.shadow_mismatches == 0,
               what + ": shadow TopologyBuilder replay differs from the family's snapshot (" +
                   std::to_string(counters.shadow_mismatches) + " snapshots)");
  report.check(counters.law_violations == 0,
               what + ": edge count or deaths outside 6σ of the edge-Markovian law (" +
                   std::to_string(counters.law_violations) + " steps)");
}

}  // namespace

double theorem12_mean_floor(double n, double rho) {
  // The paper's k(n) = round(ln n / ln ln n) (at least 1), computed here apart
  // from the family's own default_layer_count.
  const double ln_n = std::log(n);
  const int k =
      std::max(1, static_cast<int>(std::lround(ln_n / std::log(std::max(std::exp(1.0), ln_n)))));
  return 0.5 * n / (4.0 * k * std::ceil(1.0 / rho));
}

CellPlan plan_cell(const rumor::ExperimentConfig& config, Shadow shadow, const MarkovianLaw& law) {
  CellPlan plan;
  const double t0 = now_s();
  const rumor::ScenarioSpec& spec = rumor::require_scenario(config.scenario);
  const rumor::ScenarioParams params = rumor::ScenarioParams::resolve(spec, config.param_overrides);
  const double t1 = now_s();
  plan.label.spec = &spec;
  plan.label.params = params.items();
  plan.label.runner = config.runner;
  plan.factory = spec.make_factory(params);
  plan.resolve_s = t1 - t0;
  plan.build_s = now_s() - t1;
  plan.runner = config.runner;
  plan.shadow = shadow;
  plan.law = law;
  return plan;
}

TrialTrace traced_trial(const CellPlan& plan, int trial, rumor::EngineWorkspace& workspace,
                        LayerCounters& counters, SpanLog& spans, int parent_span) {
  TrialTrace out;
  const rumor::RunnerOptions& options = plan.runner;
  const auto [net_seed, engine_seed] = rumor::trial_seeds(options.seed, trial);
  const auto calls = [&counters] {
    return counters.graph_at_s + counters.profile_s + counters.apply_delta_s +
           counters.rebuild_s + counters.shadow_check_s;
  };

  const double t0 = now_s();
  const int trial_span = spans.begin("trial", parent_span, trial);
  const int construct_span = spans.begin("construct", trial_span, trial);
  std::unique_ptr<rumor::DynamicNetwork> inner = plan.factory(net_seed);
  spans.end(construct_span);
  const double t1 = now_s();
  out.construct = t1 - t0;

  TracedNetwork net(std::move(inner), plan.shadow, plan.law, counters);
  rumor::Rng rng(engine_seed);
  const rumor::NodeId source = options.source >= 0 ? options.source : net.suggested_source();
  std::unique_ptr<rumor::BoundTracker> tracker;
  if (options.track_bounds) {
    tracker = std::make_unique<rumor::BoundTracker>(net.node_count(), options.bound_c);
  }
  rumor::AsyncOptions async;
  async.protocol = options.protocol;
  async.clock_rate = options.clock_rate;
  async.time_limit = options.time_limit;
  async.bound_tracker = tracker.get();
  async.transmission_failure_prob = options.transmission_failure_prob;
  async.workspace = &workspace;

  const int engine_span = spans.begin("engine", trial_span, trial);
  net.set_spans(spans.enabled() ? &spans : nullptr, engine_span, trial);
  const double calls_before = calls();
  const double e0 = now_s();
  out.result = rumor::run_async_jump(net, source, rng, async);
  const double e1 = now_s();
  spans.end(engine_span);
  const double engine_calls = calls() - calls_before;
  out.engine_self = (e1 - e0) - engine_calls;
  out.rate_rebuilds = workspace.rate_model.full_rebuilds();
  out.rate_deltas = workspace.rate_model.delta_updates();

  // The runner's bound continuation (exec/in_process_backend.cpp), stepped
  // here so its graph_at/profile calls go through the decorator too.
  double continuation_calls = 0.0;
  double continuation_wall = 0.0;
  if (tracker != nullptr && out.result.completed &&
      (tracker->theorem11_crossing() < 0 || tracker->theorem13_crossing() < 0)) {
    net.set_spans(nullptr, -1, trial);
    const int span = spans.begin("continuation", trial_span, trial);
    const double before = calls();
    const double c0 = now_s();
    const rumor::NodeId n = net.node_count();
    std::vector<std::uint8_t> all(static_cast<std::size_t>(n), 1);
    std::int64_t count = n;
    const rumor::InformedView done(&all, &count);
    std::int64_t t = tracker->steps();
    const std::int64_t cap = t + options.bound_continuation_cap;
    const std::int64_t first = t;
    while ((tracker->theorem11_crossing() < 0 || tracker->theorem13_crossing() < 0) &&
           t < cap) {
      net.graph_at(t, done);
      tracker->on_step(net.current_profile());
      ++t;
    }
    out.result.theorem11_crossing = tracker->theorem11_crossing();
    out.result.theorem13_crossing = tracker->theorem13_crossing();
    out.continuation_steps = t - first;
    continuation_wall = now_s() - c0;
    continuation_calls = calls() - before;
    spans.end(span);
  }
  out.continuation_self = continuation_wall - continuation_calls;
  out.layer_calls = engine_calls + continuation_calls;

  const int emit_span = spans.begin("emit", trial_span, trial);
  const double m0 = now_s();
  out.record = trial_line(plan.label, trial, out.result);
  out.emit = now_s() - m0;
  out.emit_bytes = static_cast<std::int64_t>(out.record.size());
  spans.end(emit_span);
  spans.end(trial_span);
  out.wall = now_s() - t0;
  return out;
}

void report_layers(Report& report, const std::vector<TrialTrace>& main_trials,
                   const LayerCounters& c, double build_s, double resolve_ms,
                   const ServeFigures& serve) {
  const double trials = static_cast<double>(std::max<std::size_t>(1, main_trials.size()));
  std::vector<double> walls;
  double engine = 0.0, construct = 0.0, continuation = 0.0, emit = 0.0, emit_bytes = 0.0;
  double rebuilds = 0.0, deltas = 0.0, steps = 0.0, events = 0.0, gap = 0.0;
  const auto add = [&](const TrialTrace& t) {
    engine += t.engine_self;
    construct += t.construct;
    continuation += t.continuation_self;
    emit += t.emit;
    emit_bytes += static_cast<double>(t.emit_bytes);
    rebuilds += static_cast<double>(t.rate_rebuilds);
    deltas += static_cast<double>(t.rate_deltas);
    steps += static_cast<double>(t.continuation_steps);
    events += static_cast<double>(t.result.informative_contacts);
  };
  for (const TrialTrace& t : main_trials) {
    add(t);
    walls.push_back(t.wall);
    gap = std::max(gap, std::abs(t.layer_sum() - t.wall) / t.wall);
  }

  report.metric("core.trial_s", median(walls), "s");
  report.metric("core.engine_s", engine / trials, "s");
  report.metric("core.events_per_s", engine > 0.0 ? events / engine : 0.0, "1/s");
  report.metric("core.change_points", static_cast<double>(c.change_points) / trials, "count");
  report.metric("core.rate_rebuilds", rebuilds / trials, "count");
  report.metric("core.rate_deltas", deltas / trials, "count");
  report.metric("core.delta_share", deltas + rebuilds > 0.0 ? deltas / (deltas + rebuilds) : 0.0,
                "ratio");
  report.metric("core.layer_sum_gap", gap, "ratio");
  report.metric("dynamic.construct_s", construct / trials, "s");
  report.metric("dynamic.graph_at_s", c.graph_at_s / trials, "s");
  report.metric("dynamic.evolve_s", (c.graph_at_s - c.apply_delta_s) / trials, "s");
  report.metric("dynamic.steps", static_cast<double>(c.steps) / trials, "count");
  report.metric("dynamic.churn_edges", static_cast<double>(c.churn_edges) / trials, "count");
  report.metric("graph.build_s", build_s, "s");
  report.metric("graph.apply_delta_s", c.apply_delta_s / trials, "s");
  report.metric("graph.rebuild_s", c.rebuild_s / trials, "s");
  report.metric("graph.edges",
                c.snapshots > 0 ? static_cast<double>(c.snapshot_edges) /
                                      static_cast<double>(c.snapshots)
                                : 0.0,
                "count");
  report.metric("bounds.profile_calls", static_cast<double>(c.profile_calls) / trials, "count");
  report.metric("bounds.profile_s", c.profile_s / trials, "s");
  report.metric("bounds.continuation_steps", steps / trials, "count");
  report.metric("bounds.continuation_s", continuation / trials, "s");
  report.metric("scenarios.resolve_ms", resolve_ms, "ms");
  report.metric("scenarios.emit_s", emit / trials, "s");
  report.metric("scenarios.emit_bytes", emit_bytes / trials, "bytes");
  report.metric("serve.resolve_ms", serve.resolve_ms, "ms");
  report.metric("serve.handle_hit_ms", serve.handle_hit_ms, "ms");
  report.metric("serve.handle_miss_ms", serve.handle_miss_ms, "ms");
  report.metric("serve.transport_ms", serve.transport_ms, "ms");
  report.metric("serve.cache_hits", static_cast<double>(serve.cache_hits), "count");
  report.metric("serve.cache_misses", static_cast<double>(serve.cache_misses), "count");
  const double lookups = static_cast<double>(serve.cache_hits + serve.cache_misses);
  report.metric("serve.hit_share",
                lookups > 0.0 ? static_cast<double>(serve.cache_hits) / lookups : 0.0, "ratio");
  report.metric("serve.admission_waits", static_cast<double>(serve.admission_waits), "count");
  report.metric("serve.response_bytes", serve.response_bytes, "bytes");
  report.metric("repro.fingerprint_ms", serve.fingerprint_ms, "ms");
}

int run_sim_workload(const RunArgs& args, Report& report) {
  const SimSpec spec = sim_spec(args.workload);
  SpanLog spans(args.trace);

  // The serve tail calls the daemon in process: its figures are the serve
  // layer's own work, not socket wake-ups on an otherwise idle machine, which
  // serve_mixed measures. The daemon starts before pinning, so its threads
  // keep the full CPU set; the workload's own thread is then pinned.
  ServeMixOptions tail_options;
  tail_options.in_process = true;
  tail_options.seed = args.seed;
  tail_options.socket_path = args.socket_path;
  tail_options.trace = args.trace;
  ServeMix tail(tail_options, report);
  // Tail rounds are interleaved with the trials (between them, untimed), so
  // the serve figures sample the whole run rather than one short window.
  double tail_s = 0.0;
  double phase_start = 0.0;  // set when the timed phase begins
  const std::function<void()> tail_catch_up = [&] {
    while (tail_s < kTailShare * (now_s() - phase_start - tail_s)) {
      const double t0 = now_s();
      tail.run_rounds(0.0);
      tail_s += now_s() - t0;
    }
  };

  const int cpu = pin_to_one_cpu();
  std::cerr << "perfbench: " << args.workload << " pinned to cpu " << cpu << "\n";
  const Setup setup = measure_setup(spec, args.seed);
  const std::int64_t n = setup.n;

  if (!args.trace) {
    // Warm-up: one trial through the same entry point, untimed.
    rumor::run_experiment(make_config(spec, args.seed, 1));
    std::vector<std::string> records;
    std::vector<rumor::SpreadResult> results;
    phase_start = now_s();
    const std::vector<double> samples =
        timed_rounds(spec, args, n, report, records, results, tail_catch_up);
    // The workload's own footprint: taken before the checks below, whose
    // threads-2 re-run and shadow builder are not part of the workload.
    const double rss_mb = peak_rss_mb();
    unpin();
    check_threads(spec, args, records, report);
    check_adversary_law(spec, results, report);
    if (spec.shadow == Shadow::delta) {
      // The shadow-replay check needs the decorator; one trial, untimed.
      LayerCounters counters;
      rumor::EngineWorkspace workspace;
      const CellPlan plan = plan_cell(make_config(spec, args.seed, 1), spec.shadow, law_of(spec));
      const TrialTrace t = traced_trial(plan, 0, workspace, counters, spans, -1);
      report.operation(trial_ok(t.result, n, spec.track_bounds) && t.record == records[0]);
      check_shadow(args.workload, counters, report);
    }
    const ServeFigures serve = tail.finish(spans);
    report.metric("trial_s", median(samples), "s");
    report.metric("setup_s", setup.setup_s, "s");
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.metric("hit_ms", serve.hit_ms, "ms");
    report.metric("miss_ms", serve.miss_ms, "ms");
    report.metric("requests_per_s", serve.requests_per_s, "1/s");
    std::cerr << "perfbench: " << args.workload << " timed " << samples.size()
              << " trials; peak RSS " << rss_mb << " MB after them, " << peak_rss_mb()
              << " MB at the end\n";
    return 0;
  }

  // Traced run: the same trial set, rounds and checks, through the decorator.
  const int first_timed = spec.lead_trial ? 1 : 0;
  const CellPlan plan = plan_cell(make_config(spec, args.seed, spec.trial_set + first_timed),
                                  spec.shadow, law_of(spec));
  rumor::EngineWorkspace workspace;  // caller-owned: its RateModel's counters are read per trial
  {
    LayerCounters warm;
    SpanLog off(false);
    traced_trial(plan, 0, workspace, warm, off, -1);
  }
  LayerCounters counters;
  std::vector<TrialTrace> main_trials;
  std::vector<rumor::SpreadResult> results;
  std::vector<std::string> first_round;
  const double start = now_s();
  phase_start = start;
  double last_round = 0.0;
  for (int round = 0; round == 0 || now_s() - start + last_round <= args.seconds; ++round) {
    const double round_start = now_s();
    const int round_span = spans.begin("round", -1, round);
    for (int trial = first_timed; trial < spec.trial_set + first_timed; ++trial) {
      TrialTrace t = traced_trial(plan, trial, workspace, counters, spans, round_span);
      bool ok = trial_ok(t.result, n, spec.track_bounds);
      if (round == 0) {
        first_round.push_back(t.record);
        results.push_back(t.result);
      } else {
        ok = ok && t.record == first_round[static_cast<std::size_t>(trial - first_timed)];
      }
      report.operation(ok);
      t.result.informed_flags.clear();
      main_trials.push_back(std::move(t));
      tail_catch_up();
    }
    spans.end(round_span);
    last_round = now_s() - round_start;
  }
  unpin();
  check_shadow(args.workload, counters, report);
  check_adversary_law(spec, results, report);
  {
    // The decorator must be transparent: records equal run_experiment's.
    const int trials = std::min(2, spec.trial_set);
    std::vector<std::string> reference;
    rumor::run_experiment(make_config(spec, args.seed, trials + first_timed),
                          [&](const rumor::ExperimentResult& partial, int trial,
                              const rumor::SpreadResult& r) {
                            if (trial >= first_timed) reference.push_back(trial_line(partial, trial, r));
                          });
    for (int i = 0; i < trials; ++i) {
      report.check(reference[static_cast<std::size_t>(i)] == first_round[static_cast<std::size_t>(i)],
                   args.workload + ": traced trial record differs from run_experiment's");
    }
  }
  for (const TrialTrace& t : main_trials) {
    report.check(std::abs(t.layer_sum() - t.wall) <= 0.05 * t.wall,
                 args.workload + ": layer times miss the trial wall time by more than 5%");
  }

  // Where the main trials' time went, as shares of the trial wall less the
  // benchmark's own shadow replays and checks (the untraced trial's shape).
  double wall = 0.0, engine = 0.0;
  for (const TrialTrace& t : main_trials) {
    wall += t.wall;
    engine += t.engine_self;
  }
  wall -= counters.apply_delta_s + counters.rebuild_s + counters.shadow_check_s;
  std::cerr << "perfbench: " << args.workload << " traced " << main_trials.size()
            << " trials; shares of the replay-free trial wall: graph_at "
            << counters.graph_at_s / wall << ", engine " << engine / wall << ", profile "
            << counters.profile_s / wall << "\n";

  const ServeFigures serve = tail.finish(spans);
  report_layers(report, main_trials, counters, setup.build_s, setup.resolve_ms, serve);
  if (!args.spans_path.empty()) spans.write(args.spans_path);
  return 0;
}

}  // namespace perfbench
