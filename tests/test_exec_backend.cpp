// Tests for the execution layer (src/exec/): backend selection, the
// counter-based trial_offset contract that makes shard placement invisible,
// the sharded coordinator's in-order merge, and its worker-failure handling
// (a dead or truncated worker must surface a clear error naming the failing
// trial range — never a hang or a silently shortened report). Worker
// subprocesses here are /bin/sh fakes speaking the shard protocol; the
// end-to-end path through a real `rumor_cli worker` is covered by
// scripts/check_shard_identity.sh and the shard axis of
// scripts/check_thread_identity.sh.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/execution_backend.h"
#include "exec/in_process_backend.h"
#include "exec/sharded_backend.h"
#include "graph/builders.h"
#include "dynamic/simple_networks.h"
#include "scenarios/experiment.h"
#include "support/json.h"
#include "support/jsonl.h"
#include "support/subprocess.h"

namespace rumor {
namespace {

NetworkFactory clique_factory(NodeId n) {
  return [n](std::uint64_t) { return std::make_unique<StaticNetwork>(make_clique(n)); };
}

// --- plan_shards ------------------------------------------------------------

TEST(PlanShards, BalancedContiguousPartition) {
  const auto plan = plan_shards(/*trials=*/10, /*shards=*/3, /*trial_offset=*/0);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].begin, 0);
  EXPECT_EQ(plan[0].count, 4);  // 10 % 3 extra trial goes to the first shard
  EXPECT_EQ(plan[1].begin, 4);
  EXPECT_EQ(plan[1].count, 3);
  EXPECT_EQ(plan[2].begin, 7);
  EXPECT_EQ(plan[2].count, 3);
}

TEST(PlanShards, ClampsShardsToTrials) {
  const auto plan = plan_shards(/*trials=*/2, /*shards=*/8, /*trial_offset=*/5);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].begin, 5);
  EXPECT_EQ(plan[0].count, 1);
  EXPECT_EQ(plan[1].begin, 6);
  EXPECT_EQ(plan[1].count, 1);
}

TEST(PlanShards, CoversRangeExactlyForAllShapes) {
  for (int trials : {1, 2, 7, 64, 100}) {
    for (int shards : {1, 2, 3, 5, 16}) {
      const auto plan = plan_shards(trials, shards, 3);
      int next = 3, total = 0;
      for (const ShardRange& r : plan) {
        EXPECT_EQ(r.begin, next);
        EXPECT_GT(r.count, 0);
        next += r.count;
        total += r.count;
      }
      EXPECT_EQ(total, trials);
    }
  }
}

// --- backend selection ------------------------------------------------------

TEST(BackendSelection, ShardsAndWorkerCommandSelectSharded) {
  RunnerOptions opt;
  EXPECT_EQ(backend_name(opt), "in-process");
  EXPECT_EQ(make_backend(opt)->name(), "in-process");
  opt.shards = 4;  // no worker command: still in-process
  EXPECT_EQ(backend_name(opt), "in-process");
  opt.worker_argv = {"/bin/true"};
  EXPECT_EQ(backend_name(opt), "sharded");
  EXPECT_EQ(make_backend(opt)->name(), "sharded");
}

// --- the trial_offset contract ---------------------------------------------

TEST(TrialSeeds, PureAndDistinctPerTrial) {
  EXPECT_EQ(trial_seeds(77, 5), trial_seeds(77, 5));  // pure function of (base, i)
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) {
    const auto [net, engine] = trial_seeds(77, i);
    EXPECT_NE(net, engine);
    seen.insert(net);
    seen.insert(engine);
  }
  EXPECT_EQ(seen.size(), 128u);  // no collisions across streams either
}

// Shard placement must be invisible in the records: running [0, 9) in one
// batch and as offset sub-batches [0, 4) + [4, 9) must stream identical
// (trial, result) sequences, because seeds are counter-based on the global
// index. This is the in-process half of the sharding byte-identity argument.
TEST(InProcessBackend, TrialOffsetSplitMatchesFullRun) {
  const auto run_range = [](int offset, int count,
                            std::vector<std::pair<int, double>>* out) {
    RunnerOptions opt;
    opt.trials = count;
    opt.trial_offset = offset;
    opt.seed = 31;
    opt.trial_sink = [out](int trial, const SpreadResult& r) {
      out->emplace_back(trial, r.spread_time);
    };
    run_trials(clique_factory(20), opt);
  };
  std::vector<std::pair<int, double>> full, split;
  run_range(0, 9, &full);
  run_range(0, 4, &split);
  run_range(4, 5, &split);
  ASSERT_EQ(full.size(), 9u);
  ASSERT_EQ(split.size(), 9u);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].first, static_cast<int>(i));
    EXPECT_EQ(split[i].first, full[i].first);
    EXPECT_DOUBLE_EQ(split[i].second, full[i].second);
  }
}

// Satellite contract: per-trial records are invariant to the whole execution
// topology the manifest records — threads, chunk_trials, and (via the
// offset-split test above plus the end-to-end shard scripts) backend/shards.
TEST(InProcessBackend, RecordsInvariantToThreadsAndChunk) {
  const auto emit_records = [](int threads, int chunk) {
    ExperimentConfig config;
    config.scenario = "static_clique";
    config.param_overrides = {{"n", "24"}};
    config.runner.trials = 6;
    config.runner.seed = 17;
    config.runner.threads = threads;
    config.runner.chunk_trials = chunk;
    std::ostringstream os;
    run_experiment(config, [&os](const ExperimentResult& r, int trial,
                                 const SpreadResult& t) {
      emit_trial_json(os, r, trial, t);
    });
    return os.str();
  };
  const std::string reference = emit_records(1, 0);
  EXPECT_FALSE(reference.empty());
  for (const auto& [threads, chunk] :
       std::vector<std::pair<int, int>>{{4, 0}, {1, 2}, {4, 3}}) {
    EXPECT_EQ(emit_records(threads, chunk), reference)
        << "records changed under threads=" << threads << " chunk=" << chunk;
  }
}

TEST(Manifest, RecordsExecutionTopology) {
  ExperimentConfig config;
  config.scenario = "static_clique";
  config.param_overrides = {{"n", "16"}};
  config.runner.trials = 2;
  config.runner.threads = 3;
  config.runner.chunk_trials = 5;
  std::ostringstream os;
  emit_summary_json(os, run_experiment(config), "test-build");
  const std::string summary = os.str();
  EXPECT_NE(summary.find("\"backend\":\"in-process\""), std::string::npos);
  EXPECT_NE(summary.find("\"shards\":1"), std::string::npos);
  EXPECT_NE(summary.find("\"threads\":3"), std::string::npos);
  EXPECT_NE(summary.find("\"chunk_trials\":5"), std::string::npos);
  EXPECT_EQ(summary.find("\"worker_cmd\""), std::string::npos);
}

TEST(Manifest, ShardedRunNeedsWorkerBinary) {
  ExperimentConfig config;
  config.scenario = "static_clique";
  config.param_overrides = {{"n", "16"}};
  config.runner.trials = 4;
  config.runner.shards = 2;
  try {
    run_experiment(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("worker_binary"), std::string::npos);
  }
}

// --- support/jsonl ----------------------------------------------------------

TEST(Jsonl, ScannersExtractTopLevelFields) {
  const std::string line =
      "{\"record\":\"trial\",\"scenario\":\"edge_markovian\",\"trial\":42,"
      "\"completed\":true,\"spread_time\":19.425733953796847,"
      "\"theorem11_crossing\":-1}";
  std::string s;
  std::int64_t i = 0;
  double d = 0;
  bool b = false;
  EXPECT_TRUE(jsonl_get_string(line, "record", &s));
  EXPECT_EQ(s, "trial");
  EXPECT_TRUE(jsonl_get_string(line, "scenario", &s));
  EXPECT_EQ(s, "edge_markovian");
  EXPECT_TRUE(jsonl_get_int(line, "trial", &i));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(jsonl_get_int(line, "theorem11_crossing", &i));
  EXPECT_EQ(i, -1);
  EXPECT_TRUE(jsonl_get_bool(line, "completed", &b));
  EXPECT_TRUE(b);
  // The parsed double must round-trip the record's bits exactly — this is
  // what makes coordinator-side re-emission byte-identical.
  EXPECT_TRUE(jsonl_get_double(line, "spread_time", &d));
  EXPECT_EQ(json_number(d), "19.425733953796847");
  EXPECT_FALSE(jsonl_get_int(line, "absent", &i));
  EXPECT_FALSE(jsonl_get_bool(line, "trial", &b));
}

TEST(Jsonl, LineReaderFramesAndKeepsPartialTail) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const char* payload = "{\"a\":1}\n{\"b\":2}\n{\"trunc";
  ASSERT_EQ(write(fds[1], payload, strlen(payload)),
            static_cast<ssize_t>(strlen(payload)));
  close(fds[1]);
  LineReader reader(fds[0]);
  std::vector<std::string> lines;
  while (reader.drain(lines)) {
  }
  close(fds[0]);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"a\":1}");
  EXPECT_EQ(lines[1], "{\"b\":2}");
  EXPECT_TRUE(reader.eof());
  EXPECT_EQ(reader.partial(), "{\"trunc");
}

// --- support/subprocess -----------------------------------------------------

TEST(Subprocess, CapturesStdoutAndExitStatus) {
  Subprocess p = Subprocess::spawn({"/bin/sh", "-c", "printf hello; exit 3"});
  LineReader reader(p.stdout_fd());
  std::vector<std::string> lines;
  while (reader.drain(lines)) {
  }
  EXPECT_EQ(reader.partial(), "hello");  // no trailing newline
  EXPECT_EQ(p.wait(), 3);
}

TEST(Subprocess, ExecFailureIsACleanError) {
  EXPECT_THROW(Subprocess::spawn({"/nonexistent/definitely-not-a-binary"}),
               std::runtime_error);
}

TEST(Subprocess, ReportsKillSignal) {
  Subprocess p = Subprocess::spawn({"/bin/sh", "-c", "kill -9 $$"});
  EXPECT_EQ(p.wait(), 128 + SIGKILL);
}

// The destructor-path interleaving the sharded coordinator hits when it
// unwinds on error: a reader thread is still draining the pipe while the
// owner SIGKILLs and reaps the child. The ordering contract is that kill()
// and wait() may run concurrently with reads on stdout_fd() (the fd stays
// valid; the child's death delivers EOF to the reader), and only after the
// reader is joined may the fd be closed (here by the destructor). Run under
// -DSANITIZE=thread this test checks the seam TSan-clean; the explicit
// mid-drain kill distinguishes it from ReportsKillSignal above, which reaps
// an already-dead child with no reader in flight.
TEST(Subprocess, KillAndReapWhileReaderDrains) {
  // The child streams lines forever; it can only die by our SIGKILL.
  Subprocess p =
      Subprocess::spawn({"/bin/sh", "-c", "while :; do echo tick; done"});

  std::atomic<int> lines_seen{0};
  std::atomic<bool> saw_eof{false};
  std::thread reader([&]() {
    LineReader line_reader(p.stdout_fd());
    std::vector<std::string> lines;
    while (line_reader.drain(lines)) {
      lines_seen.fetch_add(static_cast<int>(lines.size()));
      lines.clear();
    }
    saw_eof.store(true);
  });

  // Let the reader observe real mid-stream traffic before the kill.
  while (lines_seen.load() < 10) std::this_thread::yield();

  p.kill();
  EXPECT_EQ(p.wait(), 128 + SIGKILL);  // reap races the reader's last drain

  reader.join();
  EXPECT_TRUE(saw_eof.load());  // child death closed the write end
  EXPECT_GE(lines_seen.load(), 10);
  // Destructor runs here: child already reaped, reader joined — it only
  // closes the fd, which no other thread can still be touching.
}

// --- ShardedBackend with fake /bin/sh workers -------------------------------

// A fake worker speaking the shard protocol. The backend appends
// `--trial-offset B --trials K --threads T`, which /bin/sh -c exposes as
// $0="--trial-offset" $1=B $2="--trials" $3=K $4="--threads" $5=T.
constexpr const char* kHappyWorker = R"sh(
b=$1; k=$3; i=0
while [ "$i" -lt "$k" ]; do
  t=$((b+i))
  printf '{"record":"trial","scenario":"fake","trial":%d,"completed":true,"spread_time":%d.25,"informed_count":8,"informative_contacts":%d,"total_contacts":9,"graph_changes":1,"theorem11_crossing":%d,"theorem13_crossing":-1}\n' "$t" "$t" "$t" "$t"
  i=$((i+1))
done
printf '{"record":"shard_done","offset":%d,"trials":%d,"peak_rss_mb":12.5}\n' "$b" "$k"
)sh";

RunnerOptions fake_sharded_options(const char* script, int trials, int shards) {
  RunnerOptions opt;
  opt.trials = trials;
  opt.shards = shards;
  opt.worker_argv = {"/bin/sh", "-c", script};
  return opt;
}

TEST(ShardedBackend, MergesShardStreamsInTrialOrder) {
  RunnerOptions opt = fake_sharded_options(kHappyWorker, 10, 3);
  std::vector<int> sink_order;
  std::vector<std::int64_t> contacts;
  opt.trial_sink = [&](int trial, const SpreadResult& r) {
    sink_order.push_back(trial);
    contacts.push_back(r.informative_contacts);
    EXPECT_DOUBLE_EQ(r.spread_time, trial + 0.25);
  };
  const RunnerReport report = run_trials(NetworkFactory(), opt);

  ASSERT_EQ(sink_order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sink_order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(report.trials, 10);
  EXPECT_EQ(report.completed, 10);
  ASSERT_EQ(report.spread_time.count(), 10u);
  ASSERT_EQ(contacts.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(report.spread_time.values()[static_cast<std::size_t>(i)], i + 0.25);
    EXPECT_EQ(contacts[static_cast<std::size_t>(i)], i);
    EXPECT_DOUBLE_EQ(report.theorem11_crossing.values()[static_cast<std::size_t>(i)],
                     static_cast<double>(i));
  }
  EXPECT_EQ(report.theorem13_crossing.count(), 0u);  // -1 everywhere: never added
  EXPECT_DOUBLE_EQ(report.max_worker_rss_mb, 12.5);
}

TEST(ShardedBackend, ProgressReportsMergedTrials) {
  RunnerOptions opt = fake_sharded_options(kHappyWorker, 6, 2);
  std::vector<std::pair<int, int>> calls;
  opt.progress = [&](int done, int total) { calls.emplace_back(done, total); };
  run_trials(NetworkFactory(), opt);
  ASSERT_FALSE(calls.empty());
  int last = 0;
  for (const auto& [done, total] : calls) {
    EXPECT_GT(done, last);  // strictly advancing, merged in order
    EXPECT_EQ(total, 6);
    last = done;
  }
  EXPECT_EQ(last, 6);
}

// A worker that dies mid-stream (here by its own SIGKILL; the
// kill-from-the-test variant is below) must abort the run with the failing
// shard's trial range — not hang, and not silently truncate the report.
TEST(ShardedBackend, WorkerDeathMidStreamNamesTrialRange) {
  constexpr const char* kDyingWorker = R"sh(
if [ "$1" -eq 0 ]; then
  printf '{"record":"trial","scenario":"fake","trial":0,"completed":true,"spread_time":0.25,"informed_count":8,"informative_contacts":0,"total_contacts":9,"graph_changes":1,"theorem11_crossing":-1,"theorem13_crossing":-1}\n'
  kill -9 $$
fi
b=$1; k=$3; i=0
while [ "$i" -lt "$k" ]; do
  t=$((b+i))
  printf '{"record":"trial","scenario":"fake","trial":%d,"completed":true,"spread_time":%d.25,"informed_count":8,"informative_contacts":%d,"total_contacts":9,"graph_changes":1,"theorem11_crossing":-1,"theorem13_crossing":-1}\n' "$t" "$t" "$t"
  i=$((i+1))
done
printf '{"record":"shard_done","offset":%d,"trials":%d,"peak_rss_mb":1}\n' "$b" "$k"
)sh";
  RunnerOptions opt = fake_sharded_options(kDyingWorker, 5, 2);  // shard 0: [0, 3)
  try {
    run_trials(NetworkFactory(), opt);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
    EXPECT_NE(what.find("trials [0, 3)"), std::string::npos) << what;
    EXPECT_NE(what.find("1 of 3 trial records"), std::string::npos) << what;
  }
}

// The literal satellite scenario: the test itself SIGKILLs a worker that is
// alive but stalled mid-stream. The coordinator must notice the death
// (EOF before the sentinel) instead of waiting forever.
TEST(ShardedBackend, TestKilledWorkerSurfacesErrorNotHang) {
  char pid_path[] = "/tmp/rumor_exec_test_pid_XXXXXX";
  const int fd = mkstemp(pid_path);
  ASSERT_GE(fd, 0);
  close(fd);
  const std::string script =
      std::string("echo $$ > ") + pid_path + R"sh(
printf '{"record":"trial","scenario":"fake","trial":0,"completed":true,"spread_time":0.25,"informed_count":8,"informative_contacts":0,"total_contacts":9,"graph_changes":1,"theorem11_crossing":-1,"theorem13_crossing":-1}\n'
exec sleep 300
)sh";
  RunnerOptions opt;
  opt.trials = 2;
  opt.shards = 2;
  opt.worker_argv = {"/bin/sh", "-c", script};

  // Reap the stalled workers from a helper thread once they have written
  // their pids (both shards run the same script; kill them both).
  std::thread killer([&] {
    for (int spin = 0; spin < 2000; ++spin) {
      std::ifstream in(pid_path);
      pid_t pid = 0;
      if (in >> pid && pid > 0) {
        usleep(50 * 1000);  // let the trial record drain first
        kill(pid, SIGKILL);
        return;
      }
      usleep(5 * 1000);
    }
  });

  try {
    run_trials(NetworkFactory(), opt);
    killer.join();
    std::remove(pid_path);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    killer.join();
    std::remove(pid_path);
    const std::string what = e.what();
    EXPECT_NE(what.find("shard"), std::string::npos) << what;
    EXPECT_NE(what.find("before the shard completed"), std::string::npos) << what;
  }
}

TEST(ShardedBackend, TruncatedStreamWithoutSentinelIsAnError) {
  // Exits 0 but never sends shard_done: indistinguishable from a lost tail,
  // so it must fail loudly.
  constexpr const char* kNoSentinel = R"sh(
printf '{"record":"trial","scenario":"fake","trial":%d,"completed":true,"spread_time":1.25,"informed_count":8,"informative_contacts":0,"total_contacts":9,"graph_changes":1,"theorem11_crossing":-1,"theorem13_crossing":-1}\n' "$1"
exit 0
)sh";
  RunnerOptions opt = fake_sharded_options(kNoSentinel, 4, 2);
  try {
    run_trials(NetworkFactory(), opt);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("before the shard completed"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShardedBackend, PartialTrailingLineIsTruncationEvidence) {
  constexpr const char* kPartialLine = R"sh(
printf '{"record":"trial","scenario":"fake","tri'
exit 0
)sh";
  RunnerOptions opt = fake_sharded_options(kPartialLine, 4, 2);
  try {
    run_trials(NetworkFactory(), opt);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated mid-record"), std::string::npos)
        << e.what();
  }
}

TEST(ShardedBackend, NonZeroExitAfterCompleteStreamIsAnError) {
  const std::string script = std::string(kHappyWorker) + "\nexit 7\n";
  RunnerOptions opt = fake_sharded_options(script.c_str(), 4, 2);
  try {
    run_trials(NetworkFactory(), opt);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("status 7"), std::string::npos) << e.what();
  }
}

TEST(ShardedBackend, OutOfOrderTrialIndexIsAnError) {
  constexpr const char* kWrongIndex = R"sh(
printf '{"record":"trial","scenario":"fake","trial":99,"completed":true,"spread_time":1.25,"informed_count":8,"informative_contacts":0,"total_contacts":9,"graph_changes":1,"theorem11_crossing":-1,"theorem13_crossing":-1}\n'
printf '{"record":"shard_done","offset":%d,"trials":1,"peak_rss_mb":1}\n' "$1"
)sh";
  RunnerOptions opt = fake_sharded_options(kWrongIndex, 2, 2);
  try {
    run_trials(NetworkFactory(), opt);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("out-of-order trial record"), std::string::npos)
        << e.what();
  }
}

TEST(ShardedBackend, UnexpectedRecordIsAnError) {
  constexpr const char* kBogus = "printf '{\"record\":\"bogus\"}\\n'; exit 0\n";
  RunnerOptions opt = fake_sharded_options(kBogus, 2, 2);
  try {
    run_trials(NetworkFactory(), opt);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unexpected record"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rumor
