#include "exec/sharded_backend.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>

#include "support/contracts.h"
#include "support/jsonl.h"
#include "support/subprocess.h"

namespace rumor {

namespace {

struct Shard {
  ShardRange range;
  Subprocess process;
  LineReader reader;
  std::deque<std::string> pending;  // complete trial-record lines, oldest first
  bool done_seen = false;           // shard_done sentinel received
  int received = 0;                 // trial records received so far
  double peak_rss_mb = 0.0;         // from the sentinel

  Shard(const ShardRange& r, Subprocess p)
      : range(r), process(std::move(p)), reader(process.stdout_fd()) {}
};

std::string range_text(const ShardRange& r) {
  return "trials [" + std::to_string(r.begin) + ", " +
         std::to_string(r.begin + r.count) + ")";
}

[[noreturn]] void shard_error(std::size_t index, const Shard& shard,
                              const std::string& what) {
  throw std::runtime_error("shard " + std::to_string(index) + " (" +
                           range_text(shard.range) + "): " + what + "; received " +
                           std::to_string(shard.received) + " of " +
                           std::to_string(shard.range.count) + " trial records");
}

// Parses one {"record":"trial",...} line into the global trial index and the
// scalar SpreadResult fields the records carry (the O(n) flags/trace vectors
// never cross the process boundary).
void parse_trial_record(const std::string& line, std::size_t shard_index,
                        const Shard& shard, int* trial, SpreadResult* r) {
  std::int64_t trial64 = 0;
  const bool ok = jsonl_get_int(line, "trial", &trial64) &&
                  jsonl_get_bool(line, "completed", &r->completed) &&
                  jsonl_get_double(line, "spread_time", &r->spread_time) &&
                  jsonl_get_int(line, "informed_count", &r->informed_count) &&
                  jsonl_get_int(line, "informative_contacts", &r->informative_contacts) &&
                  jsonl_get_int(line, "total_contacts", &r->total_contacts) &&
                  jsonl_get_int(line, "graph_changes", &r->graph_changes) &&
                  jsonl_get_int(line, "theorem11_crossing", &r->theorem11_crossing) &&
                  jsonl_get_int(line, "theorem13_crossing", &r->theorem13_crossing);
  if (!ok) shard_error(shard_index, shard, "malformed trial record: " + line);
  *trial = static_cast<int>(trial64);
}

}  // namespace

std::vector<ShardRange> plan_shards(int trials, int shards, int trial_offset) {
  DG_REQUIRE(trials > 0, "need at least one trial");
  DG_REQUIRE(shards >= 1, "need at least one shard");
  const int count = std::min(shards, trials);
  const int base = trials / count;
  const int extra = trials % count;
  std::vector<ShardRange> plan;
  plan.reserve(static_cast<std::size_t>(count));
  int begin = trial_offset;
  for (int s = 0; s < count; ++s) {
    ShardRange r;
    r.begin = begin;
    r.count = base + (s < extra ? 1 : 0);
    begin += r.count;
    plan.push_back(r);
  }
  return plan;
}

RunnerReport ShardedBackend::run(const NetworkFactory& factory,
                                 const RunnerOptions& options) {
  (void)factory;  // workers rebuild their networks from the command line
  DG_REQUIRE(!options.worker_argv.empty(),
             "sharded backend needs a worker command (RunnerOptions::worker_argv)");

  const std::vector<ShardRange> plan =
      plan_shards(options.trials, options.shards, options.trial_offset);
  // The requested thread budget is divided across the worker processes, so
  // `--shards N --threads T` uses the same total hardware as the in-process
  // run. Records are thread-count-invariant either way.
  const int worker_threads =
      std::max(1, options.threads / static_cast<int>(plan.size()));

  std::deque<Shard> shards;
  for (const ShardRange& range : plan) {
    std::vector<std::string> argv = options.worker_argv;
    argv.push_back("--trial-offset");
    argv.push_back(std::to_string(range.begin));
    argv.push_back("--trials");
    argv.push_back(std::to_string(range.count));
    argv.push_back("--threads");
    argv.push_back(std::to_string(worker_threads));
    shards.emplace_back(range, Subprocess::spawn(argv));
  }

  RunnerReport report;
  report.trials = options.trials;

  std::size_t merge_front = 0;  // shards below this index are fully merged
  int merged = 0;               // trials merged so far (global order)

  // Consumes every buffered line of the current front shard, advancing the
  // front when a shard's full range has been merged. Aggregation mirrors the
  // in-process backend exactly: same fields, same trial order.
  const auto merge_available = [&] {
    int merged_before = merged;
    while (merge_front < shards.size()) {
      Shard& shard = shards[merge_front];
      while (!shard.pending.empty()) {
        const std::string line = std::move(shard.pending.front());
        shard.pending.pop_front();
        int trial = 0;
        SpreadResult result;
        parse_trial_record(line, merge_front, shard, &trial, &result);
        const int expected = shard.range.begin + shard.received;
        if (trial != expected) {
          shard_error(merge_front, shard,
                      "out-of-order trial record (got trial " + std::to_string(trial) +
                          ", expected " + std::to_string(expected) + ")");
        }
        ++shard.received;
        ++merged;
        if (result.completed) {
          ++report.completed;
          report.spread_time.add(result.spread_time);
          report.informative_contacts.add(
              static_cast<double>(result.informative_contacts));
        }
        if (result.theorem11_crossing >= 0)
          report.theorem11_crossing.add(static_cast<double>(result.theorem11_crossing));
        if (result.theorem13_crossing >= 0)
          report.theorem13_crossing.add(static_cast<double>(result.theorem13_crossing));
        if (options.trial_sink) options.trial_sink(trial, result);
      }
      if (shard.received == shard.range.count && shard.done_seen &&
          shard.reader.eof()) {
        ++merge_front;
        continue;
      }
      break;
    }
    if (options.progress && merged != merged_before)
      options.progress(merged, options.trials);
  };

  while (merge_front < shards.size()) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_shard;
    for (std::size_t s = merge_front; s < shards.size(); ++s) {
      if (shards[s].reader.eof()) continue;
      fds.push_back({shards[s].process.stdout_fd(), POLLIN, 0});
      fd_shard.push_back(s);
    }
    if (!fds.empty()) {
      const int ready = poll(fds.data(), fds.size(), -1);
      if (ready < 0 && errno != EINTR)
        throw std::runtime_error("sharded backend: poll failed");
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Shard& shard = shards[fd_shard[i]];
        std::vector<std::string> lines;
        shard.reader.drain(lines);
        for (std::string& line : lines) {
          if (line.find("\"record\":\"shard_done\"") != std::string::npos) {
            if (shard.done_seen)
              shard_error(fd_shard[i], shard, "duplicate shard_done sentinel");
            shard.done_seen = true;
            jsonl_get_double(line, "peak_rss_mb", &shard.peak_rss_mb);
            report.max_worker_rss_mb =
                std::max(report.max_worker_rss_mb, shard.peak_rss_mb);
          } else if (line.find("\"record\":\"trial\"") != std::string::npos) {
            if (shard.done_seen)
              shard_error(fd_shard[i], shard, "trial record after shard_done");
            shard.pending.push_back(std::move(line));
          } else {
            shard_error(fd_shard[i], shard, "unexpected record: " + line);
          }
        }
        if (shard.reader.eof()) {
          // The stream ended: the worker must have delivered its exact range
          // and exited cleanly, otherwise the run is unrecoverable (a silent
          // truncation here would drop trials from the merged output).
          const int status = shard.process.wait();
          if (!shard.reader.partial().empty())
            shard_error(fd_shard[i], shard,
                        "stream truncated mid-record (worker died or wrote a "
                        "partial line; exit status " +
                            std::to_string(status) + ")");
          const int buffered =
              shard.received + static_cast<int>(shard.pending.size());
          if (!shard.done_seen || buffered != shard.range.count)
            shard_error(fd_shard[i], shard,
                        "worker stream ended before the shard completed (exit "
                        "status " +
                            std::to_string(status) + ", " +
                            std::to_string(buffered) + " of " +
                            std::to_string(shard.range.count) +
                            " trial records received)");
          if (status != 0)
            shard_error(fd_shard[i], shard,
                        "worker exited with status " + std::to_string(status));
        }
      }
    }
    merge_available();
  }
  return report;
}

}  // namespace rumor
