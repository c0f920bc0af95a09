// The serve mix: a ServeServer on a unix socket inside this process, driven
// by closed-loop clients with a fixed, seeded script of run, bounds,
// fingerprint and stats requests. serve_mixed runs it with two clients for
// the whole run; the simulation workloads run a short one-client tail of it
// for their serve-side figures.
//
// The hit/miss split is known in advance: hits ask for cells warmed during
// set-up, misses use seeds never asked for before (disjoint per client). Only
// families with analytic profiles get `bounds` requests (README: known
// faults).
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "repro/fingerprint.h"
#include "serve/server.h"
#include "sha256.h"
#include "support/socket.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr const char* kBuildInfo = "perfbench";

// The cell families of the mix, all small enough that a miss costs
// milliseconds: a delta-reporting family, the Thm 1.2 adversary with bound
// tracking, a static baseline, and the dynamic star with bound tracking.
struct Family {
  const char* cmd;
  const char* fields;
  std::int64_t nodes;  // node count of the cell's network
  double rho;          // the diligent adversary's ρ (Thm 1.2 check); 0 for the others
};
constexpr Family kFamilies[] = {
    {"run", R"("scenario":"edge_markovian","n":2000,"p":0.004,"q":0.2)", 2000, 0.0},
    {"bounds", R"("scenario":"diligent_adversary","n":256,"rho":0.25)", 256, 0.25},
    {"run", R"("scenario":"static_torus","rows":32,"cols":32)", 1024, 0.0},
    {"bounds", R"("scenario":"dynamic_star","n":256)", 257, 0.0},
};
constexpr int kFamilyCount = 4;
constexpr int kWarmPerFamily = 2;
constexpr int kWarmCells = kFamilyCount * kWarmPerFamily;
// Hits per client round. The mix is assumed (no recorded use of the server
// exists); 2000 hits to 5 misses makes hits a measurable share of a round,
// so requests_per_s moves with the hit path and not only with miss_ms.
constexpr int kHitsPerRound = 2000;
constexpr int kCellTrials = 2;

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string request_line(const std::string& id, const std::string& cmd, int family,
                         std::uint64_t seed) {
  return "{\"id\":\"" + id + "\",\"cmd\":\"" + cmd + "\"," + kFamilies[family].fields +
         ",\"trials\":" + std::to_string(kCellTrials) + ",\"seed\":" + std::to_string(seed) + "}";
}

enum class Expect { hit, miss, stats };

struct Request {
  std::string line;
  Expect expect = Expect::stats;
  bool fingerprint = false;
  int warm = -1;    // warmed cell a hit reads
  int family = -1;  // index into kFamilies
};

struct Response {
  std::vector<std::string> lines;
  double rtt = 0.0;
  std::size_t bytes = 0;
};

// One client: a socket connection with line framing, or (in process) direct
// calls to ServeServer::handle_request_line with a collecting sink.
class Client {
 public:
  explicit Client(const std::string& path) : socket_(rumor::connect_unix(path)) {}
  explicit Client(rumor::ServeServer& server) : server_(&server) {}

  Response ask(const std::string& line) {
    Response out;
    const double t0 = now_s();
    if (server_ != nullptr) {
      server_->handle_request_line(line, [&out](const std::string& record) {
        out.bytes += record.size() + 1;
        out.lines.push_back(record);
        return true;
      });
      out.rtt = now_s() - t0;
      return out;
    }
    if (!socket_.write_all(line + "\n")) throw std::runtime_error("serve: server gone");
    while (true) {
      std::string record = next_line();
      out.bytes += record.size() + 1;
      const std::string kind = json_string_field(record, "record");
      out.lines.push_back(std::move(record));
      if (kind != "serve_cell" && kind != "trial" && kind != "summary" && kind != "fingerprint") break;
    }
    out.rtt = now_s() - t0;
    return out;
  }

 private:
  std::string next_line() {
    while (true) {
      const std::size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return line;
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      const ssize_t got = ::read(socket_.fd(), chunk, sizeof chunk);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) throw std::runtime_error("serve: connection closed mid-response");
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  rumor::ServeServer* server_ = nullptr;
  rumor::Socket socket_;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

std::string sha_of_trials(const std::vector<std::string>& body) {
  Sha256 sha;
  for (const std::string& line : body) {
    if (json_string_field(line, "record") == "trial") sha.update(line + "\n");
  }
  return sha.hex_digest();
}

// A served cell body: the trial and summary records between header and done.
std::vector<std::string> body_of(const Response& r) {
  std::vector<std::string> body;
  for (const std::string& line : r.lines) {
    const std::string kind = json_string_field(line, "record");
    if (kind == "trial" || kind == "summary" || kind == "fingerprint") body.push_back(line);
  }
  return body;
}

struct WarmCell {
  std::string line;
  std::vector<std::string> body;
  std::string sha;
};

// The method's properties of every served trial record: a completed spread
// (informed_count = n, informative_contacts = n − 1) and, on bound-tracking
// cells, a spread time at most the Theorem 1.1 crossing + 1.
bool trials_ok(const std::vector<std::string>& body, const Family& family) {
  const bool bounds = std::string(family.cmd) == "bounds";
  for (const std::string& line : body) {
    if (json_string_field(line, "record") != "trial") continue;
    if (line.find("\"completed\":true") == std::string::npos) return false;
    if (json_int_field(line, "informed_count") != family.nodes) return false;
    if (json_int_field(line, "informative_contacts") != family.nodes - 1) return false;
    if (bounds) {
      const std::int64_t crossing = json_int_field(line, "theorem11_crossing");
      if (crossing < 0 || json_double_field(line, "spread_time") >
                              static_cast<double>(crossing) + 1.0) {
        return false;
      }
    }
  }
  return true;
}

// Adds a body's trial spread times to a running sum (Thm 1.2's mean).
void add_spread_times(const std::vector<std::string>& body, double& sum, std::int64_t& count) {
  for (const std::string& line : body) {
    if (json_string_field(line, "record") != "trial") continue;
    sum += json_double_field(line, "spread_time");
    ++count;
  }
}

// Checks one response against what the script expects. Stats responses are
// checked separately (their counts depend on the other client's progress).
bool check_response(const Request& req, const Response& r, const std::vector<WarmCell>& warm) {
  if (r.lines.size() < 2) return false;
  const std::string& header = r.lines.front();
  const std::string& done = r.lines.back();
  if (json_string_field(header, "record") != "serve_cell") return false;
  if (json_string_field(done, "record") != "serve_done") return false;
  const bool hit = req.expect == Expect::hit;
  if (json_string_field(header, "cache") != (hit ? "hit" : "miss")) return false;
  if (json_int_field(done, "hits") != (hit ? 1 : 0)) return false;
  if (json_int_field(done, "misses") != (hit ? 0 : 1)) return false;
  const std::string fingerprint = json_string_field(header, "fingerprint");
  const std::vector<std::string> body = body_of(r);
  if (req.fingerprint) {
    if (body.size() != 1 || json_string_field(body[0], "sha256") != fingerprint) return false;
    if (hit && fingerprint != warm[static_cast<std::size_t>(req.warm)].sha) return false;
    return true;
  }
  if (body.size() != kCellTrials + 1) return false;
  if (hit) {
    // A hit is byte-identical to the miss that filled its entry, whose body
    // passed the checks below when it was served; so it passes them too, and
    // the clients' own work stays a small part of each round.
    const WarmCell& cell = warm[static_cast<std::size_t>(req.warm)];
    return fingerprint == cell.sha && body == cell.body;
  }
  return sha_of_trials(body) == fingerprint && trials_ok(body, kFamilies[req.family]);
}

// One client's fixed round: kHitsPerRound hits, one miss per family plus a fingerprint
// miss, and a stats request, in a seeded order.
std::vector<Request> round_script(int client, int clients, int round, std::uint64_t run_seed,
                                  std::uint64_t seed_base, std::int64_t& miss_counter,
                                  const std::vector<WarmCell>& warm) {
  std::uint64_t state = run_seed * std::uint64_t{1000003} +
                        static_cast<std::uint64_t>(client) * std::uint64_t{7919} +
                        static_cast<std::uint64_t>(round);
  std::vector<Request> script;
  const std::string prefix = "c" + std::to_string(client) + "-" + std::to_string(round) + "-";
  for (int i = 0; i < kHitsPerRound; ++i) {
    Request req;
    req.expect = Expect::hit;
    req.warm = static_cast<int>(splitmix(state) % kWarmCells);
    req.line = warm[static_cast<std::size_t>(req.warm)].line;
    req.family = req.warm / kWarmPerFamily;
    if (std::string(kFamilies[req.family].cmd) == "run" && i % 2 == 1) {
      req.fingerprint = true;
      const std::size_t at = req.line.find("\"cmd\":\"run\"");
      req.line.replace(at, 11, "\"cmd\":\"fingerprint\"");
    }
    script.push_back(req);
  }
  const auto fresh_seed = [&] {
    return seed_base + 1000 + static_cast<std::uint64_t>(client) +
           static_cast<std::uint64_t>(clients) * static_cast<std::uint64_t>(miss_counter++);
  };
  for (int family = 0; family <= kFamilyCount; ++family) {
    Request req;
    req.expect = Expect::miss;
    req.fingerprint = family == kFamilyCount;
    const int f = req.fingerprint ? 0 : family;
    req.family = f;
    req.line = request_line(prefix + "m" + std::to_string(family),
                            req.fingerprint ? "fingerprint" : kFamilies[f].cmd, f, fresh_seed());
    script.push_back(req);
  }
  script.push_back({"{\"id\":\"" + prefix + "s\",\"cmd\":\"stats\"}", Expect::stats, false, -1});
  for (std::size_t i = script.size() - 1; i > 0; --i) {
    std::swap(script[i], script[static_cast<std::size_t>(splitmix(state) % (i + 1))]);
  }
  for (std::size_t i = 0; i < script.size(); ++i) {
    // Ids stay unique per request; hits reuse warm lines, so patch theirs.
    if (script[i].expect == Expect::hit) {
      const std::size_t begin = script[i].line.find("\"id\":\"") + 6;
      const std::size_t end = script[i].line.find('"', begin);
      script[i].line.replace(begin, end - begin, prefix + "h" + std::to_string(i));
    }
  }
  return script;
}

struct ClientLog {
  // Per round: the median hit round trip and the mean miss round trip (every
  // round makes the same five misses). Per-round figures keep the log's size,
  // and so the process's peak RSS, independent of the request rate.
  std::vector<double> hit_round_median;
  std::vector<double> miss_round_mean;
  double hit_time = 0.0;                         // sum of hit round trips
  double miss_time = 0.0;                        // sum of miss round trips
  std::vector<std::pair<double, double>> spans;  // traced run: request start/end
  std::int64_t requests = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t failed = 0;
  std::uint64_t bytes = 0;
  std::uint64_t waits_seen = 0;
  double adversary_spread = 0.0;  // spread times of the diligent adversary's missed cells
  std::int64_t adversary_trials = 0;
  std::vector<std::pair<std::string, Response>> first_misses;  // round 0, for direct re-runs
  std::string error;
};

// A running daemon: ServeServer::serve on its own thread.
class Daemon {
 public:
  Daemon(const std::string& path, int max_active_jobs) : path_(path) {
    rumor::ServeServer::Options options;
    options.max_active_jobs = max_active_jobs;
    options.build_info = kBuildInfo;
    server_ = std::make_unique<rumor::ServeServer>(options);
    thread_ = std::thread([this] {
      try {
        server_->serve(path_, log_);
      } catch (const std::exception& e) {
        log_ << "serve failed: " << e.what() << "\n";
      }
    });
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    server_->request_stop();
    thread_.join();
  }

  rumor::ServeServer& server() { return *server_; }

  // Connects, retrying while the listener is not bound yet.
  std::unique_ptr<Client> connect() {
    for (int attempt = 0;; ++attempt) {
      try {
        return std::make_unique<Client>(path_);
      } catch (const std::exception&) {
        if (attempt > 20000) throw;
        std::this_thread::yield();
      }
    }
  }

 private:
  std::string path_;
  std::ostringstream log_;
  std::unique_ptr<rumor::ServeServer> server_;
  std::thread thread_;
};

std::vector<WarmCell> warm_cells(std::uint64_t seed_base) {
  std::vector<WarmCell> warm;
  for (int w = 0; w < kWarmCells; ++w) {
    const int family = w / kWarmPerFamily;
    warm.push_back({request_line("warm" + std::to_string(w), kFamilies[family].cmd, family,
                                 seed_base + static_cast<std::uint64_t>(w)),
                    {},
                    {}});
  }
  return warm;
}

// Direct run_experiment of a served cell: trial records byte-identical, the
// summary identical up to its wall-clock telemetry. Returns seconds/trial.
double check_direct(const std::string& line, const std::vector<std::string>& served,
                    bool fingerprint_only, const std::string& served_sha, Report& report) {
  const rumor::ServeRequest request = rumor::parse_request(line);
  const std::vector<rumor::ResolvedCell> cells =
      rumor::resolve_request_cells(request, rumor::ServeLimits{});
  std::vector<std::string> trials;
  const double t0 = now_s();
  const rumor::ExperimentResult result = rumor::run_experiment(
      cells.at(0).config,
      [&](const rumor::ExperimentResult& partial, int trial, const rumor::SpreadResult& r) {
        std::ostringstream os;
        rumor::emit_trial_json(os, partial, trial, r);
        std::string text = os.str();
        text.pop_back();
        trials.push_back(std::move(text));
      });
  const double elapsed = now_s() - t0;
  std::ostringstream os;
  rumor::emit_summary_json(os, result, kBuildInfo);
  std::string summary = os.str();
  summary.pop_back();
  std::vector<std::string> direct = trials;
  direct.push_back(summary);
  if (fingerprint_only) {
    report.check(sha_of_trials(direct) == served_sha,
                 "serve: fingerprint differs from a direct run_experiment: " + line);
  } else {
    bool same = served.size() == direct.size();
    for (std::size_t i = 0; same && i + 1 < direct.size(); ++i) same = served[i] == direct[i];
    same = same && without_timing_fields(served.back()) == without_timing_fields(summary);
    report.check(same, "serve: served body differs from a direct run_experiment: " + line);
  }
  return elapsed / static_cast<double>(kCellTrials);
}

}  // namespace

struct ServeMix::State {
  State(const ServeMixOptions& o, Report& r) : options(o), report(r) {}
  ServeMixOptions options;
  Report& report;
  std::uint64_t seed_base = 0;
  std::vector<WarmCell> warm;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<ClientLog> logs;
  std::vector<int> rounds;                 // per client, rounds run so far
  std::vector<std::int64_t> miss_counters; // per client, fresh seeds used
  double setup_s = 0.0;
  double timed_s = 0.0;                    // wall time inside run_rounds

  void client_round(int c);
};

void ServeMix::State::client_round(int c) {
  ClientLog& log = logs[static_cast<std::size_t>(c)];
  const int round = rounds[static_cast<std::size_t>(c)]++;
  const std::vector<Request> script =
      round_script(c, options.clients, round, options.seed, seed_base,
                   miss_counters[static_cast<std::size_t>(c)], warm);
  Client& client = *clients[static_cast<std::size_t>(c)];
  double miss_sum = 0.0;
  int miss_count = 0;
  std::vector<double> hit_rtt;
  for (const Request& req : script) {
    const double t0 = now_s();
    Response r = client.ask(req.line);
    if (options.trace) log.spans.emplace_back(t0, now_s());
    ++log.requests;
    log.bytes += r.bytes;
    bool ok = true;
    if (req.expect == Expect::stats) {
      ok = json_string_field(r.lines.back(), "record") == "serve_stats";
      log.waits_seen += static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, json_int_field(r.lines.back(), "jobs_waiting", 0)));
    } else {
      ok = check_response(req, r, warm);
      if (req.expect == Expect::hit) {
        ++log.hits;
        log.hit_time += r.rtt;
        hit_rtt.push_back(r.rtt);
      } else {
        ++log.misses;
        log.miss_time += r.rtt;
        miss_sum += r.rtt;
        ++miss_count;
        if (ok && !req.fingerprint && kFamilies[req.family].rho > 0.0) {
          add_spread_times(body_of(r), log.adversary_spread, log.adversary_trials);
        }
        if (round == 0) log.first_misses.emplace_back(req.line, std::move(r));
      }
    }
    if (!ok) ++log.failed;
  }
  log.hit_round_median.push_back(median(hit_rtt));
  log.miss_round_mean.push_back(miss_sum / miss_count);
}

ServeMix::ServeMix(const ServeMixOptions& options, Report& report)
    : state_(std::make_unique<State>(options, report)) {
  State& st = *state_;
  st.seed_base = 1 + (options.seed % 1000) * 10'000'000ULL;
  st.warm = warm_cells(st.seed_base);

  // Set-up: daemon start up to the first answered request, then warming the
  // cache with the hit set. Repeated; the last daemon serves the timed phase.
  std::vector<double> setups;
  for (int rep = 0; rep < options.setup_reps; ++rep) {
    st.daemon.reset();
    const double t0 = now_s();
    st.daemon = std::make_unique<Daemon>(options.socket_path, 2);
    std::unique_ptr<Client> client = st.daemon->connect();
    const Response first = client->ask("{\"id\":\"setup\",\"cmd\":\"stats\"}");
    report.operation(json_string_field(first.lines.back(), "record") == "serve_stats");
    for (WarmCell& cell : st.warm) {
      const Response r = client->ask(cell.line);
      Request req;
      req.line = cell.line;
      req.expect = Expect::miss;
      req.family = static_cast<int>(&cell - st.warm.data()) / kWarmPerFamily;
      report.operation(check_response(req, r, st.warm));
      cell.body = body_of(r);
      cell.sha = json_string_field(r.lines.front(), "fingerprint");
    }
    setups.push_back(now_s() - t0);
  }
  st.setup_s = median(setups);
  for (int c = 0; c < options.clients; ++c) {
    st.clients.push_back(options.in_process ? std::make_unique<Client>(st.daemon->server())
                                            : st.daemon->connect());
  }
  st.logs.resize(static_cast<std::size_t>(options.clients));
  st.rounds.assign(static_cast<std::size_t>(options.clients), 0);
  st.miss_counters.assign(static_cast<std::size_t>(options.clients), 0);
}

ServeMix::~ServeMix() = default;

void ServeMix::run_rounds(double seconds) {
  State& st = *state_;
  const double start = now_s();
  const auto loop = [&st, start, seconds](int c) {
    ClientLog& log = st.logs[static_cast<std::size_t>(c)];
    try {
      double last_round = 0.0;
      for (bool first = true; first || now_s() - start + last_round <= seconds; first = false) {
        const double round_start = now_s();
        st.client_round(c);
        last_round = now_s() - round_start;
      }
    } catch (const std::exception& e) {
      log.error = e.what();
    }
  };
  if (st.options.clients == 1) {
    loop(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < st.options.clients; ++c) threads.emplace_back(loop, c);
    for (std::thread& t : threads) t.join();
  }
  st.timed_s += now_s() - start;
}

ServeFigures ServeMix::finish(SpanLog& spans) {
  State& st = *state_;
  const ServeMixOptions& options = st.options;
  Report& report = st.report;
  const std::vector<WarmCell>& warm = st.warm;
  const std::vector<ClientLog>& logs = st.logs;
  const std::uint64_t seed_base = st.seed_base;
  ServeFigures out;
  out.setup_s = st.setup_s;

  std::vector<double> hit_rtt, miss_rtt;  // per-round medians and means
  double hit_time = 0.0, miss_time = 0.0;
  std::int64_t requests = 0, hits = 0, misses = kWarmCells;  // the warm-up filled kWarmCells
  std::uint64_t bytes = 0;
  for (std::size_t c = 0; c < logs.size(); ++c) {
    const ClientLog& log = logs[c];
    report.check(log.error.empty(), "serve: client " + std::to_string(c) + ": " + log.error);
    for (std::int64_t i = 0; i < log.requests; ++i) report.operation(i >= log.failed);
    hit_rtt.insert(hit_rtt.end(), log.hit_round_median.begin(), log.hit_round_median.end());
    hit_time += log.hit_time;
    miss_time += log.miss_time;
    miss_rtt.insert(miss_rtt.end(), log.miss_round_mean.begin(), log.miss_round_mean.end());
    requests += log.requests;
    hits += log.hits;
    misses += log.misses;
    bytes += log.bytes;
    out.admission_waits += log.waits_seen;
    for (const auto& [s, e] : log.spans) {
      spans.add("request", -1, static_cast<std::int64_t>(c), s, e);
    }
  }
  const double client_time = st.timed_s * options.clients;
  std::cerr << "perfbench: serve " << options.clients << " client(s), " << requests
            << " requests; shares of the clients' time: hits " << hit_time / client_time
            << ", misses " << miss_time / client_time << ", the rest (stats, checks) "
            << 1.0 - (hit_time + miss_time) / client_time << "\n";
  // On a shared virtual machine a hit's cost can flip between two levels
  // from one fraction of a second to the next (0.013 and 0.021 ms in process
  // on a 4-vCPU VM), so the per-round medians are averaged: a median over
  // rounds would jump between the levels with the share of rounds in each.
  double hit_sum = 0.0;
  for (const double m : hit_rtt) hit_sum += m;
  out.hit_ms = 1e3 * hit_sum / static_cast<double>(hit_rtt.size());
  out.miss_ms = 1e3 * median(miss_rtt);
  out.requests_per_s = static_cast<double>(requests) / st.timed_s;
  out.response_bytes = requests > 0 ? static_cast<double>(bytes) / static_cast<double>(requests) : 0.0;

  // The stats verb's counts equal the script's.
  {
    std::unique_ptr<Client> client = st.daemon->connect();
    const Response r = client->ask("{\"id\":\"final\",\"cmd\":\"stats\"}");
    const std::string& stats = r.lines.back();
    out.cache_hits = static_cast<std::uint64_t>(json_int_field(stats, "cache_hits", 0));
    out.cache_misses = static_cast<std::uint64_t>(json_int_field(stats, "cache_misses", 0));
    report.check(out.cache_hits == static_cast<std::uint64_t>(hits) &&
                     out.cache_misses == static_cast<std::uint64_t>(misses),
                 "serve: stats verb reports hits/misses " + std::to_string(out.cache_hits) + "/" +
                     std::to_string(out.cache_misses) + ", script made " + std::to_string(hits) +
                     "/" + std::to_string(misses));
  }

  // Theorem 1.2: the diligent adversary's mean spread time over every cell of
  // it served (warmed and missed) is at least 0.5·n/(4kΔ).
  {
    double sum = 0.0;
    std::int64_t count = 0;
    for (std::size_t w = 0; w < warm.size(); ++w) {
      if (kFamilies[w / kWarmPerFamily].rho > 0.0) add_spread_times(warm[w].body, sum, count);
    }
    for (const ClientLog& log : logs) {
      sum += log.adversary_spread;
      count += log.adversary_trials;
    }
    for (const Family& family : kFamilies) {
      if (family.rho <= 0.0) continue;
      const double floor = theorem12_mean_floor(static_cast<double>(family.nodes), family.rho);
      const double mean = count > 0 ? sum / static_cast<double>(count) : 0.0;
      report.check(mean >= floor, "serve: diligent_adversary mean spread time " +
                                      std::to_string(mean) + " below 0.5·n/(4kΔ) = " +
                                      std::to_string(floor));
    }
  }

  // Direct run_experiment of every warmed cell and of client 0's first-round
  // misses, `direct_passes` times over; the serve cells' trial time is the
  // median over the passes of a pass's mean per-trial wall (a mean, since the
  // cells are a fixed mix of families whose median would flip between two).
  std::vector<double> pass_means;
  for (int pass = 0; pass < options.direct_passes; ++pass) {
    double sum = 0.0;
    int cells = 0;
    for (const WarmCell& cell : warm) {
      sum += check_direct(cell.line, cell.body, false, cell.sha, report);
      ++cells;
    }
    for (const auto& [line, response] : logs[0].first_misses) {
      const bool fp = line.find("\"cmd\":\"fingerprint\"") != std::string::npos;
      sum += check_direct(line, body_of(response), fp,
                          json_string_field(response.lines.front(), "fingerprint"), report);
      ++cells;
      if (!fp && pass == 0) out.miss_sample.push_back(line);
    }
    pass_means.push_back(sum / cells);
  }
  out.direct_trial_s = median(pass_means);

  if (options.trace) {
    // In-process handling of hits and fresh misses, and request resolution,
    // timed around the server's own entry points (no socket).
    rumor::ServeServer& server = st.daemon->server();
    std::vector<std::string> sink_lines;
    const rumor::ServeServer::LineSink sink = [&sink_lines](const std::string& line) {
      sink_lines.push_back(line);
      return true;
    };
    std::vector<double> handle_hit, handle_miss, resolve, fingerprint;
    std::int64_t fresh = 0;
    for (int rep = 0; rep < 5; ++rep) {
      for (int w = 0; w < kWarmCells; ++w) {
        const std::string& line = warm[static_cast<std::size_t>(w)].line;
        sink_lines.clear();
        const double h0 = now_s();
        server.handle_request_line(line, sink);
        const double h1 = now_s();
        handle_hit.push_back(h1 - h0);
        spans.add("handle_hit", -1, w, h0, h1);
        const double r0 = now_s();
        const std::vector<rumor::ResolvedCell> cells =
            rumor::resolve_request_cells(rumor::parse_request(line), rumor::ServeLimits{});
        const double r1 = now_s();
        resolve.push_back(r1 - r0);
        spans.add("resolve", -1, w, r0, r1);
        report.check(cells.size() == 1, "serve: warm request resolved to !=1 cell");
        rumor::RecordHasher hasher;
        const double f0 = now_s();
        for (const std::string& l : warm[static_cast<std::size_t>(w)].body) {
          if (json_string_field(l, "record") == "trial") hasher.add(l);
        }
        const std::string digest = hasher.finish();
        const double f1 = now_s();
        fingerprint.push_back(f1 - f0);
        spans.add("fingerprint", -1, w, f0, f1);
        report.check(digest == warm[static_cast<std::size_t>(w)].sha,
                     "repro: RecordHasher differs from the served fingerprint");
        if (rep == 0) {
          const std::string miss = request_line(
              "trace-miss", kFamilies[w / kWarmPerFamily].cmd, w / kWarmPerFamily,
              seed_base + 5'000'000ULL + static_cast<std::uint64_t>(fresh++));
          sink_lines.clear();
          const double m0 = now_s();
          server.handle_request_line(miss, sink);
          const double m1 = now_s();
          handle_miss.push_back(m1 - m0);
          spans.add("handle_miss", -1, w, m0, m1);
          report.operation(!sink_lines.empty() &&
                           json_string_field(sink_lines.front(), "cache") == "miss");
        }
      }
    }
    out.handle_hit_ms = 1e3 * median(handle_hit);
    out.handle_miss_ms = 1e3 * median(handle_miss);
    out.resolve_ms = 1e3 * median(resolve);
    out.fingerprint_ms = 1e3 * median(fingerprint);
    out.transport_ms = out.hit_ms - out.handle_hit_ms;
  }
  return out;
}

std::vector<TrialTrace> trace_serve_cells(const std::vector<std::string>& request_lines,
                                          int trials_per_cell, LayerCounters& counters,
                                          SpanLog& spans, double* resolve_ms, double* build_s) {
  std::vector<TrialTrace> traces;
  std::vector<double> resolves, builds;
  rumor::EngineWorkspace workspace;
  for (const std::string& line : request_lines) {
    const std::vector<rumor::ResolvedCell> cells =
        rumor::resolve_request_cells(rumor::parse_request(line), rumor::ServeLimits{});
    for (const rumor::ResolvedCell& cell : cells) {
      const Shadow shadow =
          cell.config.scenario == "edge_markovian" ? Shadow::delta : Shadow::rebuild;
      const CellPlan plan = plan_cell(cell.config, shadow, MarkovianLaw{});
      resolves.push_back(1e3 * plan.resolve_s);
      builds.push_back(plan.build_s);
      for (int trial = 0; trial < std::min(trials_per_cell, plan.runner.trials); ++trial) {
        TrialTrace t = traced_trial(plan, trial, workspace, counters, spans, -1);
        t.result.informed_flags.clear();
        traces.push_back(std::move(t));
      }
    }
  }
  if (resolve_ms != nullptr) *resolve_ms = median(resolves);
  if (build_s != nullptr) *build_s = median(builds);
  return traces;
}

int run_serve_workload(const RunArgs& args, Report& report) {
  SpanLog spans(args.trace);
  ServeMixOptions options;
  options.clients = 2;
  options.setup_reps = 5;
  options.seed = args.seed;
  options.socket_path = args.socket_path;
  options.trace = args.trace;
  options.direct_passes = 5;
  ServeMix mix(options, report);
  mix.run_rounds(args.seconds);
  const ServeFigures serve = mix.finish(spans);
  if (!args.trace) {
    report.metric("trial_s", serve.direct_trial_s, "s");
    report.metric("setup_s", serve.setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("hit_ms", serve.hit_ms, "ms");
    report.metric("miss_ms", serve.miss_ms, "ms");
    report.metric("requests_per_s", serve.requests_per_s, "1/s");
    return 0;
  }
  // The simulated cells' layers: the sampled misses through the traced path.
  LayerCounters counters;
  double resolve_ms = 0.0, build_s = 0.0;
  const std::vector<TrialTrace> traces =
      trace_serve_cells(serve.miss_sample, kCellTrials, counters, spans, &resolve_ms, &build_s);
  for (const TrialTrace& t : traces) {
    report.operation(t.result.completed &&
                     t.result.informative_contacts == t.result.informed_count - 1);
  }
  report_layers(report, traces, counters, build_s, resolve_ms, serve);
  if (!args.spans_path.empty()) spans.write(args.spans_path);
  return 0;
}

}  // namespace perfbench
