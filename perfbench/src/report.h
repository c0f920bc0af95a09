// Shared plumbing of the benchmark's workload binary: the clock, order
// statistics, output checks, the result line, spans, and run hygiene.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Seconds on the steady clock since an arbitrary fixed origin.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Median of a non-empty sample (mean of the two middle values when even).
double median(std::vector<double> values);

// Collects metrics, operation counts and check failures, and prints the
// benchmark's one-line JSON result.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  // One operation (a trial or a request) ran; `ok` is whether every check on
  // its output held.
  void operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  // A check that is not tied to one operation (a law over all trials, a
  // cross-run identity). Logs the first failures to stderr.
  bool check(bool ok, const std::string& what);

  bool correct() const { return check_failures_ == 0 && failed_ == 0; }

  // {"correct":..,"attempted":..,"failed":..,"metrics":{..}} on one line.
  std::string result_line() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  int check_failures_ = 0;
};

// In-memory span log of the traced run, written out when the run ends. A
// span is one call into a layer, timed from the benchmark's side of it.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(now_s()) {}

  bool enabled() const { return enabled_; }

  // Opens a span and returns its index (-1 when tracing is off).
  int begin(const char* name, int parent, std::int64_t id);
  void end(int span);
  // Records an already-measured interval.
  void add(const char* name, int parent, std::int64_t id, double start_s, double end_s);

  // JSON lines: {"name","start","end","parent","id"} with seconds relative
  // to the log's creation.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    std::int64_t id;
  };
  bool enabled_;
  double origin_;
  std::vector<Span> spans_;
};

// Peak resident set size of this process (getrusage), in MiB.
double peak_rss_mb();

// Restricts the calling thread (and the threads it starts afterwards) to one
// CPU of its allowed set (the highest), so a single-threaded workload does
// not migrate between cores mid-run. Returns the CPU chosen, or -1 when the
// affinity call is unavailable. unpin() restores the set pin_to_one_cpu
// found, for the multi-threaded serve tail.
int pin_to_one_cpu();
void unpin();

// The summary record with its two wall-clock telemetry fields
// (elapsed_seconds, peak_rss_mb) blanked, for byte comparisons of summaries
// produced by different runs of one cell.
std::string without_timing_fields(const std::string& summary_line);

// Field `key` of a flat JSON record line (support/jsonl.h), or `fallback`
// / an empty string when absent.
std::int64_t json_int_field(const std::string& line, const std::string& key,
                            std::int64_t fallback = -1);
std::string json_string_field(const std::string& line, const std::string& key);
double json_double_field(const std::string& line, const std::string& key, double fallback = -1.0);

}  // namespace perfbench
