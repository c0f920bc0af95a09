#include "report.h"

#include "support/jsonl.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

// Shortest text that reads back as the same double.
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) {
    ++check_failures_;
    if (check_failures_ <= 20) std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  }
  return ok;
}

std::string Report::result_line() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << metrics_[i].name << "\": {\"value\": " << number(metrics_[i].value)
       << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

int SpanLog::begin(const char* name, int parent, std::int64_t id) {
  if (!enabled_) return -1;
  spans_.push_back({name, now_s() - origin_, -1.0, parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end = now_s() - origin_;
}

void SpanLog::add(const char* name, int parent, std::int64_t id, double start_s,
                  double end_s) {
  if (enabled_) spans_.push_back({name, start_s - origin_, end_s - origin_, parent, id});
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start\":" << number(s.start)
        << ",\"end\":" << number(s.end) << ",\"parent\":" << s.parent << ",\"id\":" << s.id
        << "}\n";
  }
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {
cpu_set_t g_allowed;
bool g_pinned = false;
}  // namespace

int pin_to_one_cpu() {
  cpu_set_t& allowed = g_allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  std::size_t cpu = CPU_SETSIZE;
  for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu == CPU_SETSIZE) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  g_pinned = sched_setaffinity(0, sizeof one, &one) == 0;
  return g_pinned ? static_cast<int>(cpu) : -1;
}

void unpin() {
  if (g_pinned) sched_setaffinity(0, sizeof g_allowed, &g_allowed);
  g_pinned = false;
}

namespace {

void blank_number_field(std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return;
  const std::size_t begin = at + needle.size();
  std::size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  line = line.substr(0, begin) + "0" + line.substr(end);
}

}  // namespace

std::string without_timing_fields(const std::string& summary_line) {
  std::string line = summary_line;
  blank_number_field(line, "elapsed_seconds");
  blank_number_field(line, "peak_rss_mb");
  return line;
}

std::int64_t json_int_field(const std::string& line, const std::string& key,
                            std::int64_t fallback) {
  std::int64_t value = fallback;
  return rumor::jsonl_get_int(line, key, &value) ? value : fallback;
}

std::string json_string_field(const std::string& line, const std::string& key) {
  std::string value;
  return rumor::jsonl_get_string(line, key, &value) ? value : std::string{};
}

double json_double_field(const std::string& line, const std::string& key, double fallback) {
  double value = fallback;
  return rumor::jsonl_get_double(line, key, &value) ? value : fallback;
}

}  // namespace perfbench
