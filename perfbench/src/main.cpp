// perfbench_workload: runs one benchmark workload in this (fresh) process and
// prints its result as the last line of stdout. perfbench/run.py is the
// driver; run it directly only to debug a workload:
//
//   perfbench_workload --workload em_churn --seed 1 --seconds 10 --trace 0
//       [--spans FILE] [--socket PATH]
//   perfbench_workload --hwinfo
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "support/simd.h"
#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench_workload --workload NAME --seed N --seconds S --trace 0|1\n"
               "                          [--spans FILE] [--socket PATH]\n"
               "       perfbench_workload --hwinfo\n"
               "workloads: em_churn torus_static adversary_bounds serve_mixed\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--hwinfo") {
      std::cout << "{\"simd_tier\":\"" << rumor::simd::kTierName
                << "\",\"simd_lanes\":" << rumor::simd::kLanes
                << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
                << ",\"sanitizer\":\"" << RUMOR_SANITIZER << "\",\"build_type\":\""
                << PERFBENCH_BUILD_TYPE << "\"}\n";
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--socket") {
      args.socket_path = value;
    } else {
      return usage();
    }
  }
  if (args.workload.empty()) return usage();
  if (args.socket_path.empty()) args.socket_path = "perfbench-" + args.workload + ".sock";

  // Sanitizer runtimes and unoptimized code distort wall clock several-fold;
  // such a build must never produce a figure.
  if (std::strcmp(RUMOR_SANITIZER, "none") != 0 ||
      std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench: refusing to time a " << PERFBENCH_BUILD_TYPE
              << " build with sanitizer '" << RUMOR_SANITIZER << "'; build Release, unsanitized\n";
    return 2;
  }

  perfbench::Report report;
  try {
    if (args.workload == "serve_mixed") {
      perfbench::run_serve_workload(args, report);
    } else {
      perfbench::run_sim_workload(args, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  std::cout << report.result_line() << std::endl;
  return report.correct() ? 0 : 1;
}
