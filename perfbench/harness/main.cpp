// perfbench -- the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --admitd PATH --out DIR [--jobs N]
//
// Prints progress lines and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. perfbench/run.py builds
// this binary and ioguard_admitd from source and forwards its arguments.
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fig7_sweep|ioguard_observed|"
               "admission_churn --seed N --seconds S --trace 0|1 "
               "--admitd PATH --out DIR [--jobs N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("unexpected argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "admitd", "out"})
    if (args.count(required) == 0)
      return usage(std::string("missing --") + required);

  Options opt;
  try {
    opt.workload = args["workload"];
    opt.seed = std::stoull(args["seed"]);
    opt.seconds = std::stod(args["seconds"]);
    opt.trace = args["trace"] == "1";
    opt.admitd = args["admitd"];
    opt.out_dir = args["out"];
    if (args.count("jobs") != 0) opt.jobs = std::stoul(args["jobs"]);
  } catch (const std::exception& e) {
    return usage(std::string("bad flag value: ") + e.what());
  }
  if (args["trace"] != "0" && args["trace"] != "1")
    return usage("--trace takes 0 or 1");
  if (!(opt.seconds > 0.0) || opt.jobs == 0)
    return usage("--seconds and --jobs must be positive");

  using Fn = std::function<void(const Options&, Report&)>;
  const std::map<std::string, std::pair<Fn, Fn>> workloads = {
      {"fig7_sweep", {perfbench::run_fig7, perfbench::trace_fig7}},
      {"ioguard_observed", {perfbench::run_observed, perfbench::trace_observed}},
      {"admission_churn", {perfbench::run_churn, perfbench::trace_churn}},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) return usage("unknown workload " + opt.workload);

  Report report;
  try {
    (opt.trace ? it->second.second : it->second.first)(opt, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (report.attempted() == 0) {
    std::cerr << "perfbench: no operation was attempted\n";
    return 1;
  }
  report.write_json(std::cout);
  return 0;
}
