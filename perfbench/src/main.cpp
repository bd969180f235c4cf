// opsched_perfbench: runs one benchmark workload in this process and prints
// its report as one JSON object on the last line of standard output.
//
//   opsched_perfbench --workload train_host|serve_host|fleet_sim
//                     --seed N --seconds S --trace 0|1
//                     [--trace-out FILE] [--host-profile FILE]
//   opsched_perfbench --write-host-profile FILE
//
// perfbench/run.py builds this binary and wraps it in the benchmark
// contract; run it directly to look at one workload's raw report. The
// second form profiles the host graphs cold and stores the result, which
// is how perfbench/data/host_profile.json was made.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "opsched_perfbench: " << why
            << "\nusage: opsched_perfbench --workload train_host|serve_host|"
               "fleet_sim --seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--host-profile FILE]\n"
               "       opsched_perfbench --write-host-profile FILE\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") opt.workload = value;
      else if (flag == "--seed") opt.seed = std::stoull(value);
      else if (flag == "--seconds") opt.seconds = std::stod(value);
      else if (flag == "--trace") opt.trace = std::stoi(value) != 0;
      else if (flag == "--trace-out") opt.trace_out = value;
      else if (flag == "--host-profile") opt.host_profile = value;
      else if (flag == "--write-host-profile") {
        perfbench::write_host_profile(value);
        std::exit(0);
      } else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (opt.seconds <= 0.0) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Report report;
  try {
    if (opt.workload == "train_host") report = perfbench::run_train_host(opt);
    else if (opt.workload == "serve_host") report = perfbench::run_serve_host(opt);
    else if (opt.workload == "fleet_sim") report = perfbench::run_fleet_sim(opt);
    else usage("unknown workload '" + opt.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "opsched_perfbench: " << opt.workload
              << " failed: " << e.what() << "\n";
    return 1;
  }
  report.fact("host.logical_cores",
              static_cast<double>(std::thread::hardware_concurrency()));
  report.fact("host.compiler", PERFBENCH_COMPILER);
  report.fact("host.build_type", PERFBENCH_BUILD_TYPE);
  std::cout << report.to_json() << std::endl;
  return report.correct() ? 0 : 1;
}
