// qcongest benchmark runner.
//
//   qc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                [--root DIR] [--work-dir DIR] [--git-sha X] [--src-digest Y]
//                [--tiny] [--corrupt-reference]
//
// Runs one workload for about S seconds and prints a `report {...}` line
// (host fingerprint, model-cost counts, checks, per-workload details) and a
// `result {...}` line (correct / attempted / failed / metrics). perfbench/
// run.py builds this binary and turns the result line into the final line
// the benchmark contract asks for. See perfbench/README.md.

#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "qc_perfbench: " << why
            << "\nusage: qc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--work-dir DIR] [--tiny] "
               "[--corrupt-reference]\n"
               "workloads: exact-diam1024 approx-pa1000 exact-diam256-metrics "
               "serve-p2p10k shard-p2p10k\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        opt.trace = t == "1";
        have_trace = true;
      } else if (a == "--root") {
        opt.root = value();
      } else if (a == "--work-dir") {
        opt.work_dir = value();
      } else if (a == "--git-sha") {
        opt.git_sha = value();
      } else if (a == "--src-digest") {
        opt.src_digest = value();
      } else if (a == "--tiny") {
        opt.tiny = true;
      } else if (a == "--corrupt-reference") {
        opt.corrupt_reference = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opt.workload.empty()) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  opt.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  ::mkdir(opt.work_dir.c_str(), 0755);

  perfbench::Result res;
  try {
    if (opt.workload == "exact-diam1024") {
      perfbench::run_exact(opt, res, false);
    } else if (opt.workload == "exact-diam256-metrics") {
      perfbench::run_exact(opt, res, true);
    } else if (opt.workload == "approx-pa1000") {
      perfbench::run_approx(opt, res);
    } else if (opt.workload == "serve-p2p10k") {
      perfbench::run_serve(opt, res);
    } else if (opt.workload == "shard-p2p10k") {
      perfbench::run_shard(opt, res);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "qc_perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  std::cout << "report " << res.report_json(opt) << "\n";
  std::cout << "result " << res.result_json() << std::endl;
  return 0;
}
