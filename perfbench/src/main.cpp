// perfbench — runs one workload for one seed and prints its metrics.
//
//   perfbench --workload <serve_mem|serve_ooc|serve_churn|batch>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>] [--work-dir <dir>]
//
// Human-readable lines start with '#'; the last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// split (and writes the traced pass's spans to --spans).
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans PATH] [--work-dir DIR]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    usage(flag + " needs a whole number");
  }
  if (used != v.size()) usage(flag + " needs a whole number");
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.work_dir = "perfbench-work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(flag, v));
      if (args.seconds < 1) usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--spans") {
      args.spans_path = v;
    } else if (flag == "--work-dir") {
      args.work_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!perfbench::is_serve_workload(args.workload) && args.workload != "batch") {
    usage("unknown workload " + args.workload);
  }
  try {
    std::filesystem::create_directories(args.work_dir);
    std::cout << "# perfbench workload=" << args.workload << " seed=" << args.seed
              << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0) << '\n';
    const perfbench::RunResult res = args.workload == "batch" ? perfbench::run_batch(args)
                                                              : perfbench::run_serve(args);
    std::cout << res.detail.human("# ") << res.report.human("# metric ");
    std::cout << "# detail " << res.detail.json(res.correct, res.attempted, res.failed) << '\n';
    std::cout << res.report.json(res.correct, res.attempted, res.failed) << std::endl;
    return res.correct ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
