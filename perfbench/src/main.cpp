// perfbench_driver: generates a workload's input files, or runs a workload
// from them and prints its result as one JSON line.
//
//   perfbench_driver gen --workload W --seed S --dir D
//   perfbench_driver run --workload W --seed S --dir D --seconds T
//
// perfbench/run.py drives both; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "inputs.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver gen|run --workload W --seed S "
               "--dir D [--seconds T]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> args;
  for (int a = 2; a + 1 < argc; a += 2) args[argv[a]] = argv[a + 1];
  if (!args.count("--workload") || !args.count("--seed") || !args.count("--dir")) {
    return usage();
  }
  try {
    const std::string workload = args["--workload"];
    const uint64_t seed = std::stoull(args["--seed"]);
    const std::string dir = args["--dir"];
    if (cmd == "gen") {
      for (const perfbench::Input& in : perfbench::make_inputs(workload, seed)) {
        const std::string path = dir + "/" + in.file;
        if (in.coo.order() == 2) {
          perfbench::write_mtx(path, in.coo);
        } else {
          perfbench::write_tns(path, in.coo);
        }
      }
      return 0;
    }
    if (cmd != "run") return usage();
    perfbench::RunOptions opt;
    opt.workload = workload;
    opt.seed = seed;
    opt.dir = dir;
    if (args.count("--seconds")) opt.seconds = std::stod(args["--seconds"]);
    const std::string line = perfbench::run_workload(opt);
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
