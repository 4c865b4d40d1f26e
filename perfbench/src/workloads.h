// The benchmark's workloads: what each one builds, and the driver that
// runs one of them from its generated input files.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "reference.h"

namespace perfbench {

// --- pagerank -----------------------------------------------------------------
// A skewed web graph ranked on 8 simulated CPU nodes, once under the row
// schedule and once under the non-zero (~) schedule, with row-distributed
// rank vectors the host rewrites and invalidates every step.
inline constexpr Coord kPagerankPages = 12000;
inline constexpr int kPagerankMaxOut = 10;  // out-degree uniform in [1, 10]
inline constexpr double kPagerankSkew = 1.0;
inline constexpr int kPagerankNodes = 8;
inline constexpr double kDamping = 0.85;

// A simulated machine: `nodes` nodes of CPUs, or one node of `gpus` GPUs.
struct MachineSpec {
  int nodes = 1;
  int gpus = 0;
};

// --- structured_suite ---------------------------------------------------------
// Steady-state launches of hand-scheduled kernels on 4 simulated CPU nodes.
inline constexpr int kSuiteNodes = 4;

struct SuiteSpec {
  std::string name;
  KernelKind kind;
  std::vector<std::string> files;  // sparse operands, in expression order
  std::function<Coo(uint64_t)> make;
  bool blocked = false;  // pack the matrix as bcsr(4, 4)
  Coord dense = 0;       // SpMM columns / SDDMM inner dim / SpMTTKRP rank
};
const std::vector<SuiteSpec>& suite_specs();

// --- oneshot_auto -------------------------------------------------------------
// "Bring your own matrix": each cell reads its files, picks a format, packs,
// searches a schedule cold, compiles, instantiates, launches cold and
// iterates a few times.
struct CellSpec {
  std::string name;
  KernelKind kind;
  std::vector<std::string> files;
  std::function<Coo(uint64_t)> make;
  Coord dense = 0;
  MachineSpec machine;
};
const std::vector<CellSpec>& cell_specs();

// Steady-state launches per instance over which simulated time and
// SimReport counts are taken (a fixed window, so they are deterministic).
inline constexpr int kSimWindow = 3;

// Cold first launches timed per kernel, each of a fresh instance (new
// runtime, instantiated from the same compiled kernel); an instance's
// first-launch time is their median. pagerank and structured_suite run
// kColdRounds rounds spread over the run; oneshot_auto launches each cell's
// instance and kCellColdLaunches - 1 fresh ones in every round, then
// kCellSteadyLaunches steady launches. One cold launch is too short a sample
// to repeat between runs on a shared machine.
inline constexpr int kColdRounds = 12;
inline constexpr int kCellColdLaunches = 3;
inline constexpr int kCellSteadyLaunches = 6;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  std::string dir;       // where the generated input files are
  double seconds = 10;   // how long the measured loop runs
};

// Runs one workload and returns its result as a one-line JSON object.
std::string run_workload(const RunOptions& options);

}  // namespace perfbench
