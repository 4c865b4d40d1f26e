// The benchmark's own seeded input generator.
//
// Every workload's tensors are a pure function of (workload, seed): they are
// generated here, written as MatrixMarket (.mtx) or FROSTT (.tns) files
// before timing, and read back through io::read_matrix_market / io::read_tns
// inside the timed set-up. The generator does not use src/data, so a change
// to the library's generators cannot shift a workload. Every generated
// coordinate list is duplicate-free, so its nnz is exactly what is stored.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "format/storage.h"

namespace perfbench {

using spdistal::fmt::Coo;
using spdistal::rt::Coord;

// splitmix64: small, fast and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next();
  // Uniform in [0, n).
  Coord below(Coord n) { return static_cast<Coord>(next() % static_cast<uint64_t>(n)); }
  // Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  // A non-zero value exactly representable in a short decimal: k / 8 for
  // k in [1, 16], so the written files round-trip bit for bit.
  double value() { return static_cast<double>(1 + below(16)) / 8.0; }

 private:
  uint64_t s_;
};

// Derives an independent stream seed from the run seed and a label.
uint64_t stream_seed(uint64_t seed, const std::string& label);

// Column-stochastic web graph: every column j (a page) links to d_j >= 1
// distinct rows drawn from a Zipf law of exponent `skew` over row indices
// (hub pages at low indices), with value 1 / d_j. No column is dangling, so
// a damped PageRank step conserves total rank.
Coo zipf_graph(Coord n, int max_out, double skew, uint64_t seed);

// Banded matrix: each row keeps each position of the band |i - j| <=
// half_band with probability `keep` (the diagonal always).
Coo banded_matrix(Coord n, int half_band, double keep, uint64_t seed);

// Block-structured matrix: `blocks_per_row` fully dense br x bc tiles per
// block row at distinct uniformly drawn block columns.
Coo block_matrix(Coord n, int br, int bc, int blocks_per_row, uint64_t seed);

// Uniform matrix: `per_row` distinct uniformly drawn columns in every row.
Coo uniform_matrix(Coord n, Coord m, int per_row, uint64_t seed);

// Skewed matrix: row i holds about avg * zipf-weight distinct columns
// (heavy rows at low indices), at least one per row.
Coo skewed_matrix(Coord n, int avg, double skew, uint64_t seed);

// Uniform 3-tensor: `per_fiber` distinct k coordinates in each of `fibers`
// distinct (i, j) fibers; the corner (d0-1, d1-1, d2-1) is always present so
// the .tns reader infers the full dimensions.
Coo uniform_tensor3(Coord d0, Coord d1, Coord d2, int64_t fibers,
                    int per_fiber, uint64_t seed);

// File writers with full double precision (the library's writers print six
// significant digits).
void write_mtx(const std::string& path, const Coo& coo);
void write_tns(const std::string& path, const Coo& coo);

// One generated operand: its file name inside the input directory and the
// coordinate list the file holds.
struct Input {
  std::string file;
  Coo coo;
};

// Every input file of `workload` for `seed`, in a fixed order. Throws
// std::invalid_argument for an unknown workload.
std::vector<Input> make_inputs(const std::string& workload, uint64_t seed);

}  // namespace perfbench
