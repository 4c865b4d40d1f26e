// Independent plain-loop evaluation of every benchmarked kernel, straight
// from the coordinate lists the generator produced. The library's dense
// oracle (ref::eval) is exponential at these sizes, so it is not used.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/common.h"
#include "inputs.h"
#include "tensor/tensor.h"

namespace perfbench {

using spdistal::base::KernelKind;

// Dense operand values, shared by the tensors the workloads build and by
// the evaluators below. `which` tells operands of one expression apart.
double vec_value(Coord k);
double mat_value(int which, Coord r, Coord c);

// A kernel output in canonical form: dense outputs hold every value in
// row-major order (idx empty); sparse outputs hold the stored entries as
// sorted row-major linear indices with their values.
struct Output {
  bool sparse = false;
  std::vector<int64_t> idx;
  std::vector<double> val;
};

// Reads a computed output tensor (after its launch has drained).
Output read_output(const spdistal::Tensor& t);

// Evaluates `kind` over `sparse` (one operand, three for SpAdd3) with the
// dense operands of vec_value/mat_value. `dense` is the SpMM column count,
// the SDDMM inner dimension or the SpMTTKRP rank (unused otherwise).
Output evaluate(KernelKind kind, const std::vector<const Coo*>& sparse,
                Coord dense);

// Damped PageRank: `steps` steps of r <- (1 - d) / n + d * A r from the
// uniform vector.
std::vector<double> pagerank(const Coo& a, int steps, double damping);

// Empty when `got` matches `want`: the same pattern, and every value within
// rel * max(floor, |want|) (rel = 0 asks for bit-identical values).
// Otherwise a one-line description of the first difference.
std::string compare(const Output& got, const Output& want, double rel = 1e-9,
                    double floor = 1.0);

// Distinct coordinates over several coordinate lists of one shape (the
// union pattern SpAdd3 must produce).
int64_t union_count(const std::vector<const Coo*>& coos);

}  // namespace perfbench
