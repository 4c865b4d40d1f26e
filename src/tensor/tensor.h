// User-facing tensor frontend: the C++ API of Figure 1.
//
//   Machine M = ...;
//   Tensor B("B", {n, m}, BlockedCSR);
//   Tensor a("a", {n}, BlockedDense), c("c", {m}, ReplDense);
//   IndexVar i("i"), j("j");
//   a(i) = B(i, j) * c(j);
//   a.schedule().divide(i, io, ii, pieces).distribute(io)
//               .communicate({"a","B","c"}, io)
//               .parallelize(ii, CPUThread);
//
// A Tensor couples a name, dimensions, a Format (data structure), an
// optional Distribution (TDN placement), and packed storage. Assigning into
// an access records the defining statement and its tensor bindings on the
// output tensor, which the compiler consumes.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "format/storage.h"
#include "sched/schedule.h"
#include "tdn/tdn.h"
#include "tin/tin.h"

namespace spdistal {

namespace rt {
class Machine;
}

using rt::Coord;
using tin::IndexVar;

class Tensor;

// An expression carrying both the TIN AST and the tensors it references.
struct BoundExpr {
  tin::Expr node;
  std::map<std::string, Tensor> bindings;
};

BoundExpr operator*(const BoundExpr& a, const BoundExpr& b);
BoundExpr operator+(const BoundExpr& a, const BoundExpr& b);
BoundExpr literal(double v);

// A complete statement: assignment + every referenced tensor.
struct Statement {
  tin::Assignment assignment;
  std::map<std::string, Tensor> bindings;

  const Tensor& tensor(const std::string& name) const;
  std::string str() const { return tin::assignment_str(assignment); }
};

// Extent of `v` in `stmt`, from the dims of any access that uses it; -1 if
// the variable appears nowhere in the statement.
Coord var_extent(const Statement& stmt, const IndexVar& v);

// The variables of `tensor`'s leading `depth` storage levels, as accessed on
// the statement's rhs — the fuse chain of a position-space split. Empty if
// the rhs does not read `tensor`; shorter than `depth` if `depth` exceeds
// the tensor's order.
std::vector<IndexVar> fused_level_vars(const Statement& stmt,
                                       const std::string& tensor, int depth);

// Result of Tensor::operator(): convertible to an expression operand, and
// assignable to define the tensor's computation.
class TensorAccess {
 public:
  TensorAccess(Tensor tensor, std::vector<IndexVar> vars);

  operator BoundExpr() const;
  // Records `this = rhs` as the defining statement of the accessed tensor.
  Statement& operator=(const BoundExpr& rhs);
  Statement& operator+=(const BoundExpr& rhs);
  // Access-to-access assignment is a statement too (e.g. A(i,j) = s(i)),
  // not a handle copy.
  Statement& operator=(const TensorAccess& rhs) {
    return *this = static_cast<BoundExpr>(rhs);
  }

 private:
  Statement& define(const BoundExpr& rhs, bool accumulate);
  std::shared_ptr<Tensor> tensor_;
  std::vector<IndexVar> vars_;
};

BoundExpr operator*(const TensorAccess& a, const TensorAccess& b);
BoundExpr operator+(const TensorAccess& a, const TensorAccess& b);

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::string name, std::vector<Coord> dims, fmt::Format format,
         std::optional<tdn::Distribution> distribution = std::nullopt);
  // Copies always own the tensor, even when copied from the non-owning
  // self-binding a definition keeps of its output (see TensorAccess::define).
  Tensor(const Tensor& o) : data_(o.owning()) {}
  Tensor& operator=(const Tensor& o) {
    data_ = o.owning();
    return *this;
  }
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  const std::string& name() const;
  const std::vector<Coord>& dims() const;
  const fmt::Format& format() const;
  const std::optional<tdn::Distribution>& distribution() const;
  void set_distribution(tdn::Distribution d);

  // --- data ------------------------------------------------------------------

  // Packs a coordinate list into this tensor's format.
  void from_coo(fmt::Coo coo);
  // Initializes an all-dense tensor with fn(coords) (or zero).
  void init_dense(
      const std::function<double(const std::array<Coord, rt::kMaxDim>&)>& fn);
  void zero();
  bool has_storage() const;
  fmt::TensorStorage& storage();
  const fmt::TensorStorage& storage() const;
  // Replaces the storage wholesale (used by packing/assembly utilities).
  void set_storage(fmt::TensorStorage st);

  // --- computation ------------------------------------------------------------

  TensorAccess operator()(IndexVar i);
  TensorAccess operator()(IndexVar i, IndexVar j);
  TensorAccess operator()(IndexVar i, IndexVar j, IndexVar k);
  TensorAccess access(std::vector<IndexVar> vars);

  // The statement recorded by the last assignment into this tensor.
  bool has_definition() const;
  Statement& definition();
  const Statement& definition() const;

  // Scheduling builder for the defining statement.
  sched::Schedule& schedule();
  const sched::Schedule& schedule() const;

  // Replaces this tensor's schedule with one found by the auto-scheduler
  // (autosched::autoschedule) for its defining statement on `machine`, and
  // returns it. Compiling an unscheduled statement also searches, but uses
  // the plan without recording it (a recorded schedule is machine-specific).
  sched::Schedule& autoschedule(const rt::Machine& machine);

  // Identity: Tensors are shared handles.
  bool same_as(const Tensor& o) const { return data_ == o.data_; }

 private:
  friend class TensorAccess;
  struct Data : std::enable_shared_from_this<Data> {
    std::string name;
    std::vector<Coord> dims;
    fmt::Format format;
    std::optional<tdn::Distribution> distribution;
    fmt::TensorStorage storage;
    bool has_storage = false;
    std::optional<Statement> definition;
    sched::Schedule schedule;
  };
  std::shared_ptr<Data> owning() const {
    // A non-owning handle aliases live data with an empty control block.
    if (data_ != nullptr && data_.use_count() == 0) {
      return data_->shared_from_this();
    }
    return data_;
  }
  std::shared_ptr<Data> data_;
};

}  // namespace spdistal
