#include "tensor/tensor.h"

namespace spdistal {

namespace {
std::map<std::string, Tensor> merge_bindings(
    const std::map<std::string, Tensor>& a,
    const std::map<std::string, Tensor>& b) {
  std::map<std::string, Tensor> out = a;
  for (const auto& [name, t] : b) {
    auto it = out.find(name);
    SPD_CHECK(it == out.end() || it->second.same_as(t), NotationError,
              "two distinct tensors named '" << name
                                             << "' in one expression");
    out.emplace(name, t);
  }
  return out;
}
}  // namespace

BoundExpr operator*(const BoundExpr& a, const BoundExpr& b) {
  return BoundExpr{tin::make_mul({a.node, b.node}),
                   merge_bindings(a.bindings, b.bindings)};
}

BoundExpr operator+(const BoundExpr& a, const BoundExpr& b) {
  return BoundExpr{tin::make_add({a.node, b.node}),
                   merge_bindings(a.bindings, b.bindings)};
}

BoundExpr literal(double v) { return BoundExpr{tin::make_literal(v), {}}; }

const Tensor& Statement::tensor(const std::string& name) const {
  auto it = bindings.find(name);
  SPD_CHECK(it != bindings.end(), NotationError,
            "statement references unbound tensor '" << name << "'");
  return it->second;
}

Coord var_extent(const Statement& stmt, const IndexVar& v) {
  auto scan = [&](const tin::Access& a) -> Coord {
    const Tensor& t = stmt.tensor(a.tensor);
    for (size_t d = 0; d < a.vars.size(); ++d) {
      if (a.vars[d] == v) return t.dims()[d];
    }
    return -1;
  };
  Coord n = scan(stmt.assignment.lhs);
  if (n >= 0) return n;
  for (const auto& a : tin::expr_accesses(stmt.assignment.rhs)) {
    n = scan(a);
    if (n >= 0) return n;
  }
  return -1;
}

std::vector<IndexVar> fused_level_vars(const Statement& stmt,
                                       const std::string& tensor, int depth) {
  const Tensor& t = stmt.tensor(tensor);
  const auto accesses = tin::expr_accesses(stmt.assignment.rhs);
  const tin::Access* access = nullptr;
  for (const auto& a : accesses) {
    if (a.tensor == tensor) access = &a;
  }
  if (access == nullptr) return {};
  std::vector<IndexVar> out;
  for (int l = 0; l < depth && l < t.format().order(); ++l) {
    out.push_back(
        access->vars[static_cast<size_t>(t.format().dim_of_level(l))]);
  }
  return out;
}

TensorAccess::TensorAccess(Tensor tensor, std::vector<IndexVar> vars)
    : tensor_(std::make_shared<Tensor>(std::move(tensor))),
      vars_(std::move(vars)) {
  SPD_CHECK(static_cast<int>(vars_.size()) == tensor_->format().order(),
            NotationError,
            "access to " << tensor_->name() << " has " << vars_.size()
                         << " vars, tensor order is "
                         << tensor_->format().order());
}

TensorAccess::operator BoundExpr() const {
  return BoundExpr{tin::make_access(tensor_->name(), vars_),
                   {{tensor_->name(), *tensor_}}};
}

Statement& TensorAccess::define(const BoundExpr& rhs, bool accumulate) {
  Statement stmt;
  stmt.assignment =
      tin::Assignment{tin::Access{tensor_->name(), vars_}, rhs.node,
                      accumulate};
  stmt.bindings = merge_bindings(rhs.bindings,
                                 {{tensor_->name(), *tensor_}});
  // The definition lives inside the output's own data, so it binds the
  // output through a non-owning handle: an owning one would be a
  // shared_ptr cycle that keeps the tensor, its storage and its operands
  // alive forever. Copies of the statement own the output again.
  stmt.bindings.at(tensor_->name()).data_ =
      std::shared_ptr<Tensor::Data>(std::shared_ptr<Tensor::Data>(),
                                    tensor_->data_.get());
  tensor_->data_->definition = std::move(stmt);
  return *tensor_->data_->definition;
}

Statement& TensorAccess::operator=(const BoundExpr& rhs) {
  return define(rhs, false);
}

Statement& TensorAccess::operator+=(const BoundExpr& rhs) {
  return define(rhs, true);
}

BoundExpr operator*(const TensorAccess& a, const TensorAccess& b) {
  return static_cast<BoundExpr>(a) * static_cast<BoundExpr>(b);
}

BoundExpr operator+(const TensorAccess& a, const TensorAccess& b) {
  return static_cast<BoundExpr>(a) + static_cast<BoundExpr>(b);
}

Tensor::Tensor(std::string name, std::vector<Coord> dims, fmt::Format format,
               std::optional<tdn::Distribution> distribution)
    : data_(std::make_shared<Data>()) {
  SPD_CHECK(static_cast<int>(dims.size()) == format.order(), NotationError,
            "tensor " << name << ": dims/format order mismatch");
  data_->name = std::move(name);
  data_->dims = std::move(dims);
  data_->format = std::move(format);
  data_->distribution = std::move(distribution);
  if (data_->format.all_dense()) {
    // Dense tensors always have storage (zero-initialized).
    data_->storage =
        fmt::pack(data_->name, data_->format, data_->dims, [&] {
          fmt::Coo coo;
          coo.dims = data_->dims;
          return coo;
        }());
    data_->has_storage = true;
  }
}

const std::string& Tensor::name() const { return data_->name; }
const std::vector<Coord>& Tensor::dims() const { return data_->dims; }
const fmt::Format& Tensor::format() const { return data_->format; }
const std::optional<tdn::Distribution>& Tensor::distribution() const {
  return data_->distribution;
}
void Tensor::set_distribution(tdn::Distribution d) {
  data_->distribution = std::move(d);
}

void Tensor::from_coo(fmt::Coo coo) {
  data_->storage = fmt::pack(data_->name, data_->format, data_->dims,
                             std::move(coo));
  data_->has_storage = true;
}

void Tensor::init_dense(
    const std::function<double(const std::array<Coord, rt::kMaxDim>&)>& fn) {
  SPD_CHECK(data_->format.all_dense(), NotationError,
            "init_dense on sparse tensor " << data_->name);
  // Walk every coordinate of the dense space.
  auto& vals = *data_->storage.vals();
  std::array<Coord, rt::kMaxDim> c{};
  const int order = data_->format.order();
  Coord pos = 0;
  std::function<void(int)> rec = [&](int level) {
    if (level == order) {
      vals.at_linear(pos++) = fn(c);
      return;
    }
    const int dim = data_->format.dim_of_level(level);
    for (Coord v = 0; v < data_->dims[static_cast<size_t>(dim)]; ++v) {
      c[static_cast<size_t>(dim)] = v;
      rec(level + 1);
    }
  };
  rec(0);
}

void Tensor::zero() {
  SPD_CHECK(data_->has_storage, NotationError,
            "zero() before storage exists for " << data_->name);
  data_->storage.vals()->fill(0.0);
}

bool Tensor::has_storage() const { return data_->has_storage; }

fmt::TensorStorage& Tensor::storage() {
  SPD_CHECK(data_->has_storage, NotationError,
            "tensor " << data_->name << " has no data yet");
  return data_->storage;
}

const fmt::TensorStorage& Tensor::storage() const {
  SPD_CHECK(data_->has_storage, NotationError,
            "tensor " << data_->name << " has no data yet");
  return data_->storage;
}

void Tensor::set_storage(fmt::TensorStorage st) {
  data_->storage = std::move(st);
  data_->has_storage = true;
}

TensorAccess Tensor::operator()(IndexVar i) { return access({i}); }
TensorAccess Tensor::operator()(IndexVar i, IndexVar j) {
  return access({i, j});
}
TensorAccess Tensor::operator()(IndexVar i, IndexVar j, IndexVar k) {
  return access({i, j, k});
}
TensorAccess Tensor::access(std::vector<IndexVar> vars) {
  return TensorAccess(*this, std::move(vars));
}

bool Tensor::has_definition() const {
  return data_->definition.has_value();
}

Statement& Tensor::definition() {
  SPD_CHECK(data_->definition.has_value(), NotationError,
            "tensor " << data_->name << " has no defining statement");
  return *data_->definition;
}

const Statement& Tensor::definition() const {
  return const_cast<Tensor*>(this)->definition();
}

sched::Schedule& Tensor::schedule() { return data_->schedule; }
const sched::Schedule& Tensor::schedule() const { return data_->schedule; }

// Tensor::autoschedule is defined in autosched/autosched.cpp so the tensor
// module stays at the bottom of the layering (no dependency on the search).

}  // namespace spdistal
