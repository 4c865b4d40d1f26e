#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

using spdistal::Tensor;

double vec_value(Coord k) { return 1.0 + 0.01 * static_cast<double>(k % 97); }

double mat_value(int which, Coord r, Coord c) {
  return 0.5 + 0.01 * static_cast<double>((r * 3 + c + 7 * which) % 53);
}

namespace {

Coord extent(const Coo& c, int d) { return c.dims[static_cast<size_t>(d)]; }
size_t at(const Coo& c, size_t e, int d) {
  return static_cast<size_t>(c.coords[e][static_cast<size_t>(d)]);
}

// Sparse output from an (index -> value) list. With `combine`, repeated
// indices are summed (evaluators); without, they stay distinct entries, so a
// duplicate stored by the library shows as a pattern difference.
Output sparse_output(std::vector<std::pair<int64_t, double>> entries,
                     bool combine = true) {
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Output out;
  out.sparse = true;
  for (const auto& [i, v] : entries) {
    if (combine && !out.idx.empty() && out.idx.back() == i) {
      out.val.back() += v;
    } else {
      out.idx.push_back(i);
      out.val.push_back(v);
    }
  }
  return out;
}

}  // namespace

Output read_output(const Tensor& t) {
  const auto& dims = t.dims();
  const int64_t cols = dims.size() > 1 ? dims[1] : 1;
  auto linear = [cols](const auto& c) { return c[0] * cols + (cols > 1 ? c[1] : 0); };
  Output out;
  if (t.format().all_dense()) {
    const int64_t n = std::accumulate(dims.begin(), dims.end(), int64_t{1},
                                      std::multiplies<int64_t>());
    out.val.assign(static_cast<size_t>(n), 0.0);
    t.storage().for_each([&](const auto& c, double v) {
      out.val[static_cast<size_t>(linear(c))] = v;
    });
    return out;
  }
  std::vector<std::pair<int64_t, double>> entries;
  t.storage().for_each(
      [&](const auto& c, double v) { entries.emplace_back(linear(c), v); });
  return sparse_output(std::move(entries), /*combine=*/false);
}

Output evaluate(KernelKind kind, const std::vector<const Coo*>& sparse,
                Coord dense) {
  const Coo& b = *sparse.at(0);
  const size_t nnz = b.vals.size();
  const size_t r = static_cast<size_t>(dense);
  Output out;
  switch (kind) {
    case KernelKind::SpMV: {
      out.val.assign(static_cast<size_t>(extent(b, 0)), 0.0);
      for (size_t e = 0; e < nnz; ++e) {
        out.val[at(b, e, 0)] +=
            b.vals[e] * vec_value(static_cast<Coord>(at(b, e, 1)));
      }
      return out;
    }
    case KernelKind::SpMM: {
      out.val.assign(static_cast<size_t>(extent(b, 0)) * r, 0.0);
      for (size_t e = 0; e < nnz; ++e) {
        const Coord k = static_cast<Coord>(at(b, e, 1));
        double* row = &out.val[at(b, e, 0) * r];
        for (size_t j = 0; j < r; ++j) {
          row[j] += b.vals[e] * mat_value(0, k, static_cast<Coord>(j));
        }
      }
      return out;
    }
    case KernelKind::SpAdd3: {
      std::vector<std::pair<int64_t, double>> entries;
      for (const Coo* c : sparse) {
        for (size_t e = 0; e < c->vals.size(); ++e) {
          entries.emplace_back(
              static_cast<int64_t>(at(*c, e, 0)) * extent(*c, 1) +
                  static_cast<int64_t>(at(*c, e, 1)),
              c->vals[e]);
        }
      }
      return sparse_output(std::move(entries));
    }
    case KernelKind::SDDMM: {
      std::vector<std::pair<int64_t, double>> entries;
      for (size_t e = 0; e < nnz; ++e) {
        const Coord i = static_cast<Coord>(at(b, e, 0));
        const Coord j = static_cast<Coord>(at(b, e, 1));
        double dot = 0;
        for (Coord k = 0; k < dense; ++k) {
          dot += mat_value(0, i, k) * mat_value(1, k, j);
        }
        entries.emplace_back(i * extent(b, 1) + j, b.vals[e] * dot);
      }
      return sparse_output(std::move(entries));
    }
    case KernelKind::SpTTV: {
      std::vector<std::pair<int64_t, double>> entries;
      for (size_t e = 0; e < nnz; ++e) {
        entries.emplace_back(
            static_cast<int64_t>(at(b, e, 0)) * extent(b, 1) +
                static_cast<int64_t>(at(b, e, 1)),
            b.vals[e] * vec_value(static_cast<Coord>(at(b, e, 2))));
      }
      return sparse_output(std::move(entries));
    }
    case KernelKind::SpMTTKRP: {
      out.val.assign(static_cast<size_t>(extent(b, 0)) * r, 0.0);
      for (size_t e = 0; e < nnz; ++e) {
        const Coord j = static_cast<Coord>(at(b, e, 1));
        const Coord k = static_cast<Coord>(at(b, e, 2));
        double* row = &out.val[at(b, e, 0) * r];
        for (size_t l = 0; l < r; ++l) {
          const Coord lc = static_cast<Coord>(l);
          row[l] += b.vals[e] * mat_value(0, j, lc) * mat_value(1, k, lc);
        }
      }
      return out;
    }
    case KernelKind::Other:
      break;
  }
  return out;
}

std::vector<double> pagerank(const Coo& a, int steps, double damping) {
  const size_t n = static_cast<size_t>(a.dims[0]);
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (int s = 0; s < steps; ++s) {
    std::fill(next.begin(), next.end(), 0.0);
    for (size_t e = 0; e < a.vals.size(); ++e) {
      next[at(a, e, 0)] += a.vals[e] * rank[at(a, e, 1)];
    }
    for (size_t k = 0; k < n; ++k) {
      rank[k] = (1.0 - damping) / static_cast<double>(n) + damping * next[k];
    }
  }
  return rank;
}

std::string compare(const Output& got, const Output& want, double rel,
                    double floor) {
  char buf[256];
  if (got.sparse != want.sparse || got.val.size() != want.val.size()) {
    std::snprintf(buf, sizeof buf, "shape differs: %zu %s values, want %zu",
                  got.val.size(), got.sparse ? "sparse" : "dense",
                  want.val.size());
    return buf;
  }
  for (size_t q = 0; q < want.val.size(); ++q) {
    if (want.sparse && got.idx[q] != want.idx[q]) {
      std::snprintf(buf, sizeof buf,
                    "pattern differs at entry %zu: index %lld, want %lld", q,
                    static_cast<long long>(got.idx[q]),
                    static_cast<long long>(want.idx[q]));
      return buf;
    }
    const double w = want.val[q];
    if (!(std::abs(got.val[q] - w) <= rel * std::max(floor, std::abs(w)))) {
      std::snprintf(buf, sizeof buf, "value differs at entry %zu: %.17g, want %.17g",
                    q, got.val[q], w);
      return buf;
    }
  }
  return "";
}

int64_t union_count(const std::vector<const Coo*>& coos) {
  std::vector<int64_t> idx;
  for (const Coo* c : coos) {
    for (size_t e = 0; e < c->vals.size(); ++e) {
      idx.push_back(static_cast<int64_t>(at(*c, e, 0)) * extent(*c, 1) +
                    static_cast<int64_t>(at(*c, e, 1)));
    }
  }
  std::sort(idx.begin(), idx.end());
  return std::unique(idx.begin(), idx.end()) - idx.begin();
}

}  // namespace perfbench
