#include "inputs.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "workloads.h"

namespace perfbench {

uint64_t Rng::next() {
  uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t stream_seed(uint64_t seed, const std::string& label) {
  uint64_t h = 0xCBF29CE484222325ull ^ (seed * 0x9E3779B97F4A7C15ull);
  for (const char ch : label) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001B3ull;
  }
  return h;
}

namespace {

// Draws `k` distinct values from `draw` (rejection; k is small against the
// range, so this terminates quickly), sorted ascending.
template <typename Draw>
std::vector<Coord> distinct(int k, Draw&& draw) {
  std::vector<Coord> out;
  out.reserve(static_cast<size_t>(k));
  while (static_cast<int>(out.size()) < k) {
    const Coord c = draw();
    if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Inverse-CDF sampler of a Zipf law over [0, n): P(r) ~ 1 / (r + 1)^skew.
class Zipf {
 public:
  Zipf(Coord n, double skew) : cdf_(static_cast<size_t>(n)) {
    double acc = 0;
    for (Coord r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), skew);
      cdf_[static_cast<size_t>(r)] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  Coord operator()(Rng& rng) const {
    const double u = rng.unit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<Coord>(static_cast<Coord>(it - cdf_.begin()),
                           static_cast<Coord>(cdf_.size()) - 1);
  }
  // Share of the mass at rank r.
  double weight(Coord r) const {
    const size_t i = static_cast<size_t>(r);
    return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

Coo zipf_graph(Coord n, int max_out, double skew, uint64_t seed) {
  Rng rng(seed);
  const Zipf zipf(n, skew);
  Coo coo;
  coo.dims = {n, n};
  for (Coord j = 0; j < n; ++j) {
    const int d = 1 + static_cast<int>(rng.below(max_out));
    const double v = 1.0 / static_cast<double>(d);
    for (const Coord i : distinct(d, [&] { return zipf(rng); })) {
      coo.push({i, j}, v);
    }
  }
  return coo;
}

Coo banded_matrix(Coord n, int half_band, double keep, uint64_t seed) {
  Rng rng(seed);
  Coo coo;
  coo.dims = {n, n};
  for (Coord i = 0; i < n; ++i) {
    const Coord lo = std::max<Coord>(0, i - half_band);
    const Coord hi = std::min<Coord>(n - 1, i + half_band);
    for (Coord j = lo; j <= hi; ++j) {
      const bool kept = rng.unit() < keep;
      const double v = rng.value();
      if (kept || j == i) coo.push({i, j}, v);
    }
  }
  return coo;
}

Coo block_matrix(Coord n, int br, int bc, int blocks_per_row, uint64_t seed) {
  Rng rng(seed);
  Coo coo;
  coo.dims = {n, n};
  const Coord block_rows = n / br;
  const Coord block_cols = n / bc;
  for (Coord bi = 0; bi < block_rows; ++bi) {
    for (const Coord bj :
         distinct(blocks_per_row, [&] { return rng.below(block_cols); })) {
      for (int r = 0; r < br; ++r) {
        for (int c = 0; c < bc; ++c) {
          coo.push({bi * br + r, bj * bc + c}, rng.value());
        }
      }
    }
  }
  return coo;
}

Coo uniform_matrix(Coord n, Coord m, int per_row, uint64_t seed) {
  Rng rng(seed);
  Coo coo;
  coo.dims = {n, m};
  for (Coord i = 0; i < n; ++i) {
    for (const Coord j : distinct(per_row, [&] { return rng.below(m); })) {
      coo.push({i, j}, rng.value());
    }
  }
  return coo;
}

Coo skewed_matrix(Coord n, int avg, double skew, uint64_t seed) {
  Rng rng(seed);
  const Zipf zipf(n, skew);
  Coo coo;
  coo.dims = {n, n};
  const double total = static_cast<double>(avg) * static_cast<double>(n);
  for (Coord i = 0; i < n; ++i) {
    const double want = total * zipf.weight(i);
    const int d = static_cast<int>(std::clamp<double>(
        std::floor(want + rng.unit()), 1.0, static_cast<double>(n / 4)));
    for (const Coord j : distinct(d, [&] { return rng.below(n); })) {
      coo.push({i, j}, rng.value());
    }
  }
  return coo;
}

Coo uniform_tensor3(Coord d0, Coord d1, Coord d2, int64_t fibers,
                    int per_fiber, uint64_t seed) {
  Rng rng(seed);
  // Distinct (i, j) fibers, drawn as sorted distinct flat indices.
  std::vector<Coord> flat;
  flat.reserve(static_cast<size_t>(fibers));
  for (int64_t f = 0; f < fibers; ++f) flat.push_back(rng.below(d0 * d1));
  flat.push_back(d0 * d1 - 1);  // the corner fiber
  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  Coo coo;
  coo.dims = {d0, d1, d2};
  for (const Coord ij : flat) {
    std::vector<Coord> ks =
        distinct(per_fiber, [&] { return rng.below(d2); });
    if (ij == d0 * d1 - 1 && ks.back() != d2 - 1) ks.back() = d2 - 1;
    for (const Coord k : ks) coo.push({ij / d1, ij % d1, k}, rng.value());
  }
  return coo;
}

namespace {

// Closes a written input file after forcing it to disk, so its writeback
// does not compete with the measured run that reads it.
struct FileCloser {
  void operator()(std::FILE* f) const {
    std::fflush(f);
    fsync(fileno(f));
    std::fclose(f);
  }
};

std::unique_ptr<std::FILE, FileCloser> open_for_write(const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "w"));
  if (!f) throw std::runtime_error("cannot write " + path);
  return f;
}

}  // namespace

void write_mtx(const std::string& path, const Coo& coo) {
  auto f = open_for_write(path);
  std::fprintf(f.get(), "%%%%MatrixMarket matrix coordinate real general\n");
  std::fprintf(f.get(), "%lld %lld %lld\n",
               static_cast<long long>(coo.dims[0]),
               static_cast<long long>(coo.dims[1]),
               static_cast<long long>(coo.nnz()));
  for (size_t e = 0; e < coo.vals.size(); ++e) {
    std::fprintf(f.get(), "%lld %lld %.17g\n",
                 static_cast<long long>(coo.coords[e][0] + 1),
                 static_cast<long long>(coo.coords[e][1] + 1), coo.vals[e]);
  }
}

void write_tns(const std::string& path, const Coo& coo) {
  auto f = open_for_write(path);
  for (size_t e = 0; e < coo.vals.size(); ++e) {
    for (int d = 0; d < coo.order(); ++d) {
      std::fprintf(f.get(), "%lld ",
                   static_cast<long long>(coo.coords[e][static_cast<size_t>(d)] + 1));
    }
    std::fprintf(f.get(), "%.17g\n", coo.vals[e]);
  }
}

std::vector<Input> make_inputs(const std::string& workload, uint64_t seed) {
  auto s = [seed](const std::string& label) {
    return stream_seed(seed, label);
  };
  std::vector<Input> in;
  if (workload == "pagerank") {
    in.push_back({"graph.mtx", zipf_graph(kPagerankPages, kPagerankMaxOut,
                                          kPagerankSkew, s("graph"))});
  } else if (workload == "structured_suite") {
    for (const SuiteSpec& k : suite_specs()) {
      for (const std::string& file : k.files) {
        in.push_back({file, k.make(s(file))});
      }
    }
  } else if (workload == "oneshot_auto") {
    for (const CellSpec& c : cell_specs()) {
      for (const std::string& file : c.files) {
        in.push_back({file, c.make(s(file))});
      }
    }
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  return in;
}

}  // namespace perfbench
