#include "workloads.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <type_traits>

#include "common/str_util.h"
#include "spdistal/spdistal.h"

namespace perfbench {

using namespace spdistal;  // NOLINT: benchmark-local translation unit

const std::vector<SuiteSpec>& suite_specs() {
  static const std::vector<SuiteSpec> specs = {
      {"spmv_banded", KernelKind::SpMV, {"spmv_banded.mtx"},
       [](uint64_t s) { return banded_matrix(60000, 6, 0.7, s); }},
      {"spmm_banded", KernelKind::SpMM, {"spmm_banded.mtx"},
       [](uint64_t s) { return banded_matrix(40000, 4, 0.7, s); }, false, 32},
      {"spadd3_banded", KernelKind::SpAdd3,
       {"spadd3_b.mtx", "spadd3_c.mtx", "spadd3_d.mtx"},
       [](uint64_t s) { return banded_matrix(40000, 4, 0.5, s); }},
      {"sddmm_banded", KernelKind::SDDMM, {"sddmm_banded.mtx"},
       [](uint64_t s) { return banded_matrix(40000, 4, 0.7, s); }, false, 32},
      {"spttv_uniform", KernelKind::SpTTV, {"spttv_uniform.tns"},
       [](uint64_t s) { return uniform_tensor3(400, 400, 4000, 20000, 10, s); }},
      {"spmttkrp_uniform", KernelKind::SpMTTKRP, {"spmttkrp_uniform.tns"},
       [](uint64_t s) { return uniform_tensor3(400, 400, 4000, 20000, 10, s); },
       false, 16},
      {"spmv_bcsr", KernelKind::SpMV, {"spmv_block.mtx"},
       [](uint64_t s) { return block_matrix(30000, 4, 4, 4, s); }, true},
      {"spmm_bcsr", KernelKind::SpMM, {"spmm_block.mtx"},
       [](uint64_t s) { return block_matrix(20000, 4, 4, 4, s); }, true, 32},
  };
  return specs;
}

const std::vector<CellSpec>& cell_specs() {
  static const std::vector<CellSpec> specs = {
      {"spmv_block_cpu2", KernelKind::SpMV, {"spmv_block_cpu2.mtx"},
       [](uint64_t s) { return block_matrix(16000, 4, 4, 3, s); }, 0, {2, 0}},
      {"spmv_skewed_cpu8", KernelKind::SpMV, {"spmv_skewed_cpu8.mtx"},
       [](uint64_t s) { return skewed_matrix(8000, 8, 1.0, s); }, 0, {8, 0}},
      {"spmm_banded_cpu2", KernelKind::SpMM, {"spmm_banded_cpu2.mtx"},
       [](uint64_t s) { return banded_matrix(20000, 4, 0.7, s); }, 32, {2, 0}},
      {"spadd3_uniform_cpu8", KernelKind::SpAdd3,
       {"spadd3_b_cpu8.mtx", "spadd3_c_cpu8.mtx", "spadd3_d_cpu8.mtx"},
       [](uint64_t s) { return uniform_matrix(20000, 20000, 4, s); }, 0, {8, 0}},
      {"sddmm_skewed_cpu2", KernelKind::SDDMM, {"sddmm_skewed_cpu2.mtx"},
       [](uint64_t s) { return skewed_matrix(10000, 8, 1.0, s); }, 32, {2, 0}},
      {"spttv_uniform_cpu8", KernelKind::SpTTV, {"spttv_uniform_cpu8.tns"},
       [](uint64_t s) { return uniform_tensor3(100, 100, 1000, 5000, 10, s); },
       0, {8, 0}},
      {"spmttkrp_uniform_cpu2", KernelKind::SpMTTKRP,
       {"spmttkrp_uniform_cpu2.tns"},
       [](uint64_t s) { return uniform_tensor3(100, 100, 1000, 5000, 10, s); },
       16, {2, 0}},
      {"spmv_banded_gpu4", KernelKind::SpMV, {"spmv_banded_gpu4.mtx"},
       [](uint64_t s) { return banded_matrix(20000, 4, 0.7, s); }, 0, {1, 4}},
      {"spmm_block_gpu4", KernelKind::SpMM, {"spmm_block_gpu4.mtx"},
       [](uint64_t s) { return block_matrix(4000, 4, 4, 2, s); }, 16, {1, 4}},
  };
  return specs;
}

namespace {

rt::Machine make_machine(const MachineSpec& m) {
  const rt::MachineConfig cfg = data::paper_machine_config(m.nodes);
  if (m.gpus > 0) return rt::Machine(cfg, rt::Grid(m.gpus), rt::ProcKind::GPU);
  return rt::Machine(cfg, rt::Grid(m.nodes), rt::ProcKind::CPU);
}

// The library's trace clock (microseconds since process start), so the
// benchmark's own spans and phase windows line up with a captured trace.
double now_us() { return obs::wall_us(); }

void bench_span(const char* name, double t0_us, double t1_us) {
  obs::TraceRecorder& tr = obs::TraceRecorder::global();
  if (tr.active()) tr.host_span("perfbench", name, t0_us, t1_us - t0_us);
}

// Runs `f`, adds its wall seconds to `sink` and records it as a benchmark
// span named after the layer entry point it wraps.
template <typename F>
auto timed(const char* span, double& sink, F&& f) {
  const double t0 = now_us();
  auto finish = [&] {
    const double t1 = now_us();
    sink += (t1 - t0) * 1e-6;
    bench_span(span, t0, t1);
  };
  if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
    f();
    finish();
  } else {
    auto r = f();
    finish();
    return r;
  }
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// Per-layer accumulators of one set-up + first launch of a workload's
// instances (pagerank, structured_suite) or of one round of cells
// (oneshot_auto). Every field is summed over instances.
struct Layers {
  double setup = 0;  // read .. instantiate, as the user waits for it
  double io_read = 0;
  double pack = 0;         // sparse packs and dense operand fills
  double pack_sparse = 0;  // sparse packs only
  double sparse_nnz = 0;
  double format_select = 0;
  double search = 0;
  double enumerated = 0;
  double simulated = 0;
  double cache_hits = 0;
  double cache_lookups = 0;
  double compile = 0;
  double instantiate = 0;
  double storage_bytes = 0;
};

// Wall seconds of one launch: its enqueue (Instance::run_async returning),
// its drain (until the launch's future completes) and the host work after
// it (PageRank's damping update).
struct LaunchTime {
  double enqueue = 0;
  double drain = 0;
  double host = 0;
};

// Every timed launch of one kernel instance (or oneshot_auto cell).
struct Samples {
  std::vector<LaunchTime> first;   // cold first launches
  std::vector<LaunchTime> steady;  // launches after the first
};

// One compiled, instantiated kernel and its operands.
struct Kernel {
  std::string name;
  KernelKind kind = KernelKind::Other;
  Coord dense = 0;
  rt::Machine machine;
  std::vector<Tensor> tensors;  // the output first
  Statement* stmt = nullptr;
  // Declared before the instance, which points into it and must go first.
  std::unique_ptr<comp::CompiledKernel> compiled;
  std::shared_ptr<rt::Runtime> runtime;
  std::unique_ptr<comp::Instance> inst;
  std::function<void(Kernel&)> host_step;  // host work after each launch
  rt::SimReport first;              // after the first launch
  rt::SimReport window;             // the kSimWindow steady launches
};

std::string fingerprint(const rt::SimReport& r) {
  std::string s = strprintf(
      "sim=%.17g tasks=%lld msgs=%lld inter=%.17g intra=%.17g imb=%.17g",
      r.sim_time, static_cast<long long>(r.tasks),
      static_cast<long long>(r.messages), r.inter_node_bytes,
      r.intra_node_bytes, r.imbalance);
  for (const auto& [name, k] : r.kernels) {
    s += strprintf(" %s:%lld/%.17g/%.17g/%.17g", name.c_str(),
                   static_cast<long long>(k.tasks), k.flops, k.bytes,
                   k.busy_s);
  }
  return s;
}

std::optional<tdn::Distribution> dist(bool on, const char* spec) {
  if (!on) return std::nullopt;
  return tdn::parse_tdn(spec);
}

// Hand-written row schedule: rows divided over the machine's processors,
// leaves parallelized over the node's cores.
void row_schedule(Tensor& out, const IndexVar& i, int pieces,
                  std::vector<std::string> communicate = {}) {
  IndexVar io("io"), ii("ii");
  sched::Schedule& s = out.schedule().divide(i, io, ii, pieces).distribute(io);
  if (!communicate.empty()) s.communicate(std::move(communicate), io);
  s.parallelize(ii, sched::ParallelUnit::CPUThread);
}

class Bench {
 public:
  explicit Bench(const RunOptions& opt) : opt_(opt) {}

  std::string run();

 private:
  enum Phase { kSetup, kFirst, kSteady, kPhases };

  std::string path(const std::string& file) const {
    return opt_.dir + "/" + file;
  }
  Coo read(const std::string& file, Layers& L) {
    return timed("io.read", L.io_read, [&] {
      return file.size() > 4 && file.substr(file.size() - 4) == ".tns"
                 ? io::read_tns(path(file))
                 : io::read_matrix_market(path(file));
    });
  }
  void phase(Phase p, double t0, double t1) {
    phases_[p].push_back({t0, t1});
  }

  void define(Kernel& k, std::vector<Coo> sparse, const fmt::Format& sfmt,
              bool row_dist, Layers& L);
  void build(Kernel& k, const sched::Schedule* searched, Layers& L);
  LaunchTime launch(Kernel& k);
  void first_launch(Kernel& k);
  void relaunch_cold(Kernel& k);
  void cold_round(std::vector<Kernel>& ks);
  void measure(std::vector<Kernel>& ks, const std::function<void()>& at_window);
  void window_metrics(const std::vector<const Kernel*>& ks);
  // Sum over instances of the median of `part` over each one's samples.
  double sum_of_medians(std::vector<LaunchTime> Samples::*which,
                        double (*part)(const LaunchTime&)) const;

  void pagerank();
  void suite();
  void oneshot();
  void check_pagerank(const std::vector<Kernel>& ks);

  // Peak resident memory so far. Taken once every instance is set up and
  // has launched once (oneshot_auto: after the first round of cells): a
  // fixed amount of work. Later launches repeat the same work, but how many
  // of them run depends on speed, and their allocator churn would make the
  // peak depend on it too.
  void take_peak_rss() {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
  void error(const std::string& e) {
    if (errors_.size() < 8) errors_.push_back(e);
  }
  std::string json() const;

  const RunOptions& opt_;
  std::vector<std::string> errors_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  double peak_rss_mb_ = 0;
  Layers layers_;
  std::map<std::string, Samples> samples_;  // per instance name
  int rounds_ = 0;  // steady rounds (oneshot_auto: rounds of cells)
  int cold_rounds_ = 0;  // rounds of cold first launches of every instance
  std::map<std::string, double> window_;  // SimReport-derived layer metrics
  std::map<std::string, std::string> determinism_;
  std::array<std::vector<std::array<double, 2>>, kPhases> phases_;
  // Units each phase's windows add up to: set-ups, first-launch rounds, and
  // steady iterations of every instance.
  std::array<int, kPhases> phase_units_{0, 0, 0};
  // PageRank rank vectors after the steady window's last step, and how many
  // steps (cold and steady launches) had run by then.
  std::vector<std::vector<double>> snapshots_;
  int snapshot_steps_ = 0;
  // oneshot_auto: round-1 outputs per cell.
  std::vector<Output> outputs_;
};

void Bench::define(Kernel& k, std::vector<Coo> sparse, const fmt::Format& sfmt,
                   bool row_dist, Layers& L) {
  IndexVar i("i"), j("j"), kv("k"), l("l");
  const std::vector<Coord> bd = sparse.at(0).dims;
  const Coord n = bd[0];
  const Coord r = k.dense;
  auto pack_sparse = [&](Tensor& t, Coo coo) {
    L.sparse_nnz += static_cast<double>(coo.nnz());
    const double before = L.pack;
    timed("format.pack", L.pack, [&] { t.from_coo(std::move(coo)); });
    L.pack_sparse += L.pack - before;
  };
  auto fill = [&](Tensor& t, auto fn) {
    timed("format.pack", L.pack, [&] { t.init_dense(fn); });
  };
  const char* row1 = "T(x) -> M(x)";
  const char* row2 = "T(x, y) -> M(x)";
  const char* row3 = "T(x, y, z) -> M(x)";
  const char* repl1 = "T(x) -> M(q)";
  const char* repl2 = "T(x, y) -> M(q)";
  switch (k.kind) {
    case KernelKind::SpMV: {
      Tensor a("a", {n}, fmt::dense_vector(), dist(row_dist, row1));
      Tensor B("B", bd, sfmt, dist(row_dist, row2));
      Tensor c("c", {bd[1]}, fmt::dense_vector(), dist(row_dist, repl1));
      pack_sparse(B, std::move(sparse[0]));
      fill(c, [](const auto& x) { return vec_value(x[0]); });
      k.stmt = &(a(i) = B(i, j) * c(j));
      if (row_dist) row_schedule(a, i, k.machine.num_procs(), {"a", "B", "c"});
      k.tensors = {a, B, c};
      return;
    }
    case KernelKind::SpMM: {
      Tensor A("A", {n, r}, fmt::dense_matrix(), dist(row_dist, row2));
      Tensor B("B", bd, sfmt, dist(row_dist, row2));
      Tensor C("C", {bd[1], r}, fmt::dense_matrix(), dist(row_dist, repl2));
      pack_sparse(B, std::move(sparse[0]));
      fill(C, [](const auto& x) { return mat_value(0, x[0], x[1]); });
      k.stmt = &(A(i, j) = B(i, kv) * C(kv, j));
      if (row_dist) row_schedule(A, i, k.machine.num_procs(), {"A", "B", "C"});
      k.tensors = {A, B, C};
      return;
    }
    case KernelKind::SpAdd3: {
      Tensor A("A", bd, fmt::csr(), dist(row_dist, row2));
      Tensor B("B", bd, sfmt, dist(row_dist, row2));
      Tensor C("C", bd, sfmt, dist(row_dist, row2));
      Tensor D("D", bd, sfmt, dist(row_dist, row2));
      pack_sparse(B, std::move(sparse[0]));
      pack_sparse(C, std::move(sparse.at(1)));
      pack_sparse(D, std::move(sparse.at(2)));
      k.stmt = &(A(i, j) = B(i, j) + C(i, j) + D(i, j));
      if (row_dist) row_schedule(A, i, k.machine.num_procs());
      k.tensors = {A, B, C, D};
      return;
    }
    case KernelKind::SDDMM: {
      Tensor A("A", bd, fmt::csr());
      Tensor B("B", bd, sfmt, dist(row_dist, row2));
      Tensor C("C", {n, r}, fmt::dense_matrix(), dist(row_dist, repl2));
      Tensor D("D", {r, bd[1]}, fmt::dense_matrix(), dist(row_dist, repl2));
      pack_sparse(B, std::move(sparse[0]));
      fill(C, [](const auto& x) { return mat_value(0, x[0], x[1]); });
      fill(D, [](const auto& x) { return mat_value(1, x[0], x[1]); });
      k.stmt = &(A(i, j) = B(i, j) * C(i, kv) * D(kv, j));
      if (row_dist) row_schedule(A, i, k.machine.num_procs());
      k.tensors = {A, B, C, D};
      return;
    }
    case KernelKind::SpTTV: {
      Tensor A("A", {bd[0], bd[1]}, fmt::csr());
      Tensor B("B", bd, sfmt, dist(row_dist, row3));
      Tensor c("c", {bd[2]}, fmt::dense_vector(), dist(row_dist, repl1));
      pack_sparse(B, std::move(sparse[0]));
      fill(c, [](const auto& x) { return vec_value(x[0]); });
      k.stmt = &(A(i, j) = B(i, j, kv) * c(kv));
      if (row_dist) row_schedule(A, i, k.machine.num_procs());
      k.tensors = {A, B, c};
      return;
    }
    case KernelKind::SpMTTKRP: {
      Tensor A("A", {n, r}, fmt::dense_matrix(), dist(row_dist, row2));
      Tensor B("B", bd, sfmt, dist(row_dist, row3));
      Tensor C("C", {bd[1], r}, fmt::dense_matrix(), dist(row_dist, repl2));
      Tensor D("D", {bd[2], r}, fmt::dense_matrix(), dist(row_dist, repl2));
      pack_sparse(B, std::move(sparse[0]));
      fill(C, [](const auto& x) { return mat_value(0, x[0], x[1]); });
      fill(D, [](const auto& x) { return mat_value(1, x[0], x[1]); });
      k.stmt = &(A(i, l) = B(i, j, kv) * C(j, l) * D(kv, l));
      if (row_dist) row_schedule(A, i, k.machine.num_procs());
      k.tensors = {A, B, C, D};
      return;
    }
    case KernelKind::Other:
      break;
  }
  throw std::invalid_argument("unsupported kernel kind");
}

void Bench::build(Kernel& k, const sched::Schedule* searched, Layers& L) {
  k.compiled = std::make_unique<comp::CompiledKernel>(
      timed("compiler.compile", L.compile, [&] {
        return searched != nullptr
                   ? comp::CompiledKernel::compile(*k.stmt, *searched,
                                                   k.machine)
                   : comp::CompiledKernel::compile(*k.stmt, k.machine);
      }));
  k.inst = timed("compiler.instantiate", L.instantiate, [&] {
    k.runtime = std::make_shared<rt::Runtime>(k.machine);
    return k.compiled->instantiate(k.runtime);
  });
  for (const Tensor& t : k.tensors) {
    if (t.has_storage()) {
      L.storage_bytes += static_cast<double>(t.storage().bytes());
    }
  }
}

LaunchTime Bench::launch(Kernel& k) {
  const double t0 = now_us();
  exec::Future done = k.inst->run_async(1);
  const double t1 = now_us();
  done.wait();
  const double t2 = now_us();
  bench_span("runtime.enqueue", t0, t1);
  bench_span("runtime.drain", t1, t2);
  LaunchTime t{(t1 - t0) * 1e-6, (t2 - t1) * 1e-6, 0.0};
  if (k.host_step) timed("host.step", t.host, [&] { k.host_step(k); });
  return t;
}

// Only the launch itself is in the first-launch phase; re-instantiating a
// fresh instance is not.
void Bench::first_launch(Kernel& k) {
  const double t0 = now_us();
  samples_[k.name].first.push_back(launch(k));
  phase(kFirst, t0, now_us());
  k.first = k.runtime->report();
  k.runtime->reset_timing();
}

// Replaces k's instance by a fresh one (new runtime, instantiated from the
// same compiled kernel and packed tensors) and launches it once. Its
// SimReport must match the first instance's.
void Bench::relaunch_cold(Kernel& k) {
  const std::string before = fingerprint(k.first);
  k.inst.reset();  // drains; the previous runtime goes with it
  k.runtime = std::make_shared<rt::Runtime>(k.machine);
  k.inst = k.compiled->instantiate(k.runtime);
  first_launch(k);
  if (fingerprint(k.first) != before) {
    error(k.name + ": first launches of fresh instances differ in SimReport");
  }
}

// One cold first launch of every instance: the instantiated one the first
// time, a fresh one after that.
void Bench::cold_round(std::vector<Kernel>& ks) {
  for (Kernel& k : ks) {
    if (cold_rounds_ == 0) {
      first_launch(k);
    } else {
      relaunch_cold(k);
    }
  }
  phase_units_[kFirst] = ++cold_rounds_;
}

// The measured loop: a cold round, then time-bound steady rounds (one launch
// of every instance each, at least kSimWindow of them) with kColdRounds - 1
// further cold rounds spread evenly over --seconds, so that cold and steady
// samples both span the whole run. `at_window` runs after steady round
// kSimWindow, once each instance's window report is taken; cold rounds come
// only after it.
void Bench::measure(std::vector<Kernel>& ks,
                    const std::function<void()>& at_window) {
  cold_round(ks);
  take_peak_rss();
  const double start = now_us();
  auto elapsed = [&] { return (now_us() - start) * 1e-6; };
  for (rounds_ = 0; rounds_ < kSimWindow || elapsed() < opt_.seconds;) {
    if (rounds_ >= kSimWindow && cold_rounds_ < kColdRounds &&
        elapsed() >= opt_.seconds * cold_rounds_ / kColdRounds) {
      cold_round(ks);
      continue;
    }
    const double t0 = now_us();
    for (Kernel& k : ks) {
      samples_[k.name].steady.push_back(launch(k));
      ++attempted_;
    }
    phase(kSteady, t0, now_us());
    if (++rounds_ == kSimWindow) {
      for (Kernel& k : ks) k.window = k.runtime->report();
      if (at_window) at_window();
    }
  }
  phase_units_[kSteady] = rounds_;
}

double Bench::sum_of_medians(std::vector<LaunchTime> Samples::*which,
                             double (*part)(const LaunchTime&)) const {
  double sum = 0;
  for (const auto& [name, samples] : samples_) {
    std::vector<double> xs;
    for (const LaunchTime& t : samples.*which) xs.push_back(part(t));
    sum += median(xs);
  }
  return sum;
}

void Bench::window_metrics(const std::vector<const Kernel*>& ks) {
  double tasks = 0, msgs = 0, inter = 0, intra = 0, imb = 0, flops = 0;
  double hits = 0, misses = 0, sim = 0;
  for (const Kernel* k : ks) {
    const rt::SimReport& w = k->window;
    sim += w.sim_time;
    tasks += static_cast<double>(w.tasks);
    msgs += static_cast<double>(w.messages);
    inter += w.inter_node_bytes;
    intra += w.intra_node_bytes;
    imb += w.imbalance;
    for (const auto& [name, row] : w.kernels) flops += row.flops;
    hits += static_cast<double>(w.plan_hits - k->first.plan_hits);
    misses += static_cast<double>(w.plan_misses - k->first.plan_misses);
    determinism_[k->name] =
        "first: " + fingerprint(k->first) + " | window: " + fingerprint(w);
  }
  const double it = kSimWindow;
  window_["sim_ms_per_iter"] = sim / it * 1e3;
  window_["runtime.tasks_per_iter"] = tasks / it;
  window_["runtime.messages_per_iter"] = msgs / it;
  window_["runtime.inter_node_mb_per_iter"] = inter / it / 1e6;
  window_["runtime.intra_node_mb_per_iter"] = intra / it / 1e6;
  window_["runtime.imbalance"] = ks.empty() ? 0 : imb / static_cast<double>(ks.size());
  window_["runtime.plan_hits"] = hits / it;
  window_["runtime.plan_misses"] = misses / it;
  window_["kernel_flops_per_iter"] = flops / it;
}

void Bench::pagerank() {
  const rt::Machine machine = make_machine({kPagerankNodes, 0});
  std::vector<Kernel> ks(2);
  Layers& L = layers_;
  const double s0 = now_us();
  Coo graph = read("graph.mtx", L);
  for (int mode = 0; mode < 2; ++mode) {
    const bool nz = mode == 1;
    Kernel& k = ks[static_cast<size_t>(mode)];
    k.name = nz ? "pagerank_nz" : "pagerank_row";
    k.kind = KernelKind::SpMV;
    k.machine = machine;
    const double t0 = now_us();
    const Coord n = graph.dims[0];
    IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi");
    Tensor next("next", {n}, fmt::dense_vector(), tdn::parse_tdn("T(x) -> M(x)"));
    Tensor A("A", {n, n}, fmt::csr(),
             tdn::parse_tdn(nz ? "T(x, y) fuse(x, y -> g) -> M(~g)"
                               : "T(x, y) -> M(x)"));
    Tensor rank("rank", {n}, fmt::dense_vector(),
                tdn::parse_tdn("T(x) -> M(x)"));
    L.sparse_nnz += static_cast<double>(graph.nnz());
    Coo copy;
    if (nz) {
      copy = std::move(graph);  // the last instance takes the file's list
    } else {
      copy = graph;
    }
    const double p0 = L.pack;
    timed("format.pack", L.pack, [&] { A.from_coo(std::move(copy)); });
    L.pack_sparse += L.pack - p0;
    timed("format.pack", L.pack, [&] {
      rank.init_dense([n](const auto&) { return 1.0 / static_cast<double>(n); });
    });
    k.stmt = &(next(i) = A(i, j) * rank(j));
    if (nz) {
      next.schedule().fuse(i, j, f)
          .divide_pos(f, fo, fi, machine.num_procs(), "A")
          .distribute(fo)
          .parallelize(fi, sched::ParallelUnit::CPUThread);
    } else {
      row_schedule(next, i, machine.num_procs());
    }
    k.tensors = {next, A, rank};
    build(k, nullptr, L);
    k.host_step = [next, rank, n](Kernel& self) mutable {
      auto& r = *rank.storage().vals();
      const auto& nx = *next.storage().vals();
      for (Coord q = 0; q < n; ++q) {
        r[q] = (1.0 - kDamping) / static_cast<double>(n) + kDamping * nx[q];
      }
      self.runtime->invalidate(r);  // the host rewrote the vector
    };
    L.setup += (now_us() - t0) * 1e-6;
  }
  // The shared file read counts toward set-up once.
  L.setup += L.io_read;
  phase(kSetup, s0, now_us());
  phase_units_[kSetup] = 1;
  measure(ks, [&] {
    for (const Kernel& k : ks) snapshots_.push_back(read_output(k.tensors[2]).val);
    snapshot_steps_ = cold_rounds_ + rounds_;
  });
  // The cold launches are PageRank steps too.
  attempted_ += static_cast<int64_t>(ks.size()) * cold_rounds_;
  window_metrics({&ks[0], &ks[1]});
  check_pagerank(ks);
}

void Bench::check_pagerank(const std::vector<Kernel>& ks) {
  const Coo graph = make_inputs("pagerank", opt_.seed).at(0).coo;
  const int window_steps = snapshot_steps_;
  const int steps = cold_rounds_ + rounds_;
  auto as_output = [](std::vector<double> v) {
    Output o;
    o.val = std::move(v);
    return o;
  };
  const Output want_window = as_output(perfbench::pagerank(graph, window_steps, kDamping));
  const Output want_final = as_output(perfbench::pagerank(graph, steps, kDamping));
  std::vector<Output> finals;
  for (size_t m = 0; m < ks.size(); ++m) {
    const std::string who = ks[m].name;
    const Output snap = as_output(snapshots_.at(m));
    std::string d = compare(snap, want_window, 1e-9, 1e-12);
    if (!d.empty()) error(who + " after " + std::to_string(window_steps) + " steps: " + d);
    finals.push_back(read_output(ks[m].tensors[2]));
    d = compare(finals.back(), want_final, 1e-9, 1e-12);
    if (!d.empty()) error(who + " after " + std::to_string(steps) + " steps: " + d);
    double mass = 0;
    bool positive = true;
    for (const double v : finals.back().val) {
      mass += v;
      positive = positive && v > 0;
    }
    if (!(std::abs(mass - 1.0) <= 1e-9) || !positive) {
      error(strprintf("%s: rank mass %.17g (want 1), all positive: %d",
                      who.c_str(), mass, positive ? 1 : 0));
    }
  }
  const std::string d = compare(as_output(snapshots_.at(0)), as_output(snapshots_.at(1)),
                                 1e-9, 1e-12);
  if (!d.empty()) error("row and non-zero schedules disagree: " + d);
  const std::string f = compare(finals.at(0), finals.at(1), 1e-9, 1e-12);
  if (!f.empty()) error("row and non-zero final ranks disagree: " + f);
}

void Bench::suite() {
  const rt::Machine machine = make_machine({kSuiteNodes, 0});
  const auto& specs = suite_specs();
  std::vector<Kernel> ks(specs.size());
  Layers& L = layers_;
  const double s0 = now_us();
  for (size_t q = 0; q < specs.size(); ++q) {
    const SuiteSpec& spec = specs[q];
    Kernel& k = ks[q];
    k.name = spec.name;
    k.kind = spec.kind;
    k.dense = spec.dense;
    k.machine = machine;
    const double t0 = now_us();
    std::vector<Coo> coos;
    for (const std::string& file : spec.files) coos.push_back(read(file, L));
    const int order = coos[0].order();
    const fmt::Format sfmt = spec.blocked ? fmt::bcsr(4, 4)
                             : order == 3 ? fmt::csf3()
                                          : fmt::csr();
    define(k, std::move(coos), sfmt, /*row_dist=*/true, L);
    build(k, nullptr, L);
    L.setup += (now_us() - t0) * 1e-6;
  }
  phase(kSetup, s0, now_us());
  phase_units_[kSetup] = 1;
  measure(ks, nullptr);
  std::vector<const Kernel*> ptrs;
  for (const Kernel& k : ks) ptrs.push_back(&k);
  window_metrics(ptrs);
  std::map<std::string, Coo> inputs;
  for (Input& in : make_inputs("structured_suite", opt_.seed)) {
    inputs[in.file] = std::move(in.coo);
  }
  for (size_t q = 0; q < specs.size(); ++q) {
    std::vector<const Coo*> sparse;
    for (const std::string& file : specs[q].files) sparse.push_back(&inputs.at(file));
    const Output got = read_output(ks[q].tensors[0]);
    const std::string d = compare(got, evaluate(specs[q].kind, sparse, specs[q].dense));
    if (!d.empty()) error(specs[q].name + ": " + d);
    if (specs[q].kind == KernelKind::SpAdd3) {
      const int64_t want = union_count(sparse);
      const int64_t stored = ks[q].tensors[0].storage().nnz();
      if (stored != want) {
        error(strprintf("%s: output stores %lld entries, union of inputs is %lld",
                        specs[q].name.c_str(), static_cast<long long>(stored),
                        static_cast<long long>(want)));
      }
    }
  }
}

void Bench::oneshot() {
  const auto& cells = cell_specs();
  std::vector<Layers> per_round;
  std::vector<std::string> prints(cells.size());
  const double start = now_us();
  autosched::PlanCache& cache = autosched::PlanCache::global();
  for (int round = 0;; ++round) {
    if (round >= 1 && (now_us() - start) * 1e-6 >= opt_.seconds) break;
    cache.clear();  // every round searches cold
    Layers L;
    std::vector<const Kernel*> done;
    std::vector<std::unique_ptr<Kernel>> ks;
    for (size_t q = 0; q < cells.size(); ++q) {
      const CellSpec& cell = cells[q];
      auto owned = std::make_unique<Kernel>();
      Kernel& k = *owned;
      k.name = cell.name;
      k.kind = cell.kind;
      k.dense = cell.dense;
      k.machine = make_machine(cell.machine);
      const double t0 = now_us();
      std::vector<Coo> coos;
      for (const std::string& file : cell.files) coos.push_back(read(file, L));
      fmt::Format sfmt = coos[0].order() == 3 ? fmt::csf3() : fmt::csr();
      if (cell.kind == KernelKind::SpMV || cell.kind == KernelKind::SpMM) {
        sfmt = timed("autosched.format_select", L.format_select, [&] {
          return autosched::select_matrix_format(
              coos[0], cell.kind, k.machine, std::max<Coord>(1, cell.dense));
        });
      }
      define(k, std::move(coos), sfmt, /*row_dist=*/false, L);
      const int64_t hits0 = cache.hits() + cache.fuzzy_hits();
      const int64_t miss0 = cache.misses();
      autosched::Options options;
      options.use_store = false;
      const autosched::Result found = timed("autosched.search", L.search, [&] {
        return autosched::autoschedule_search(*k.stmt, k.machine, options);
      });
      L.enumerated += found.enumerated;
      L.simulated += found.simulated;
      const int64_t hits = cache.hits() + cache.fuzzy_hits() - hits0;
      L.cache_hits += static_cast<double>(hits);
      L.cache_lookups += static_cast<double>(hits + cache.misses() - miss0);
      build(k, &found.schedule, L);
      const double t1 = now_us();
      phase(kSetup, t0, t1);
      L.setup += (t1 - t0) * 1e-6;

      first_launch(k);
      for (int c = 1; c < kCellColdLaunches; ++c) relaunch_cold(k);
      const double p0 = now_us();
      for (int w = 0; w < kCellSteadyLaunches; ++w) {
        samples_[k.name].steady.push_back(launch(k));
        if (w + 1 == kSimWindow) k.window = k.runtime->report();
      }
      phase(kSteady, p0, now_us());

      const std::string print =
          "first: " + fingerprint(k.first) + " | window: " + fingerprint(k.window);
      Output out = read_output(k.tensors[0]);
      if (round == 0) {
        prints[q] = print;
        outputs_.push_back(std::move(out));
      } else {
        if (print != prints[q]) error(cell.name + ": SimReport differs between rounds");
        const std::string d = compare(out, outputs_[q], /*rel=*/0.0);
        if (!d.empty()) error(cell.name + ": output differs between rounds: " + d);
      }
      ks.push_back(std::move(owned));
      done.push_back(ks.back().get());
      ++attempted_;
    }
    if (round == 0) {
      window_metrics(done);
      take_peak_rss();
    }
    per_round.push_back(L);
  }
  rounds_ = static_cast<int>(per_round.size());
  phase_units_ = {rounds_, rounds_ * kCellColdLaunches,
                  rounds_ * kCellSteadyLaunches};
  // Per-layer figures: the median round.
  auto med = [&](double Layers::*field) {
    std::vector<double> xs;
    for (const Layers& L : per_round) xs.push_back(L.*field);
    return median(xs);
  };
  for (double Layers::*field :
       {&Layers::io_read, &Layers::pack, &Layers::pack_sparse,
        &Layers::sparse_nnz, &Layers::format_select, &Layers::search,
        &Layers::enumerated, &Layers::simulated, &Layers::cache_hits,
        &Layers::cache_lookups, &Layers::compile, &Layers::instantiate,
        &Layers::storage_bytes}) {
    layers_.*field = med(field);
  }
  // Every round searches with a cleared plan cache, so each round's set-up
  // is a cold one; set-up is the median round's too.
  layers_.setup = med(&Layers::setup);
  std::map<std::string, Coo> inputs;
  for (Input& in : make_inputs("oneshot_auto", opt_.seed)) {
    inputs[in.file] = std::move(in.coo);
  }
  for (size_t q = 0; q < cells.size(); ++q) {
    std::vector<const Coo*> sparse;
    for (const std::string& file : cells[q].files) sparse.push_back(&inputs.at(file));
    const std::string d = compare(outputs_[q], evaluate(cells[q].kind, sparse, cells[q].dense));
    if (!d.empty()) error(cells[q].name + ": " + d);
  }
}

std::string Bench::run() {
  try {
    if (opt_.workload == "pagerank") {
      pagerank();
    } else if (opt_.workload == "structured_suite") {
      suite();
    } else if (opt_.workload == "oneshot_auto") {
      oneshot();
    } else {
      throw std::invalid_argument("unknown workload " + opt_.workload);
    }
  } catch (const std::exception& e) {
    error(std::string("run aborted: ") + e.what());
    ++failed_;
  }
  attempted_ = std::max(attempted_, failed_);
  return json();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Bench::json() const {
  const Layers& L = layers_;
  auto enqueue = [](const LaunchTime& t) { return t.enqueue; };
  auto drain = [](const LaunchTime& t) { return t.drain; };
  auto launch_s = [](const LaunchTime& t) { return t.enqueue + t.drain; };
  auto step_s = [](const LaunchTime& t) { return t.enqueue + t.drain + t.host; };
  auto get = [&](const char* key) {
    auto it = window_.find(key);
    return it == window_.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> metrics = {
      {"setup_s", L.setup},
      {"first_launch_s", sum_of_medians(&Samples::first, launch_s)},
      {"steady_s", sum_of_medians(&Samples::steady, step_s)},
      {"sim_ms_per_iter", get("sim_ms_per_iter")},
      {"peak_rss_mb", peak_rss_mb_},
  };
  std::map<std::string, double> layers = {
      {"io.read_s", L.io_read},
      {"format.pack_s", L.pack},
      {"format.pack_mnnz_per_s",
       L.pack_sparse > 0 ? L.sparse_nnz / L.pack_sparse / 1e6 : 0.0},
      {"format.storage_mb", L.storage_bytes / 1e6},
      {"autosched.format_select_s", L.format_select},
      {"autosched.search_s", L.search},
      {"autosched.candidates_enumerated", L.enumerated},
      {"autosched.candidates_simulated", L.simulated},
      {"autosched.cache_hits", L.cache_hits},
      {"autosched.cache_lookups", L.cache_lookups},
      {"compiler.compile_s", L.compile},
      {"compiler.instantiate_s", L.instantiate},
      {"runtime.first_enqueue_s", sum_of_medians(&Samples::first, enqueue)},
      {"runtime.first_drain_s", sum_of_medians(&Samples::first, drain)},
      {"runtime.steady_enqueue_s", sum_of_medians(&Samples::steady, enqueue)},
      {"runtime.steady_drain_s", sum_of_medians(&Samples::steady, drain)},
  };
  for (const auto& [k, v] : window_) {
    if (k != "sim_ms_per_iter") layers[k] = v;
  }
  auto obj = [](const std::map<std::string, double>& m) {
    std::string s = "{";
    for (const auto& [k, v] : m) {
      if (s.size() > 1) s += ", ";
      s += json_string(k) + ": " + strprintf("%.17g", v);
    }
    return s + "}";
  };
  std::string s = "{\"workload\": " + json_string(opt_.workload);
  s += strprintf(", \"seed\": %llu", static_cast<unsigned long long>(opt_.seed));
  s += std::string(", \"correct\": ") + (errors_.empty() ? "true" : "false");
  s += strprintf(", \"attempted\": %lld, \"failed\": %lld",
                 static_cast<long long>(attempted_), static_cast<long long>(failed_));
  s += ", \"errors\": [";
  for (size_t q = 0; q < errors_.size(); ++q) {
    s += (q ? ", " : "") + json_string(errors_[q]);
  }
  s += "], \"metrics\": " + obj(metrics) + ", \"layers\": " + obj(layers);
  s += ", \"determinism\": {";
  bool first = true;
  for (const auto& [k, v] : determinism_) {
    s += (first ? "" : ", ") + json_string(k) + ": " + json_string(v);
    first = false;
  }
  s += "}, \"phases\": {";
  const char* names[kPhases] = {"setup", "first", "steady"};
  for (int p = 0; p < kPhases; ++p) {
    s += strprintf("%s\"%s\": [", p ? ", " : "", names[p]);
    for (size_t w = 0; w < phases_[static_cast<size_t>(p)].size(); ++w) {
      const auto& win = phases_[static_cast<size_t>(p)][w];
      s += strprintf("%s[%.3f, %.3f]", w ? ", " : "", win[0], win[1]);
    }
    s += "]";
  }
  s += strprintf(", \"units\": {\"setup\": %d, \"first\": %d, \"steady\": %d}}",
                 phase_units_[kSetup], phase_units_[kFirst], phase_units_[kSteady]);
  s += strprintf(", \"rounds\": %d}", rounds_);
  return s;
}

}  // namespace

std::string run_workload(const RunOptions& options) {
  Bench bench(options);
  return bench.run();
}

}  // namespace perfbench
