// End-to-end coverage of the Blocked (BCSR) level-kind pair: pack layout
// (padded R x C value blocks, block-granular pos/crd), register-tiled
// spmv_bcsr / spmm_bcsr leaves oracle-equivalent to CSR with bit-identical
// outputs across executor widths, co-iteration and locate over blocked
// levels, the position-space restriction, and the format enumerator's
// blocked-vs-CSR decision.
#include <gtest/gtest.h>

#include "autosched/format_select.h"
#include "compiler/lower.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "kernels/coiter.h"
#include "tensor/dense_ref.h"

namespace spdistal {
namespace {

using rt::Coord;
using rt::PosRange;

constexpr int kExecWidths[] = {1, 4};

rt::Machine scaled_cpu(int nodes) {
  rt::MachineConfig cfg = data::paper_machine_config(nodes);
  return rt::Machine(cfg, rt::Grid(nodes), rt::ProcKind::CPU);
}

// The paper's 4x4 example matrix (Figure 3 / Figure 7).
fmt::Coo paper_coo() {
  fmt::Coo coo;
  coo.dims = {4, 4};
  coo.push({0, 0}, 1.0);
  coo.push({0, 1}, 2.0);
  coo.push({0, 3}, 3.0);
  coo.push({1, 1}, 4.0);
  coo.push({1, 3}, 5.0);
  coo.push({2, 0}, 6.0);
  coo.push({3, 0}, 7.0);
  coo.push({3, 3}, 8.0);
  return coo;
}

void expect_reports_identical(const rt::SimReport& a, const rt::SimReport& b,
                              const std::string& what) {
  EXPECT_EQ(a.sim_time, b.sim_time) << what;
  EXPECT_EQ(a.inter_node_bytes, b.inter_node_bytes) << what;
  EXPECT_EQ(a.intra_node_bytes, b.intra_node_bytes) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.tasks, b.tasks) << what;
  EXPECT_EQ(a.imbalance, b.imbalance) << what;
  EXPECT_EQ(a.peak_sysmem, b.peak_sysmem) << what;
  EXPECT_EQ(a.plan_hits, b.plan_hits) << what;
  EXPECT_EQ(a.plan_misses, b.plan_misses) << what;
}

// --- pack layout --------------------------------------------------------------

TEST(BlockedPack, Bcsr2x2MatchesHandLayout) {
  Tensor B("B", {4, 4}, fmt::bcsr(2, 2));
  B.from_coo(paper_coo());
  const fmt::TensorStorage& st = B.storage();
  // Level 0 (BlockedDense): positions are block rows, no stored regions.
  EXPECT_EQ(st.level(0).positions, 2);
  EXPECT_FALSE(st.level(0).pos);
  EXPECT_FALSE(st.level(0).crd);
  // Level 1 (BlockedCompressed): one pos segment per block row, one crd
  // entry per stored block.
  const fmt::LevelStorage& l1 = st.level(1);
  ASSERT_TRUE(l1.pos);
  ASSERT_TRUE(l1.crd);
  EXPECT_EQ(l1.positions, 4);  // 4 occupied 2x2 blocks
  EXPECT_EQ((*l1.pos)[0], (PosRange{0, 1}));
  EXPECT_EQ((*l1.pos)[1], (PosRange{2, 3}));
  EXPECT_EQ((*l1.crd)[0], 0);
  EXPECT_EQ((*l1.crd)[1], 1);
  EXPECT_EQ((*l1.crd)[2], 0);
  EXPECT_EQ((*l1.crd)[3], 1);
  // vals: R*C row-major lanes per block, absent lanes exact zeros.
  const double expect[] = {1, 2, 0, 4, /**/ 0, 3, 0, 5,
                           6, 0, 7, 0, /**/ 0, 0, 0, 8};
  ASSERT_EQ(st.vals()->space().volume(), 16);
  for (int q = 0; q < 16; ++q) {
    EXPECT_EQ((*st.vals())[q], expect[q]) << "lane " << q;
  }
  // nnz() counts TRUE non-zeros; padding lives only in the vals region.
  EXPECT_EQ(st.nnz(), 8);
}

TEST(BlockedPack, RoundTripDropsPaddingExactly) {
  for (auto [r, c] : {std::pair<int, int>{2, 2}, {3, 5}, {4, 4}}) {
    fmt::Coo coo = data::powerlaw_matrix(37, 29, 300, 1.2, 7);
    fmt::Coo sorted = coo;
    sorted.sort_and_combine({0, 1});
    Tensor B("B", {37, 29}, fmt::bcsr(r, c));
    B.from_coo(std::move(coo));
    const fmt::Coo back = B.storage().to_coo();
    ASSERT_EQ(back.nnz(), sorted.nnz()) << r << "x" << c;
    for (int64_t q = 0; q < back.nnz(); ++q) {
      EXPECT_EQ(back.coords[static_cast<size_t>(q)],
                sorted.coords[static_cast<size_t>(q)]);
      EXPECT_EQ(back.vals[static_cast<size_t>(q)],
                sorted.vals[static_cast<size_t>(q)]);
    }
    EXPECT_EQ(B.storage().nnz(), sorted.nnz());
  }
}

TEST(BlockedPack, LocatePositionAddressesValueLanes) {
  Tensor B("B", {4, 4}, fmt::bcsr(2, 2));
  B.from_coo(paper_coo());
  // Blocked locate returns the value-lane position q*R*C + (i%R)*C + (j%C).
  EXPECT_EQ(kern::locate_position(B.storage(), {0, 0}), 0);
  EXPECT_EQ(kern::locate_position(B.storage(), {1, 1}), 3);
  EXPECT_EQ(kern::locate_position(B.storage(), {0, 3}), 5);
  EXPECT_EQ(kern::locate_position(B.storage(), {3, 3}), 15);
  // Padded lanes inside a stored block locate (they hold exact zeros):
  // (0,2) is lane 0 of block (0,1), (2,2) is lane 0 of block (1,1).
  EXPECT_EQ(kern::locate_position(B.storage(), {0, 2}), 4);
  EXPECT_EQ(kern::locate_position(B.storage(), {2, 2}), 12);
  // Coordinates in blocks with no stored entry at all miss: widen the
  // matrix so block column 2 (columns 4-5) is empty everywhere.
  fmt::Coo wide = paper_coo();
  wide.dims = {4, 6};
  Tensor W("W", {4, 6}, fmt::bcsr(2, 2));
  W.from_coo(std::move(wide));
  EXPECT_EQ(kern::locate_position(W.storage(), {0, 0}), 0);
  EXPECT_EQ(kern::locate_position(W.storage(), {1, 5}), -1);
  EXPECT_EQ(kern::locate_position(W.storage(), {2, 4}), -1);
}

// --- end-to-end SpMV / SpMM ---------------------------------------------------

struct RunResult {
  std::vector<double> out;
  rt::SimReport report;
  std::string leaf;
};

// One fresh SpMV pipeline over block-structured data (dims deliberately not
// block multiples, so every shape exercises edge tails).
RunResult run_spmv(const fmt::Format& format, int exec_threads) {
  IndexVar i("i"), j("j"), io("io"), ii("ii");
  fmt::Coo coo = data::block_structured_matrix(118, 94, 4, 4, 3, 11);
  const Coord n = coo.dims[0];
  const Coord m = coo.dims[1];
  Tensor a("a", {n}, fmt::dense_vector());
  Tensor B("B", {n, m}, format);
  Tensor c("c", {m}, fmt::dense_vector());
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.25 * static_cast<double>(x[0] % 7);
  });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule().divide(i, io, ii, 4).distribute(io);
  rt::Machine machine = scaled_cpu(4);
  rt::Runtime runtime(machine, exec_threads);
  comp::CompiledKernel ck = comp::CompiledKernel::compile(stmt, machine);
  auto inst = ck.instantiate(runtime);
  inst->run(2);
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-10)
      << format.str() << " x" << exec_threads;
  RunResult res;
  res.leaf = ck.leaf_kernel_name();
  for (Coord q = 0; q < n; ++q) {
    res.out.push_back((*a.storage().vals())[q]);
  }
  res.report = runtime.report();
  return res;
}

// One fresh SpMM pipeline: A(i,j) = B(i,k) * C(k,j), universe distribution.
RunResult run_spmm(const fmt::Format& format, int exec_threads) {
  IndexVar i("i"), j("j"), k("k"), io("io"), ii("ii");
  fmt::Coo coo = data::block_structured_matrix(94, 94, 4, 4, 3, 17);
  const Coord n = coo.dims[0];
  const Coord kk = coo.dims[1];
  const Coord cols = 24;
  Tensor A("A", {n, cols}, fmt::dense_matrix());
  Tensor B("B", {n, kk}, format);
  Tensor C("C", {kk, cols}, fmt::dense_matrix());
  B.from_coo(std::move(coo));
  C.init_dense([](const auto& x) {
    return 0.25 + 0.01 * static_cast<double>((x[0] * 3 + x[1]) % 29);
  });
  Statement& stmt = (A(i, j) = B(i, k) * C(k, j));
  A.schedule().divide(i, io, ii, 4).distribute(io);
  rt::Machine machine = scaled_cpu(4);
  rt::Runtime runtime(machine, exec_threads);
  comp::CompiledKernel ck = comp::CompiledKernel::compile(stmt, machine);
  auto inst = ck.instantiate(runtime);
  inst->run(2);
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-10)
      << format.str() << " x" << exec_threads;
  RunResult res;
  res.leaf = ck.leaf_kernel_name();
  for (Coord q = 0; q < n * cols; ++q) {
    res.out.push_back(A.storage().vals()->at_linear(q));
  }
  res.report = runtime.report();
  return res;
}

void check_widths(const std::function<RunResult(int)>& run,
                  const std::string& what) {
  RunResult base = run(kExecWidths[0]);
  for (size_t w = 1; w < std::size(kExecWidths); ++w) {
    RunResult other = run(kExecWidths[w]);
    ASSERT_EQ(base.out.size(), other.out.size()) << what;
    for (size_t q = 0; q < base.out.size(); ++q) {
      EXPECT_EQ(base.out[q], other.out[q]) << what << " val " << q;
    }
    expect_reports_identical(base.report, other.report, what);
    EXPECT_EQ(base.leaf, other.leaf) << what;
  }
}

TEST(BlockedE2E, SpmvBcsrRidesTiledLeafAndMatchesCsr) {
  for (auto [r, c] : {std::pair<int, int>{4, 4}, {2, 2}, {3, 5}}) {
    // 3x5 has no compile-time micro-kernel instantiation: the generic
    // runtime-extent tile must produce the same leaf and the same answer.
    RunResult blocked = run_spmv(fmt::bcsr(r, c), 1);
    EXPECT_EQ(blocked.leaf, "spmv_bcsr") << r << "x" << c;
    RunResult csr = run_spmv(fmt::csr(), 1);
    EXPECT_EQ(csr.leaf, "spmv_row");
    ASSERT_EQ(blocked.out.size(), csr.out.size());
    for (size_t q = 0; q < csr.out.size(); ++q) {
      EXPECT_NEAR(blocked.out[q], csr.out[q], 1e-12) << r << "x" << c;
    }
  }
}

TEST(BlockedE2E, SpmvBcsrBitIdenticalAcrossWidths) {
  check_widths([](int t) { return run_spmv(fmt::bcsr(4, 4), t); },
               "bcsr(4,4) spmv");
}

TEST(BlockedE2E, SpmmBcsrRidesTiledLeafAndMatchesCsr) {
  RunResult blocked = run_spmm(fmt::bcsr(4, 4), 1);
  EXPECT_EQ(blocked.leaf, "spmm_bcsr");
  RunResult csr = run_spmm(fmt::csr(), 1);
  EXPECT_EQ(csr.leaf, "spmm_row");
  ASSERT_EQ(blocked.out.size(), csr.out.size());
  for (size_t q = 0; q < csr.out.size(); ++q) {
    EXPECT_NEAR(blocked.out[q], csr.out[q], 1e-12);
  }
}

TEST(BlockedE2E, SpmmBcsrBitIdenticalAcrossWidths) {
  check_widths([](int t) { return run_spmm(fmt::bcsr(4, 4), t); },
               "bcsr(4,4) spmm");
}

// The steady-state fast path holds for blocked leaves too: the second
// iteration of every launch shape is a plan hit.
TEST(BlockedE2E, BlockedLaunchesHitThePlanMemo) {
  RunResult r = run_spmv(fmt::bcsr(4, 4), 1);
  EXPECT_GT(r.report.plan_hits, 0);
}

// A 2-D (i, j) grid tiles rows x output columns: the column-clamped
// spmm_bcsr variant computes each tile from whole blocks.
TEST(BlockedE2E, SpmmBcsr2dGridClampsColumns) {
  IndexVar i("i"), j("j"), k("k"), io("io"), ii("ii"), jo("jo"), ji("ji");
  fmt::Coo coo = data::block_structured_matrix(62, 62, 4, 4, 3, 19);
  Tensor A("A", {62, 24}, fmt::dense_matrix());
  Tensor B("B", {62, 62}, fmt::bcsr(4, 4));
  Tensor C("C", {62, 24}, fmt::dense_matrix());
  B.from_coo(std::move(coo));
  C.init_dense([](const auto& x) {
    return 0.5 + 0.01 * static_cast<double>((x[0] + 2 * x[1]) % 13);
  });
  Statement& stmt = (A(i, j) = B(i, k) * C(k, j));
  A.schedule()
      .divide(i, io, ii, 2)
      .divide(j, jo, ji, 2)
      .distribute(io)
      .distribute(jo);
  rt::MachineConfig cfg = data::paper_machine_config(4);
  rt::Machine machine(cfg, rt::Grid(2, 2), rt::ProcKind::CPU);
  rt::Runtime runtime(machine);
  comp::CompiledKernel ck = comp::CompiledKernel::compile(stmt, machine);
  EXPECT_EQ(ck.leaf_kernel_name(), "spmm_bcsr");
  auto inst = ck.instantiate(runtime);
  inst->run(2);
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-10);
}

// --- co-iteration -------------------------------------------------------------

// The general engine drives iteration over a BlockedCompressed level
// (expanding each stored block to its column coordinates) and probes a
// blocked operand through locate.
TEST(BlockedCoiter, DrivesAndProbesBlockedLevels) {
  IndexVar i("i"), j("j");
  // Driver side: B bcsr drives the (i, j) co-iteration alone.
  {
    Tensor a("a", {4}, fmt::dense_vector());
    Tensor B("B", {4, 4}, fmt::bcsr(2, 2));
    Tensor c("c", {4}, fmt::dense_vector());
    B.from_coo(paper_coo());
    c.init_dense([](const auto& x) {
      return 1.0 + 0.5 * static_cast<double>(x[0] % 3);
    });
    Statement& stmt = (a(i) = B(i, j) * c(j));
    kern::CoiterEngine eng(stmt);
    a.zero();
    eng.run();
    EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-12);
  }
  // Probe side: CSR drives, the blocked operand is located lane by lane
  // (padded lanes contribute exact zeros, so the product is unchanged).
  {
    Tensor a("a", {4}, fmt::dense_vector());
    Tensor B("B", {4, 4}, fmt::csr());
    Tensor C("C", {4, 4}, fmt::bcsr(2, 2));
    B.from_coo(paper_coo());
    C.from_coo(paper_coo());
    Statement& stmt = (a(i) = B(i, j) * C(i, j));
    kern::CoiterEngine eng(stmt);
    a.zero();
    eng.run();
    EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-12);
  }
}

// --- position-space restriction -----------------------------------------------

// divide_pos through a blocked level is rejected: a position there is a
// whole R x C value block, so a mid-block cut would split a register tile.
TEST(BlockedSchedule, DividePosOnBlockedRejected) {
  IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi");
  fmt::Coo coo = data::block_structured_matrix(32, 32, 4, 4, 2, 5);
  Tensor a("a", {32}, fmt::dense_vector());
  Tensor B("B", {32, 32}, fmt::bcsr(4, 4));
  Tensor c("c", {32}, fmt::dense_vector());
  B.from_coo(std::move(coo));
  c.init_dense([](const auto&) { return 1.0; });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule().fuse(i, j, f).divide_pos(f, fo, fi, 4, "B").distribute(fo);
  rt::Machine machine = scaled_cpu(4);
  EXPECT_THROW(comp::CompiledKernel::compile(stmt, machine), ScheduleError);
}

// --- format enumeration -------------------------------------------------------

TEST(BlockedFormatSelect, BlockStatsCountsOccupiedBlocks) {
  const autosched::BlockStats s = autosched::block_stats(paper_coo(), 2, 2);
  EXPECT_EQ(s.nnz, 8);
  EXPECT_EQ(s.blocks, 4);
  EXPECT_DOUBLE_EQ(s.fill, 0.5);
  EXPECT_DOUBLE_EQ(s.padding, 2.0);
  // A fully dense tile set has padding exactly 1.
  fmt::Coo blocky = data::block_structured_matrix(64, 64, 4, 4, 4, 3);
  const autosched::BlockStats b = autosched::block_stats(blocky, 4, 4);
  EXPECT_DOUBLE_EQ(b.padding, 1.0);
  EXPECT_EQ(b.blocks * 16, b.nnz);
}

TEST(BlockedFormatSelect, PicksBlockedOnBlockyDataCsrOnScattered) {
  rt::Machine machine = scaled_cpu(4);
  fmt::Coo blocky = data::block_structured_matrix(512, 512, 4, 4, 8, 3);
  fmt::Coo scattered = data::uniform_matrix(512, 512, blocky.nnz(), 3);
  for (base::KernelKind kind :
       {base::KernelKind::SpMV, base::KernelKind::SpMM}) {
    const fmt::Format fb =
        autosched::select_matrix_format(blocky, kind, machine, 32);
    EXPECT_TRUE(fb.mode(0).is_blocked()) << base::kernel_kind_name(kind);
    const fmt::Format fs =
        autosched::select_matrix_format(scattered, kind, machine, 32);
    EXPECT_EQ(fs, fmt::csr()) << base::kernel_kind_name(kind);
  }
  // The enumeration lists CSR first and prices every tiled shape.
  const auto cands = autosched::enumerate_matrix_formats(
      blocky, base::KernelKind::SpMV, machine);
  ASSERT_EQ(cands.size(), 5u);
  EXPECT_EQ(cands[0].format, fmt::csr());
  EXPECT_EQ(cands[0].kernel, "spmv_row");
  for (size_t q = 1; q < cands.size(); ++q) {
    EXPECT_TRUE(cands[q].format.mode(0).is_blocked());
    EXPECT_EQ(cands[q].kernel, "spmv_bcsr");
    EXPECT_GT(cands[q].est_time, 0.0);
  }
  // Kernel classes with no tiled leaves only get the CSR candidate.
  EXPECT_EQ(autosched::enumerate_matrix_formats(
                blocky, base::KernelKind::SpTTV, machine)
                .size(),
            1u);
}

}  // namespace
}  // namespace spdistal
