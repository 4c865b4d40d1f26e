// Baseline system models: correctness (identical values), supported-kernel
// sets, and the qualitative performance relationships the paper reports.
#include <gtest/gtest.h>

#include "baselines/ctf_like.h"
#include "baselines/petsc_like.h"
#include "compiler/lower.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "tensor/dense_ref.h"

namespace spdistal::base {
namespace {

using rt::Coord;

rt::Machine scaled_machine(int nodes, rt::ProcKind kind = rt::ProcKind::CPU,
                           int grid = -1) {
  rt::MachineConfig cfg = data::paper_machine_config(nodes);
  return rt::Machine(cfg, rt::Grid(grid < 0 ? nodes : grid), kind);
}

struct SpmvSetup {
  IndexVar i{"i"}, j{"j"};
  Tensor a, B, c;
  Statement* stmt;
  explicit SpmvSetup(fmt::Coo coo) {
    const Coord n = coo.dims[0];
    const Coord m = coo.dims[1];
    a = Tensor("a", {n}, fmt::dense_vector());
    B = Tensor("B", {n, m}, fmt::csr());
    c = Tensor("c", {m}, fmt::dense_vector());
    B.from_coo(std::move(coo));
    c.init_dense([](const auto& x) {
      return 1.0 + 0.1 * static_cast<double>(x[0] % 9);
    });
    stmt = &(a(i) = B(i, j) * c(j));
  }
};

TEST(Classify, RecognizesAllSixKernels) {
  IndexVar i("i"), j("j"), k("k"), l("l");
  {
    SpmvSetup s(data::uniform_matrix(20, 20, 60, 1));
    EXPECT_EQ(classify(*s.stmt).kind, KernelKind::SpMV);
  }
  {
    Tensor A("A", {20, 4}, fmt::dense_matrix());
    Tensor B("B", {20, 20}, fmt::csr());
    Tensor C("C", {20, 4}, fmt::dense_matrix());
    B.from_coo(data::uniform_matrix(20, 20, 60, 2));
    EXPECT_EQ(classify(A(i, j) = B(i, k) * C(k, j)).kind, KernelKind::SpMM);
  }
  {
    fmt::Coo coo = data::uniform_matrix(20, 20, 60, 3);
    Tensor A("A", {20, 20}, fmt::csr());
    Tensor B("B", {20, 20}, fmt::csr());
    Tensor C("C", {20, 20}, fmt::csr());
    Tensor D("D", {20, 20}, fmt::csr());
    B.from_coo(coo);
    C.from_coo(data::shift_last_dim(coo, 1));
    D.from_coo(data::shift_last_dim(coo, 2));
    EXPECT_EQ(classify(A(i, j) = B(i, j) + C(i, j) + D(i, j)).kind,
              KernelKind::SpAdd3);
  }
  {
    Tensor A("A", {20, 20}, fmt::csr());
    Tensor B("B", {20, 20}, fmt::csr());
    Tensor C("C", {20, 4}, fmt::dense_matrix());
    Tensor D("D", {4, 20}, fmt::dense_matrix());
    B.from_coo(data::uniform_matrix(20, 20, 60, 4));
    EXPECT_EQ(classify(A(i, j) = B(i, j) * C(i, k) * D(k, j)).kind,
              KernelKind::SDDMM);
  }
  {
    Tensor A("A", {10, 12}, fmt::csr());
    Tensor B("B", {10, 12, 14}, fmt::csf3());
    Tensor c("c", {14}, fmt::dense_vector());
    B.from_coo(data::uniform_3tensor(10, 12, 14, 50, 5));
    EXPECT_EQ(classify(A(i, j) = B(i, j, k) * c(k)).kind, KernelKind::SpTTV);
  }
  {
    Tensor A("A", {10, 4}, fmt::dense_matrix());
    Tensor B("B", {10, 12, 14}, fmt::csf3());
    Tensor C("C", {12, 4}, fmt::dense_matrix());
    Tensor D("D", {14, 4}, fmt::dense_matrix());
    B.from_coo(data::uniform_3tensor(10, 12, 14, 50, 6));
    EXPECT_EQ(classify(A(i, l) = B(i, j, k) * C(j, l) * D(k, l)).kind,
              KernelKind::SpMTTKRP);
  }
}

TEST(PetscLike, SpmvValuesAndSupport) {
  SpmvSetup s(data::powerlaw_matrix(200, 200, 3000, 1.2, 7));
  LibrarySystem petsc = make_petsc_like(scaled_machine(4));
  const double t = petsc.run(*s.stmt, 1, 5);
  EXPECT_GT(t, 0);
  EXPECT_LE(ref::max_abs_diff(s.a, ref::eval(*s.stmt)), 1e-10);
}

TEST(PetscLike, RejectsHigherOrderKernels) {
  IndexVar i("i"), j("j"), k("k");
  Tensor A("A", {10, 12}, fmt::csr());
  Tensor B("B", {10, 12, 14}, fmt::csf3());
  Tensor c("c", {14}, fmt::dense_vector());
  B.from_coo(data::uniform_3tensor(10, 12, 14, 50, 8));
  Statement& stmt = (A(i, j) = B(i, j, k) * c(k));
  LibrarySystem petsc = make_petsc_like(scaled_machine(2));
  EXPECT_THROW(petsc.run(stmt, 1, 1), SpdError);
}

TEST(PetscLike, RejectsGpuSpAdd3) {
  IndexVar i("i"), j("j");
  fmt::Coo coo = data::uniform_matrix(64, 64, 600, 9);
  Tensor A("A", {64, 64}, fmt::csr());
  Tensor B("B", {64, 64}, fmt::csr());
  Tensor C("C", {64, 64}, fmt::csr());
  Tensor D("D", {64, 64}, fmt::csr());
  B.from_coo(coo);
  C.from_coo(data::shift_last_dim(coo, 1));
  D.from_coo(data::shift_last_dim(coo, 2));
  Statement& stmt = (A(i, j) = B(i, j) + C(i, j) + D(i, j));
  LibrarySystem petsc_gpu =
      make_petsc_like(scaled_machine(1, rt::ProcKind::GPU, 4));
  EXPECT_THROW(petsc_gpu.run(stmt, 1, 1), SpdError);
  // CPU PETSc and GPU Trilinos both support it.
  LibrarySystem petsc_cpu = make_petsc_like(scaled_machine(2));
  EXPECT_GT(petsc_cpu.run(stmt, 1, 2), 0);
}

TEST(TrilinosLike, SocketGeometryAndHelpers) {
  rt::MachineConfig cfg;  // Lassen-like defaults: 40 cores, 2 sockets
  const SocketGeometry g = trilinos_socket_geometry(cfg);
  EXPECT_EQ(g.ranks_per_node, 2);
  EXPECT_EQ(g.threads_per_rank, 20);
  EXPECT_GT(trilinos_add_assembly_passes(), 1.0);
  EXPECT_EQ(pairwise_add_profile({1, 2, 3}, {10, 20, 30}),
            (std::vector<int64_t>{11, 22, 33}));
}

TEST(TrilinosLike, MakeTrilinosLikeValuesAndSupport) {
  // make_trilinos_like: correct values on SpMV, and — unlike PETSc — GPU
  // sparse add with unknown output pattern is supported.
  SpmvSetup s(data::powerlaw_matrix(200, 200, 3000, 1.2, 21));
  LibrarySystem trilinos = make_trilinos_like(scaled_machine(4));
  EXPECT_EQ(trilinos.name(), "Trilinos");
  const double t = trilinos.run(*s.stmt, 1, 5);
  EXPECT_GT(t, 0);
  EXPECT_LE(ref::max_abs_diff(s.a, ref::eval(*s.stmt)), 1e-10);

  IndexVar i("i"), j("j");
  fmt::Coo coo = data::uniform_matrix(64, 64, 600, 22);
  Tensor A("A", {64, 64}, fmt::csr());
  Tensor B("B", {64, 64}, fmt::csr());
  Tensor C("C", {64, 64}, fmt::csr());
  Tensor D("D", {64, 64}, fmt::csr());
  B.from_coo(coo);
  C.from_coo(data::shift_last_dim(coo, 1));
  D.from_coo(data::shift_last_dim(coo, 2));
  Statement& stmt = (A(i, j) = B(i, j) + C(i, j) + D(i, j));
  LibrarySystem trilinos_gpu =
      make_trilinos_like(scaled_machine(1, rt::ProcKind::GPU, 4));
  EXPECT_GT(trilinos_gpu.run(stmt, 1, 2), 0);
}

TEST(TrilinosLike, SpAdd3SlowerThanPetsc) {
  // Paper §VI-A1: SpDISTAL beats PETSc 11.8x and Trilinos 38.5x on SpAdd3,
  // i.e. Trilinos pays more for pairwise assembly than PETSc.
  IndexVar i("i"), j("j");
  fmt::Coo coo = data::powerlaw_matrix(300, 300, 6000, 1.1, 10);
  // Statements are returned by value: a copy owns its tensors, while a
  // pointer into A's definition would dangle once A goes out of scope.
  auto build = [&]() -> Statement {
    Tensor A("A", {300, 300}, fmt::csr());
    Tensor B("B", {300, 300}, fmt::csr());
    Tensor C("C", {300, 300}, fmt::csr());
    Tensor D("D", {300, 300}, fmt::csr());
    B.from_coo(coo);
    C.from_coo(data::shift_last_dim(coo, 1));
    D.from_coo(data::shift_last_dim(coo, 2));
    return A(i, j) = B(i, j) + C(i, j) + D(i, j);
  };
  LibrarySystem petsc = make_petsc_like(scaled_machine(4));
  LibrarySystem trilinos = make_trilinos_like(scaled_machine(4));
  Statement s1 = build();
  Statement s2 = build();
  const double tp = petsc.run(s1, 1, 5);
  const double tt = trilinos.run(s2, 1, 5);
  EXPECT_GT(tt, tp);
}

TEST(CtfLike, SpmvValuesAndInterpretationOverhead) {
  fmt::Coo coo = data::powerlaw_matrix(2000, 2000, 60000, 1.2, 11);
  // SpDISTAL compiled time.
  double t_spd;
  {
    SpmvSetup s(coo);
    IndexVar io("io"), ii("ii");
    s.a.set_distribution(tdn::parse_tdn("a(x) -> M(x)"));
    s.B.set_distribution(tdn::parse_tdn("B(x, y) -> M(x)"));
    s.c.set_distribution(tdn::parse_tdn("c(x) -> M(q)"));
    s.a.schedule().divide(s.i, io, ii, 4).distribute(io).parallelize(
        ii, sched::ParallelUnit::CPUThread);
    rt::Machine m = scaled_machine(4);
    rt::Runtime runtime(m);
    auto inst = comp::CompiledKernel::compile(*s.stmt, m).instantiate(runtime);
    inst->run(1);
    runtime.reset_timing();
    inst->run(5);
    t_spd = inst->report().sim_time / 5;
    EXPECT_LE(ref::max_abs_diff(s.a, ref::eval(*s.stmt)), 1e-10);
  }
  // CTF interpretation time.
  SpmvSetup s2(coo);
  CtfLike ctf(scaled_machine(4));
  const double t_ctf = ctf.run(*s2.stmt, 1, 5);
  EXPECT_LE(ref::max_abs_diff(s2.a, ref::eval(*s2.stmt)), 1e-10);
  // One to two orders of magnitude (paper: median 299x on SpMV).
  EXPECT_GT(t_ctf, 20 * t_spd);
  EXPECT_LT(t_ctf, 3000 * t_spd);
}

TEST(CtfLike, MttkrpNearParity) {
  IndexVar i("i"), j("j"), k("k"), l("l"), io("io"), ii("ii");
  fmt::Coo coo = data::uniform_3tensor(400, 300, 200, 40000, 12);
  const Coord L = 16;
  auto build = [&]() -> Statement {
    Tensor A("A", {400, L}, fmt::dense_matrix(), tdn::parse_tdn("A(x, y) -> M(x)"));
    Tensor B("B", {400, 300, 200}, fmt::csf3(), tdn::parse_tdn("B(x, y, z) -> M(x)"));
    Tensor C("C", {300, L}, fmt::dense_matrix(), tdn::parse_tdn("C(x, y) -> M(q)"));
    Tensor D("D", {200, L}, fmt::dense_matrix(), tdn::parse_tdn("D(x, y) -> M(q)"));
    B.from_coo(coo);
    C.init_dense([](const auto& x) { return 0.5 + 0.01 * static_cast<double>(x[1]); });
    D.init_dense([](const auto& x) { return 1.0 - 0.01 * static_cast<double>(x[1]); });
    Statement stmt = (A(i, l) = B(i, j, k) * C(j, l) * D(k, l));
    A.schedule().divide(i, io, ii, 4).distribute(io).parallelize(
        ii, sched::ParallelUnit::CPUThread);
    return stmt;
  };
  double t_spd;
  {
    const Statement stmt = build();
    rt::Machine m = scaled_machine(4);
    rt::Runtime runtime(m);
    auto inst = comp::CompiledKernel::compile(stmt, m).instantiate(runtime);
    inst->run(1);
    runtime.reset_timing();
    inst->run(3);
    t_spd = inst->report().sim_time / 3;
  }
  Statement stmt2 = build();
  CtfLike ctf(scaled_machine(4));
  const double t_ctf = ctf.run(stmt2, 1, 3);
  // Within ~3x either way (paper: median 0.97x with wide spread).
  EXPECT_LT(t_ctf, 3 * t_spd);
  EXPECT_GT(t_ctf, t_spd / 3);
}

TEST(CtfLike, OomOnHypersparseMttkrp) {
  // freebase_sampled-like: hypersparse modes make CTF's replicated factor
  // buffers exceed node memory at every node count (paper Figure 10f note).
  IndexVar i("i"), j("j"), k("k"), l("l");
  const Coord d = 90000;
  const Coord L = 16;
  Tensor A("A", {d, L}, fmt::dense_matrix());
  Tensor B("B", {d, d, 128}, fmt::csf3());
  Tensor C("C", {d, L}, fmt::dense_matrix());
  Tensor D("D", {128, L}, fmt::dense_matrix());
  B.from_coo(data::powerlaw_3tensor(d, d, 128, 10000, 1.1, 13));
  Statement& stmt = (A(i, l) = B(i, j, k) * C(j, l) * D(k, l));
  CtfLike ctf(scaled_machine(4));
  EXPECT_THROW(ctf.run(stmt, 1, 1), OutOfMemoryError);
}

TEST(Baselines, PetscCompetitiveOnSpmv) {
  // Paper: PETSc and Trilinos are competitive with SpDISTAL on SpMV
  // (SpDISTAL median 1.8x over PETSc). The model should keep them within
  // one small multiplicative band, not orders of magnitude.
  fmt::Coo coo = data::banded_matrix(3000, 24, 14);
  double t_spd;
  {
    SpmvSetup s(coo);
    IndexVar io("io"), ii("ii");
    s.B.set_distribution(tdn::parse_tdn("B(x, y) -> M(x)"));
    s.c.set_distribution(tdn::parse_tdn("c(x) -> M(q)"));
    s.a.schedule().divide(s.i, io, ii, 4).distribute(io).parallelize(
        ii, sched::ParallelUnit::CPUThread);
    rt::Machine m = scaled_machine(4);
    rt::Runtime runtime(m);
    auto inst = comp::CompiledKernel::compile(*s.stmt, m).instantiate(runtime);
    inst->run(1);
    runtime.reset_timing();
    inst->run(5);
    t_spd = inst->report().sim_time / 5;
  }
  SpmvSetup s2(coo);
  LibrarySystem petsc = make_petsc_like(scaled_machine(4));
  const double t_petsc = petsc.run(*s2.stmt, 1, 5);
  EXPECT_GT(t_petsc, t_spd * 0.7);
  EXPECT_LT(t_petsc, t_spd * 6.0);
}

}  // namespace
}  // namespace spdistal::base
