// Tests for the format language, COO handling, and packing (Figure 3 / §III-B).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "format/storage.h"

namespace spdistal::fmt {
namespace {

using rt::Coord;
using rt::PosRange;

// The paper's 4x4 example matrix (Figure 3 / Figure 7).
Coo paper_coo() {
  Coo coo;
  coo.dims = {4, 4};
  coo.push({0, 0}, 1.0);  // a
  coo.push({0, 1}, 2.0);  // b
  coo.push({0, 3}, 3.0);  // c
  coo.push({1, 1}, 4.0);  // d
  coo.push({1, 3}, 5.0);  // e
  coo.push({2, 0}, 6.0);  // f
  coo.push({3, 0}, 7.0);  // g
  coo.push({3, 3}, 8.0);  // h
  return coo;
}

TEST(Format, CommonFormats) {
  EXPECT_EQ(csr().str(), "{Dense(d1), Compressed(d2)}");
  EXPECT_EQ(csc().str(), "{Dense(d2), Compressed(d1)}");
  EXPECT_EQ(csr().level_of_dim(1), 1);
  EXPECT_EQ(csc().level_of_dim(1), 0);
  EXPECT_TRUE(dense_matrix().all_dense());
  EXPECT_FALSE(csr().all_dense());
  EXPECT_EQ(coo(2).str(), "{Compressed!u(d1), Singleton(d2)}");
  EXPECT_EQ(coo(3).str(),
            "{Compressed!u(d1), Singleton!u(d2), Singleton(d3)}");
}

TEST(Format, DescriptorProperties) {
  const ModeFormat d = ModeFormat::Dense();
  const ModeFormat c = ModeFormat::Compressed();
  const ModeFormat cn = ModeFormat::Compressed(/*unique=*/false);
  const ModeFormat s = ModeFormat::Singleton();
  EXPECT_TRUE(d.full());
  EXPECT_FALSE(c.full());
  EXPECT_TRUE(c.unique());
  EXPECT_FALSE(cn.unique());
  EXPECT_TRUE(s.branchless());
  EXPECT_FALSE(c.branchless());
  EXPECT_TRUE(c.compact());
  EXPECT_FALSE(d.compact());
  // Storage capabilities drive the generic pos/crd handling everywhere.
  EXPECT_TRUE(c.has_pos());
  EXPECT_TRUE(c.has_crd());
  EXPECT_FALSE(s.has_pos());
  EXPECT_TRUE(s.has_crd());
  EXPECT_FALSE(d.has_crd());
  // The unique flag participates in identity (kernel legality depends on
  // it), so Compressed != Compressed!u.
  EXPECT_FALSE(c == cn);
  EXPECT_EQ(c, ModeFormat::Compressed(true));
}

TEST(Format, RejectsWrongArityOrdering) {
  EXPECT_THROW(Format({ModeFormat::Dense()}, {0, 1}), NotationError);
  EXPECT_THROW(Format({ModeFormat::Dense(), ModeFormat::Dense()}, {0}),
               NotationError);
  EXPECT_THROW(Format({ModeFormat::Dense(), ModeFormat::Dense()}, {}),
               NotationError);
}

TEST(Format, RejectsOutOfRangeOrdering) {
  EXPECT_THROW(Format({ModeFormat::Dense(), ModeFormat::Dense()}, {0, 2}),
               NotationError);
  EXPECT_THROW(Format({ModeFormat::Dense(), ModeFormat::Dense()}, {-1, 0}),
               NotationError);
}

TEST(Format, RejectsDuplicateOrdering) {
  EXPECT_THROW(Format({ModeFormat::Dense(), ModeFormat::Dense()}, {0, 0}),
               NotationError);
  EXPECT_THROW(Format({ModeFormat::Dense(), ModeFormat::Dense(),
                       ModeFormat::Dense()},
                      {2, 1, 2}),
               NotationError);
}

TEST(Format, RejectsIllegalSingletonPlacement) {
  // Singleton cannot be the root level: its positions are the parent's.
  EXPECT_THROW(Format({ModeFormat::Singleton()}), NotationError);
  EXPECT_THROW(Format({ModeFormat::Singleton(), ModeFormat::Compressed()}),
               NotationError);
  // Singleton after Dense has no entry-enumerating parent.
  EXPECT_THROW(Format({ModeFormat::Dense(), ModeFormat::Singleton()}),
               NotationError);
}

TEST(Format, RejectsIllegalNonUniqueChains) {
  // Levels below a non-unique level must be Singletons.
  EXPECT_THROW(Format({ModeFormat::Compressed(false),
                       ModeFormat::Compressed()}),
               NotationError);
  // The last level must be unique.
  EXPECT_THROW(Format({ModeFormat::Compressed(false)}), NotationError);
  EXPECT_THROW(Format({ModeFormat::Compressed(false),
                       ModeFormat::Singleton(false)}),
               NotationError);
}

TEST(Coo, SortAndCombineSumsDuplicates) {
  Coo coo;
  coo.dims = {3, 3};
  coo.push({2, 2}, 1.0);
  coo.push({0, 0}, 2.0);
  coo.push({2, 2}, 3.0);
  coo.sort_and_combine({0, 1});
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.vals[0], 2.0);
  EXPECT_EQ(coo.vals[1], 4.0);
}

// Figure 3 center: CSR encoding of the paper matrix.
TEST(Pack, CsrMatchesFigure3) {
  TensorStorage st = pack("B", csr(), {4, 4}, paper_coo());
  EXPECT_EQ(st.nnz(), 8);
  const LevelStorage& l2 = st.level(1);
  ASSERT_TRUE(l2.kind.is_compressed());
  ASSERT_EQ(l2.parent_positions, 4);
  // pos = {0,2},{3,4},{5,5},{6,7} (inclusive PosRange encoding).
  EXPECT_EQ((*l2.pos)[0], (PosRange{0, 2}));
  EXPECT_EQ((*l2.pos)[1], (PosRange{3, 4}));
  EXPECT_EQ((*l2.pos)[2], (PosRange{5, 5}));
  EXPECT_EQ((*l2.pos)[3], (PosRange{6, 7}));
  // crd = 0 1 3 1 3 0 0 3.
  const int32_t expect_crd[8] = {0, 1, 3, 1, 3, 0, 0, 3};
  for (Coord i = 0; i < 8; ++i) EXPECT_EQ((*l2.crd)[i], expect_crd[i]);
  // vals = a b c d e f g h.
  for (Coord i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ((*st.vals())[i], static_cast<double>(i + 1));
  }
}

// Figure 3 right: CSC stores columns-then-rows: vals = a f g b d c e h.
TEST(Pack, CscMatchesFigure3) {
  TensorStorage st = pack("B", csc(), {4, 4}, paper_coo());
  const LevelStorage& l = st.level(1);
  // Column segments: col0 has rows {0,2,3}, col1 {0,1}, col2 {}, col3 {0,1,3}.
  EXPECT_EQ((*l.pos)[0], (PosRange{0, 2}));
  EXPECT_EQ((*l.pos)[1], (PosRange{3, 4}));
  EXPECT_TRUE((*l.pos)[2].empty());
  EXPECT_EQ((*l.pos)[3], (PosRange{5, 7}));
  const double expect_vals[8] = {1, 6, 7, 2, 4, 3, 5, 8};  // a f g b d c e h
  for (Coord i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ((*st.vals())[i], expect_vals[i]);
  }
}

TEST(Pack, DenseMatrixStoresZeros) {
  TensorStorage st = pack("D", dense_matrix(), {4, 4}, paper_coo());
  EXPECT_EQ(st.vals()->space().volume(), 16);
  EXPECT_EQ(st.vals()->space().dim(), 2);  // all-dense tensors get N-D vals
  EXPECT_DOUBLE_EQ(st.vals()->at2(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(st.vals()->at2(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(st.vals()->at2(3, 3), 8.0);
}

TEST(Pack, Dcsr) {
  Coo coo;
  coo.dims = {100, 100};
  coo.push({5, 7}, 1.0);
  coo.push({5, 9}, 2.0);
  coo.push({90, 0}, 3.0);
  TensorStorage st = pack("S", dcsr(), {100, 100}, std::move(coo));
  // Level 1 stores only the two non-empty rows.
  EXPECT_EQ(st.level(0).positions, 2);
  EXPECT_EQ((*st.level(0).crd)[0], 5);
  EXPECT_EQ((*st.level(0).crd)[1], 90);
  EXPECT_EQ(st.level(1).positions, 3);
}

TEST(Pack, Csf3AndDdc3) {
  Coo coo;
  coo.dims = {3, 4, 5};
  coo.push({0, 1, 2}, 1.0);
  coo.push({0, 1, 4}, 2.0);
  coo.push({2, 3, 0}, 3.0);
  TensorStorage a = pack("A", csf3(), {3, 4, 5}, coo);
  EXPECT_EQ(a.level(1).positions, 2);  // (0,1), (2,3)
  EXPECT_EQ(a.level(2).positions, 3);
  TensorStorage b = pack("B", ddc3(), {3, 4, 5}, coo);
  EXPECT_EQ(b.level(1).positions, 12);  // 3*4 dense positions
  EXPECT_EQ(b.level(2).positions, 3);
  EXPECT_TRUE(storage_equals(a, b));
}

// COO stores the paper matrix as a Compressed(non-unique) row root (one
// position per entry, duplicate row coordinates) over a Singleton column
// chain (crd only, positions shared with the root).
TEST(Pack, Coo2MatchesFigure3) {
  TensorStorage st = pack("B", coo(2), {4, 4}, paper_coo());
  EXPECT_EQ(st.nnz(), 8);
  const LevelStorage& l1 = st.level(0);
  const LevelStorage& l2 = st.level(1);
  ASSERT_TRUE(l1.kind.is_compressed());
  EXPECT_FALSE(l1.kind.unique());
  ASSERT_TRUE(l2.kind.is_singleton());
  EXPECT_EQ(l1.positions, 8);
  EXPECT_EQ(l2.positions, 8);  // shared 1:1 with the root
  EXPECT_FALSE(l2.pos);        // crd only
  // Root pos: one segment covering every entry.
  EXPECT_EQ((*l1.pos)[0], (PosRange{0, 7}));
  const int32_t rows[8] = {0, 0, 0, 1, 1, 2, 3, 3};
  const int32_t cols[8] = {0, 1, 3, 1, 3, 0, 0, 3};
  for (Coord q = 0; q < 8; ++q) {
    EXPECT_EQ((*l1.crd)[q], rows[q]);
    EXPECT_EQ((*l2.crd)[q], cols[q]);
    EXPECT_DOUBLE_EQ((*st.vals())[q], static_cast<double>(q + 1));
  }
}

TEST(Pack, Coo3) {
  Coo c;
  c.dims = {3, 4, 5};
  c.push({0, 1, 2}, 1.0);
  c.push({0, 1, 4}, 2.0);
  c.push({2, 3, 0}, 3.0);
  TensorStorage st = pack("T", coo(3), {3, 4, 5}, c);
  ASSERT_TRUE(st.level(1).kind.is_singleton());
  EXPECT_FALSE(st.level(1).kind.unique());
  ASSERT_TRUE(st.level(2).kind.is_singleton());
  EXPECT_EQ(st.level(0).positions, 3);
  EXPECT_EQ(st.level(1).positions, 3);
  EXPECT_EQ(st.level(2).positions, 3);
  EXPECT_EQ((*st.level(1).crd)[0], 1);
  EXPECT_EQ((*st.level(2).crd)[1], 4);
  // Structural equality with CSF packing of the same data.
  EXPECT_TRUE(storage_equals(st, pack("S", csf3(), {3, 4, 5}, c)));
}

TEST(Pack, SingletonUnderUniqueCompressedRequiresOneChild) {
  // {Compressed, Singleton} is a legal *format*, but packing data with two
  // children under one root coordinate cannot satisfy the 1:1 chain.
  Coo ok;
  ok.dims = {10, 10};
  ok.push({3, 7}, 1.0);
  ok.push({5, 2}, 2.0);
  TensorStorage st = pack(
      "S", Format({ModeFormat::Compressed(), ModeFormat::Singleton()}),
      {10, 10}, ok);
  EXPECT_EQ(st.level(1).positions, 2);
  Coo bad = ok;
  bad.push({3, 9}, 3.0);  // second entry under row 3
  EXPECT_THROW(
      pack("S", Format({ModeFormat::Compressed(), ModeFormat::Singleton()}),
           {10, 10}, std::move(bad)),
      NotationError);
}

// Round-trip Coo <-> {COO, CSR, DCSR, CSF}: values and coordinates are
// bit-exact after a canonical sort, for matrices and 3-tensors.
TEST(Pack, RoundTripAllFormats) {
  Rng rng(1234577);
  Coo m;
  m.dims = {30, 40};
  for (int i = 0; i < 120; ++i) {
    m.push({rng.next_range(0, 29), rng.next_range(0, 39)},
           rng.next_double(-2, 2));
  }
  Coo canon_m = m;
  canon_m.sort_and_combine({0, 1});
  for (const Format& f : {coo(2), csr(), dcsr()}) {
    TensorStorage st = pack("X", f, m.dims, m);
    Coo back = st.to_coo();
    back.sort_and_combine({0, 1});
    ASSERT_EQ(back.nnz(), canon_m.nnz()) << f.str();
    for (int64_t q = 0; q < back.nnz(); ++q) {
      EXPECT_EQ(back.coords[static_cast<size_t>(q)],
                canon_m.coords[static_cast<size_t>(q)])
          << f.str();
      EXPECT_EQ(back.vals[static_cast<size_t>(q)],
                canon_m.vals[static_cast<size_t>(q)])
          << f.str();
    }
  }
  Coo t;
  t.dims = {12, 9, 15};
  for (int i = 0; i < 150; ++i) {
    t.push({rng.next_range(0, 11), rng.next_range(0, 8),
            rng.next_range(0, 14)},
           rng.next_double(-2, 2));
  }
  Coo canon_t = t;
  canon_t.sort_and_combine({0, 1, 2});
  for (const Format& f : {coo(3), csf3()}) {
    TensorStorage st = pack("Y", f, t.dims, t);
    Coo back = st.to_coo();
    back.sort_and_combine({0, 1, 2});
    ASSERT_EQ(back.nnz(), canon_t.nnz()) << f.str();
    for (int64_t q = 0; q < back.nnz(); ++q) {
      EXPECT_EQ(back.coords[static_cast<size_t>(q)],
                canon_t.coords[static_cast<size_t>(q)])
          << f.str();
      EXPECT_EQ(back.vals[static_cast<size_t>(q)],
                canon_t.vals[static_cast<size_t>(q)])
          << f.str();
    }
  }
}

TEST(Pack, RejectsOutOfBounds) {
  Coo coo;
  coo.dims = {2, 2};
  coo.push({2, 0}, 1.0);
  EXPECT_THROW(pack("X", csr(), {2, 2}, std::move(coo)), NotationError);
}

TEST(Storage, ForEachVisitsAllNonZeros) {
  TensorStorage st = pack("B", csr(), {4, 4}, paper_coo());
  int count = 0;
  double sum = 0;
  st.for_each([&](const std::array<Coord, rt::kMaxDim>&, double v) {
    ++count;
    sum += v;
  });
  EXPECT_EQ(count, 8);
  EXPECT_DOUBLE_EQ(sum, 36.0);
}

TEST(Storage, RoundTripToCoo) {
  TensorStorage st = pack("B", csr(), {4, 4}, paper_coo());
  Coo coo = st.to_coo();
  EXPECT_EQ(coo.nnz(), 8);
  TensorStorage st2 = pack("B2", csr(), {4, 4}, std::move(coo));
  EXPECT_TRUE(storage_equals(st, st2));
}

// Pack sorts: an arbitrarily shuffled coordinate list produces the same
// storage as its canonically ordered twin, for every format family.
TEST(Pack, SortsUnorderedInputOnPack) {
  Coo ordered = paper_coo();
  Coo shuffled;
  shuffled.dims = ordered.dims;
  std::vector<size_t> perm = {5, 2, 7, 0, 4, 6, 1, 3};
  for (size_t p : perm) {
    shuffled.push(ordered.coords[p], ordered.vals[p]);
  }
  for (const Format& f : {csr(), csc(), dcsr(), coo(2), bcsr(2, 2)}) {
    TensorStorage a = pack("A", f, {4, 4}, ordered);
    TensorStorage b = pack("B", f, {4, 4}, shuffled);
    EXPECT_TRUE(storage_equals(a, b)) << f.str();
    // Region-exact too: same pos/crd/vals, not just the same non-zero set.
    for (int l = 0; l < a.num_levels(); ++l) {
      ASSERT_EQ(a.level(l).positions, b.level(l).positions) << f.str();
      for (Coord q = 0; a.level(l).crd && q < a.level(l).positions; ++q) {
        EXPECT_EQ((*a.level(l).crd)[q], (*b.level(l).crd)[q]) << f.str();
      }
    }
    for (Coord q = 0; q < a.vals()->space().volume(); ++q) {
      EXPECT_EQ((*a.vals())[q], (*b.vals())[q]) << f.str();
    }
  }
}

// With coalescing off, duplicates survive as distinct stored entries on
// non-unique (COO) chains — each gets its own position — and round-trip
// to the same combined values.
TEST(Pack, CoalesceOffKeepsDuplicatesOnCooChains) {
  Coo dup;
  dup.dims = {3, 3};
  dup.push({2, 2}, 1.0);
  dup.push({0, 1}, 2.0);
  dup.push({2, 2}, 3.0);
  dup.push({0, 1}, -0.5);
  PackOptions raw;
  raw.coalesce = false;
  TensorStorage st = pack("D", coo(2), {3, 3}, dup, raw);
  EXPECT_EQ(st.nnz(), 4);
  EXPECT_EQ(st.level(0).positions, 4);  // one position per stored entry
  // Stable sort: equal coordinates keep their input order.
  EXPECT_EQ((*st.vals())[0], 2.0);
  EXPECT_EQ((*st.vals())[1], -0.5);
  EXPECT_EQ((*st.vals())[2], 1.0);
  EXPECT_EQ((*st.vals())[3], 3.0);
  Coo back = st.to_coo();
  back.sort_and_combine({0, 1});
  ASSERT_EQ(back.nnz(), 2);
  EXPECT_EQ(back.vals[0], 1.5);
  EXPECT_EQ(back.vals[1], 4.0);
  // The default coalescing pack combines up front to the same values.
  TensorStorage combined = pack("C", coo(2), {3, 3}, dup);
  EXPECT_EQ(combined.nnz(), 2);
  EXPECT_EQ((*combined.vals())[0], 1.5);
  EXPECT_EQ((*combined.vals())[1], 4.0);
}

TEST(Pack, CoalesceOffRejectsDuplicatesOnUniqueFormats) {
  Coo dup;
  dup.dims = {4, 4};
  dup.push({1, 1}, 1.0);
  dup.push({1, 1}, 2.0);
  PackOptions raw;
  raw.coalesce = false;
  for (const Format& f : {csr(), bcsr(2, 2)}) {
    Coo copy = dup;
    EXPECT_THROW(pack("X", f, {4, 4}, std::move(copy), raw), NotationError)
        << f.str();
  }
  // Duplicate-free input is fine without coalescing, on any format.
  TensorStorage st = pack("Y", csr(), {4, 4}, paper_coo(), raw);
  EXPECT_EQ(st.nnz(), 8);
}

// Property: packing the same random tensor into different formats preserves
// exactly the set of non-zeros.
class FormatRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(FormatRoundTripProperty, AllFormatsAgree) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 9973 + 3);
  const Coord n = 1 + static_cast<Coord>(rng.next_below(40));
  const Coord m = 1 + static_cast<Coord>(rng.next_below(40));
  Coo coo;
  coo.dims = {n, m};
  const int k = static_cast<int>(rng.next_below(80));
  for (int i = 0; i < k; ++i) {
    coo.push({rng.next_range(0, n - 1), rng.next_range(0, m - 1)},
             rng.next_double(-1, 1));
  }
  TensorStorage a = pack("A", csr(), {n, m}, coo);
  TensorStorage b = pack("B", csc(), {n, m}, coo);
  TensorStorage c = pack("C", dcsr(), {n, m}, coo);
  TensorStorage d = pack("D", dense_matrix(), {n, m}, coo);
  TensorStorage e = pack("E", fmt::coo(2), {n, m}, coo);
  EXPECT_TRUE(storage_equals(a, b, 1e-15));
  EXPECT_TRUE(storage_equals(a, c, 1e-15));
  EXPECT_TRUE(storage_equals(a, d, 1e-15));
  EXPECT_TRUE(storage_equals(a, e, 1e-15));
  // nnz accounting matches the combined COO.
  Coo combined = coo;
  combined.sort_and_combine({0, 1});
  EXPECT_EQ(a.nnz(), combined.nnz());
}

INSTANTIATE_TEST_SUITE_P(RandomTensors, FormatRoundTripProperty,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace spdistal::fmt
