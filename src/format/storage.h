// Distributed sparse tensor storage (paper §III-B).
//
// A tensor's coordinate tree is stored level by level. Dense levels store
// nothing (their coordinates are implicit in an index space); Compressed
// levels store a crd region of non-zero coordinates and a pos region of
// PosRange entries giving, for each parent position, the inclusive range of
// crd positions holding its children — Figure 7's "SpDISTAL CSR". Singleton
// levels store a crd region only: position q holds exactly one coordinate,
// and the position space is shared 1:1 with the parent level's (a COO chain
// below a Compressed(non-unique) root).
//
// Level position spaces chain: level d's entries are indexed 0..P_d-1, and
// the pos region of a Compressed level d is indexed by the *parent's*
// position space (P_{d-1} entries). The vals region aligns 1:1 with the last
// level's positions.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "format/format.h"
#include "runtime/index_space.h"
#include "runtime/region.h"

namespace spdistal::data {
struct SparsityFingerprint;
}

namespace spdistal::fmt {

using rt::Coord;

// Coordinate list representation used for construction and I/O.
struct Coo {
  std::vector<Coord> dims;
  std::vector<std::array<Coord, rt::kMaxDim>> coords;
  std::vector<double> vals;

  int order() const { return static_cast<int>(dims.size()); }
  int64_t nnz() const { return static_cast<int64_t>(vals.size()); }

  void push(std::initializer_list<Coord> coord, double v);
  void push(const std::array<Coord, rt::kMaxDim>& coord, double v);

  // Stable coordinate-lexicographic sort by the given dimension order
  // (storage order): entries with equal coordinates keep their input order,
  // so unordered input lists round-trip deterministically.
  void sort(const std::vector<int>& dim_order);

  // Sorts lexicographically by the given dimension order (storage order) and
  // combines duplicate coordinates by summing their values.
  void sort_and_combine(const std::vector<int>& dim_order);
};

struct PackOptions;

// One stored level of the coordinate tree.
struct LevelStorage {
  ModeFormat kind = ModeFormat::Dense();
  // Logical dimension this level stores and its extent.
  int dim = 0;
  Coord extent = 0;
  // Number of entries (positions) at this level. For Singleton levels this
  // always equals parent_positions (the chain shares positions).
  Coord positions = 0;
  // Number of positions at the parent level (1 for the root).
  Coord parent_positions = 1;
  // pos (Compressed only) indexed by parent positions; crd (Compressed and
  // Singleton) by this level's positions.
  rt::RegionRef<rt::PosRange> pos;
  rt::RegionRef<int32_t> crd;
};

class TensorStorage {
 public:
  TensorStorage() = default;

  const std::string& name() const { return name_; }
  const Format& format() const { return format_; }
  const std::vector<Coord>& dims() const { return dims_; }
  int order() const { return static_cast<int>(dims_.size()); }
  int64_t nnz() const { return nnz_; }

  const LevelStorage& level(int l) const {
    return levels_.at(static_cast<size_t>(l));
  }
  LevelStorage& level(int l) { return levels_.at(static_cast<size_t>(l)); }
  int num_levels() const { return static_cast<int>(levels_.size()); }
  const rt::RegionRef<double>& vals() const { return vals_; }
  rt::RegionRef<double>& vals() { return vals_; }

  // Total bytes of all stored regions (pos + crd + vals).
  int64_t bytes() const;

  // Visits every stored value with its *logical* coordinates. For all-dense
  // tensors this includes explicit zeros.
  void for_each(
      const std::function<void(const std::array<Coord, rt::kMaxDim>&, double)>&
          fn) const;

  // Converts back to a (sorted, storage-order) coordinate list, dropping
  // explicit zeros.
  Coo to_coo() const;

  // Sparsity sketch computed once at pack time; null for storages assembled
  // outside pack(). Shared so plan-cache keys reuse one immutable copy
  // instead of re-scanning coordinates per compile.
  const std::shared_ptr<const data::SparsityFingerprint>& fingerprint()
      const {
    return fingerprint_;
  }

  std::string str() const;

 private:
  friend TensorStorage pack(const std::string& name, const Format& format,
                            const std::vector<Coord>& dims, Coo coo,
                            const PackOptions& options);
  friend TensorStorage pack_blocked(const std::string& name,
                                    const Format& format,
                                    const std::vector<Coord>& dims,
                                    const Coo& coo);

  std::string name_;
  Format format_;
  std::vector<Coord> dims_;
  std::vector<LevelStorage> levels_;
  rt::RegionRef<double> vals_;
  int64_t nnz_ = 0;
  std::shared_ptr<const data::SparsityFingerprint> fingerprint_;
};

// Pack behavior knobs.
struct PackOptions {
  // Sum duplicate coordinates into one stored entry (the default). With
  // coalescing off, duplicates survive as distinct stored entries — legal
  // only for formats whose root level is non-unique (COO chains), where
  // each entry gets its own position; unique formats reject duplicates.
  bool coalesce = true;
};

// Packs a coordinate list into the given format. Input entries may arrive
// in any order (pack stable-sorts coordinate-lexicographically in storage
// order first); duplicates are summed unless options.coalesce is off.
// `dims` are logical dimension sizes.
TensorStorage pack(const std::string& name, const Format& format,
                   const std::vector<Coord>& dims, Coo coo,
                   const PackOptions& options = {});

// Exact structural and numerical equality of the stored non-zeros
// (independent of format).
bool storage_equals(const TensorStorage& a, const TensorStorage& b,
                    double tol = 0.0);

}  // namespace spdistal::fmt
