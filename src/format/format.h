// The format language (paper §II-B): per-dimension level formats and mode
// orderings. A k-dimensional tensor is stored as k levels, each described by
// a property-driven ModeFormat descriptor (Chou et al., "Format Abstraction
// for Sparse Tensor Algebra Compilers"): a level *kind* (Dense, Compressed,
// Singleton, Blocked) plus capability flags (unique/full/branchless/compact)
// the compiler consults instead of switching on a closed enum.
//
// CSR is {Dense, Compressed} with identity ordering; CSC is the same modes
// with ordering {1, 0} (Figure 3); DCSR is {Compressed, Compressed}; COO is
// a Compressed(non-unique) root followed by a Singleton chain — one stored
// coordinate per position, positions shared 1:1 with the parent level.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"

namespace spdistal::fmt {

enum class LevelKind : uint8_t { Dense, Compressed, Singleton, Blocked };

const char* level_kind_name(LevelKind k);

// Per-level descriptor: kind + properties. Value type, cheap to copy.
//
// Properties (per Chou et al. Table 1):
//   * full:       every coordinate of the dimension appears (Dense only);
//   * unique:     no duplicate coordinates below one parent position — a
//     Compressed(unique=false) level stores one position per stored entry
//     (the root of a COO chain), so the same coordinate may repeat;
//   * branchless: positions map 1:1 onto the parent level's positions with
//     no pos indirection (Singleton);
//   * compact:    no unused positions between stored entries (non-Dense,
//     non-Blocked — a Blocked pair stores padded value lanes).
//
// Blocked levels come in pairs describing BCSR-style fixed R x C dense
// blocks: BlockedDense(R) is the full row level (positions are *block rows*,
// coordinates implicit, rows padded up to a block-row multiple) and
// BlockedCompressed(C) below it stores one pos segment of block columns per
// block row, one crd entry per stored block. The vals region holds R*C
// contiguous (row-major) value lanes per stored block; absent lanes are
// exact zeros.
class ModeFormat {
 public:
  constexpr ModeFormat() = default;  // Dense

  static constexpr ModeFormat Dense() {
    return ModeFormat(LevelKind::Dense, /*unique=*/true);
  }
  static constexpr ModeFormat Compressed(bool unique = true) {
    return ModeFormat(LevelKind::Compressed, unique);
  }
  static constexpr ModeFormat Singleton(bool unique = true) {
    return ModeFormat(LevelKind::Singleton, unique);
  }
  // The dense-role half of a Blocked pair: R rows per block, no storage.
  static constexpr ModeFormat BlockedDense(int block) {
    return ModeFormat(LevelKind::Blocked, /*unique=*/true, block,
                      /*blocked_pos=*/false);
  }
  // The compressed-role half: C columns per block; pos + crd over blocks.
  static constexpr ModeFormat BlockedCompressed(int block) {
    return ModeFormat(LevelKind::Blocked, /*unique=*/true, block,
                      /*blocked_pos=*/true);
  }

  constexpr LevelKind kind() const { return kind_; }
  constexpr bool is_dense() const { return kind_ == LevelKind::Dense; }
  constexpr bool is_compressed() const {
    return kind_ == LevelKind::Compressed;
  }
  constexpr bool is_singleton() const {
    return kind_ == LevelKind::Singleton;
  }
  constexpr bool is_blocked() const { return kind_ == LevelKind::Blocked; }

  // --- properties -------------------------------------------------------------
  constexpr bool full() const {
    // A BlockedDense level is full like Dense: every row coordinate exists
    // (padded rows hold explicit-zero lanes).
    return kind_ == LevelKind::Dense ||
           (kind_ == LevelKind::Blocked && !blocked_pos_);
  }
  constexpr bool unique() const { return unique_; }
  constexpr bool branchless() const { return kind_ == LevelKind::Singleton; }
  constexpr bool compact() const {
    return kind_ != LevelKind::Dense && kind_ != LevelKind::Blocked;
  }
  // Block extent along this level's dimension (0 for unblocked kinds).
  constexpr int block() const { return block_; }

  // --- storage capabilities ---------------------------------------------------
  // Which regions the level materializes: Dense and BlockedDense store
  // nothing, Compressed / BlockedCompressed store pos + crd, Singleton
  // stores crd only.
  constexpr bool has_pos() const {
    return kind_ == LevelKind::Compressed ||
           (kind_ == LevelKind::Blocked && blocked_pos_);
  }
  constexpr bool has_crd() const {
    return kind_ == LevelKind::Compressed ||
           kind_ == LevelKind::Singleton ||
           (kind_ == LevelKind::Blocked && blocked_pos_);
  }

  bool operator==(const ModeFormat&) const = default;

  // "Dense", "Compressed", "Compressed!u" (non-unique), "Singleton",
  // "BlockedDense[4]", "Blocked[4]", ...
  std::string str() const;

 private:
  constexpr ModeFormat(LevelKind kind, bool unique, int block = 0,
                       bool blocked_pos = false)
      : kind_(kind), unique_(unique), block_(block), blocked_pos_(blocked_pos) {}

  LevelKind kind_ = LevelKind::Dense;
  bool unique_ = true;
  int block_ = 0;            // Blocked only: block extent on this dimension
  bool blocked_pos_ = false; // Blocked only: compressed role (stores pos/crd)
};

class Format {
 public:
  Format() = default;

  // Identity mode ordering: level d stores logical dimension d.
  explicit Format(std::vector<ModeFormat> modes);

  // Explicit ordering: level d stores logical dimension mode_ordering[d].
  Format(std::vector<ModeFormat> modes, std::vector<int> mode_ordering);

  int order() const { return static_cast<int>(modes_.size()); }
  ModeFormat mode(int level) const {
    return modes_.at(static_cast<size_t>(level));
  }
  const std::vector<ModeFormat>& modes() const { return modes_; }
  // The logical dimension stored at `level`.
  int dim_of_level(int level) const {
    return ordering_.at(static_cast<size_t>(level));
  }
  // The level storing logical dimension `dim`.
  int level_of_dim(int dim) const;
  const std::vector<int>& ordering() const { return ordering_; }

  bool all_dense() const;
  std::string str() const;
  bool operator==(const Format&) const = default;

 private:
  void validate() const;

  std::vector<ModeFormat> modes_;
  std::vector<int> ordering_;
};

// Common formats.
Format dense_vector();
Format dense_matrix();
Format csr();
Format csc();
Format dcsr();  // {Compressed, Compressed}
// CSF for 3-tensors: {Dense, Compressed, Compressed} (the format used for
// all paper 3-tensors except "patents").
Format csf3();
// "patents" format: {Dense, Dense, Compressed}.
Format ddc3();
Format dense3();
// COO of the given order: a Compressed(non-unique) root level followed by a
// Singleton chain (only the last level's coordinates are unique). coo(1)
// degenerates to a sparse vector {Compressed}.
Format coo(int order);
// BCSR with fixed block_r x block_c blocks:
// {BlockedDense(block_r), BlockedCompressed(block_c)}, identity ordering.
Format bcsr(int block_r, int block_c);

}  // namespace spdistal::fmt
