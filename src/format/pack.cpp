// COO -> level storage packing: a CSF-style recursive grouping pass. The
// coordinate list is sorted in storage order; each level then splits the
// current groups (contiguous ranges of the sorted list sharing a coordinate
// prefix) by all coordinate values (Dense), by the distinct values present
// (Compressed unique, emitting pos/crd), by every entry individually
// (Compressed non-unique — the COO root, one position per stored entry), or
// not at all (Singleton — crd only, positions shared 1:1 with the parent).
#include "format/storage.h"

#include <algorithm>
#include <numeric>

#include "data/fingerprint.h"
#include "obs/obs.h"

namespace spdistal::fmt {

// BCSR pack: groups the (sorted, coalesced) entries into R x C blocks; one
// pos segment of block columns per block row, one crd entry per stored
// block, R*C value lanes per block (absent lanes stay exact zeros).
TensorStorage pack_blocked(const std::string& name, const Format& format,
                           const std::vector<Coord>& dims, const Coo& coo) {
  const Coord R = format.mode(0).block();
  const Coord C = format.mode(1).block();
  const int dim0 = format.dim_of_level(0);
  const int dim1 = format.dim_of_level(1);
  const Coord M = dims[static_cast<size_t>(dim0)];
  const Coord N = dims[static_cast<size_t>(dim1)];
  const Coord nbr = (M + R - 1) / R;

  // Entry order (bi, bj) from the (i, j)-sorted list; stable so lanes of
  // one block arrive row-major.
  std::vector<int64_t> perm(static_cast<size_t>(coo.nnz()));
  std::iota(perm.begin(), perm.end(), 0);
  auto block_of = [&](int64_t e) {
    const auto& c = coo.coords[static_cast<size_t>(e)];
    return std::pair<Coord, Coord>(c[static_cast<size_t>(dim0)] / R,
                                   c[static_cast<size_t>(dim1)] / C);
  };
  std::stable_sort(perm.begin(), perm.end(),
                   [&](int64_t a, int64_t b) { return block_of(a) < block_of(b); });

  TensorStorage st;
  st.name_ = name;
  st.format_ = format;
  st.dims_ = dims;
  st.nnz_ = coo.nnz();

  LevelStorage rows;
  rows.kind = format.mode(0);
  rows.dim = dim0;
  rows.extent = M;
  rows.positions = nbr;
  rows.parent_positions = 1;

  LevelStorage cols;
  cols.kind = format.mode(1);
  cols.dim = dim1;
  cols.extent = N;
  cols.parent_positions = nbr;
  cols.pos = rt::make_region<rt::PosRange>(
      rt::IndexSpace(std::max<Coord>(nbr, 1)), name + ".pos2");

  std::vector<int32_t> crds;
  std::vector<std::pair<int64_t, Coord>> lanes;  // (entry, value position)
  lanes.reserve(perm.size());
  {
    Coord bi_at = 0;
    Coord seg_begin = 0;
    size_t e = 0;
    for (Coord bi = 0; bi < nbr; ++bi) {
      seg_begin = static_cast<Coord>(crds.size());
      while (e < perm.size() && block_of(perm[e]).first == bi) {
        const Coord bj = block_of(perm[e]).second;
        const Coord q = static_cast<Coord>(crds.size());
        crds.push_back(static_cast<int32_t>(bj));
        while (e < perm.size() && block_of(perm[e]) ==
                                      std::pair<Coord, Coord>(bi, bj)) {
          const auto& c = coo.coords[static_cast<size_t>(perm[e])];
          const Coord r = c[static_cast<size_t>(dim0)] % R;
          const Coord cc = c[static_cast<size_t>(dim1)] % C;
          lanes.emplace_back(perm[e], q * R * C + r * C + cc);
          ++e;
        }
      }
      (*cols.pos)[bi] = rt::PosRange{seg_begin,
                                     static_cast<Coord>(crds.size()) - 1};
      (void)bi_at;
    }
    SPD_ASSERT(e == perm.size(), "pack: blocked grouping lost entries");
  }
  cols.positions = static_cast<Coord>(crds.size());
  cols.crd = rt::make_region<int32_t>(
      rt::IndexSpace(std::max<Coord>(cols.positions, 1)), name + ".crd2");
  for (size_t i = 0; i < crds.size(); ++i) {
    (*cols.crd)[static_cast<Coord>(i)] = crds[i];
  }
  st.levels_.push_back(std::move(rows));
  st.levels_.push_back(std::move(cols));

  const Coord vals_count =
      std::max<Coord>(st.levels_.back().positions * R * C, 1);
  st.vals_ =
      rt::make_region<double>(rt::IndexSpace(vals_count), name + ".vals");
  st.vals_->fill(0.0);
  for (const auto& [e, vp] : lanes) {
    st.vals_->at_linear(vp) = coo.vals[static_cast<size_t>(e)];
  }
  st.fingerprint_ =
      std::make_shared<const data::SparsityFingerprint>(data::fingerprint(st));
  return st;
}

TensorStorage pack(const std::string& name, const Format& format,
                   const std::vector<Coord>& dims, Coo coo,
                   const PackOptions& options) {
  obs::Span pack_span("format", obs::TraceRecorder::global().active()
                                    ? "pack " + name
                                    : std::string());
  const double t0 = obs::enabled() ? obs::wall_us() : 0.0;
  SPD_CHECK(static_cast<int>(dims.size()) == format.order(), NotationError,
            "pack: dims/format order mismatch for " << name);
  SPD_CHECK(coo.dims == dims, NotationError,
            "pack: COO dims disagree with tensor dims for " << name);
  for (const auto& c : coo.coords) {
    for (size_t d = 0; d < dims.size(); ++d) {
      SPD_CHECK(c[d] >= 0 && c[d] < dims[d], NotationError,
                "pack: coordinate out of bounds in " << name);
    }
  }
  if (options.coalesce) {
    coo.sort_and_combine(format.ordering());
  } else {
    // Keep duplicates as distinct stored entries (stable sort, so their
    // input order is preserved). Only formats with a non-unique level give
    // each duplicate its own position; reject otherwise up front.
    bool has_nonunique = false;
    for (const ModeFormat& m : format.modes()) {
      if (!m.unique()) has_nonunique = true;
    }
    coo.sort(format.ordering());
    if (!has_nonunique) {
      for (size_t e = 1; e < coo.coords.size(); ++e) {
        SPD_CHECK(coo.coords[e] != coo.coords[e - 1], NotationError,
                  "pack: duplicate coordinates in "
                      << name
                      << " need coalescing or a non-unique (COO) format");
      }
    }
  }

  if (format.order() == 2 && format.mode(0).is_blocked()) {
    TensorStorage st = pack_blocked(name, format, dims, coo);
    if (obs::enabled()) {
      static obs::Counter& tensors =
          obs::Metrics::global().counter("pack.tensors");
      static obs::Counter& nnz = obs::Metrics::global().counter("pack.nnz");
      static obs::Histogram& us = obs::Metrics::global().histogram("pack.us");
      tensors.add(1);
      nnz.add(st.nnz());
      us.record(static_cast<int64_t>(obs::wall_us() - t0));
    }
    return st;
  }

  TensorStorage st;
  st.name_ = name;
  st.format_ = format;
  st.dims_ = dims;
  st.nnz_ = coo.nnz();

  // Current groups: [begin, end) ranges into the sorted coordinate list, one
  // per position of the previously packed level (possibly empty).
  struct Range {
    int64_t begin = 0;
    int64_t end = 0;
  };
  std::vector<Range> groups{Range{0, coo.nnz()}};

  for (int l = 0; l < format.order(); ++l) {
    const int dim = format.dim_of_level(l);
    const Coord extent = dims[static_cast<size_t>(dim)];
    LevelStorage level;
    level.kind = format.mode(l);
    level.dim = dim;
    level.extent = extent;
    level.parent_positions = static_cast<Coord>(groups.size());

    if (level.kind.is_dense()) {
      std::vector<Range> next;
      next.reserve(groups.size() * static_cast<size_t>(extent));
      for (const Range& g : groups) {
        int64_t at = g.begin;
        for (Coord c = 0; c < extent; ++c) {
          const int64_t start = at;
          while (at < g.end &&
                 coo.coords[static_cast<size_t>(at)][static_cast<size_t>(dim)] ==
                     c) {
            ++at;
          }
          next.push_back(Range{start, at});
        }
        SPD_ASSERT(at == g.end, "pack: unsorted coordinates at level " << l);
      }
      level.positions = level.parent_positions * extent;
      groups = std::move(next);
    } else if (level.kind.is_singleton()) {
      // crd only; one coordinate per parent position. A Compressed
      // non-unique or Singleton parent always yields one-entry groups; a
      // Compressed unique parent only does when the data has at most one
      // child per coordinate — checked below, since it is data-dependent.
      level.positions = level.parent_positions;
      level.crd = rt::make_region<int32_t>(
          rt::IndexSpace(std::max<Coord>(level.positions, 1)),
          name + ".crd" + std::to_string(l + 1));
      for (size_t p = 0; p < groups.size(); ++p) {
        const Range& g = groups[p];
        SPD_CHECK(g.end - g.begin == 1, NotationError,
                  "pack: Singleton level " << l + 1 << " of " << name
                      << " requires exactly one entry per parent position "
                         "(got " << g.end - g.begin
                      << "); use a Compressed parent that enumerates "
                         "entries (e.g. a COO root)");
        (*level.crd)[static_cast<Coord>(p)] = static_cast<int32_t>(
            coo.coords[static_cast<size_t>(g.begin)][static_cast<size_t>(dim)]);
      }
      // Groups pass through unchanged: the chain shares positions.
    } else if (!level.kind.unique()) {
      // Compressed non-unique (COO root): one position per stored entry;
      // coordinates repeat within a parent segment.
      level.pos = rt::make_region<rt::PosRange>(
          rt::IndexSpace(level.parent_positions), name + ".pos" +
                                                      std::to_string(l + 1));
      std::vector<int32_t> crds;
      std::vector<Range> next;
      for (size_t p = 0; p < groups.size(); ++p) {
        const Range& g = groups[p];
        const Coord seg_begin = static_cast<Coord>(crds.size());
        for (int64_t at = g.begin; at < g.end; ++at) {
          crds.push_back(static_cast<int32_t>(
              coo.coords[static_cast<size_t>(at)][static_cast<size_t>(dim)]));
          next.push_back(Range{at, at + 1});
        }
        (*level.pos)[static_cast<Coord>(p)] =
            rt::PosRange{seg_begin, static_cast<Coord>(crds.size()) - 1};
      }
      level.positions = static_cast<Coord>(crds.size());
      level.crd = rt::make_region<int32_t>(
          rt::IndexSpace(std::max<Coord>(level.positions, 1)),
          name + ".crd" + std::to_string(l + 1));
      for (size_t i = 0; i < crds.size(); ++i) {
        (*level.crd)[static_cast<Coord>(i)] = crds[i];
      }
      groups = std::move(next);
    } else {
      level.pos = rt::make_region<rt::PosRange>(
          rt::IndexSpace(level.parent_positions), name + ".pos" +
                                                      std::to_string(l + 1));
      std::vector<int32_t> crds;
      std::vector<Range> next;
      for (size_t p = 0; p < groups.size(); ++p) {
        const Range& g = groups[p];
        const Coord seg_begin = static_cast<Coord>(crds.size());
        int64_t at = g.begin;
        while (at < g.end) {
          const Coord v =
              coo.coords[static_cast<size_t>(at)][static_cast<size_t>(dim)];
          const int64_t start = at;
          while (at < g.end &&
                 coo.coords[static_cast<size_t>(at)][static_cast<size_t>(dim)] ==
                     v) {
            ++at;
          }
          crds.push_back(static_cast<int32_t>(v));
          next.push_back(Range{start, at});
        }
        (*level.pos)[static_cast<Coord>(p)] =
            rt::PosRange{seg_begin, static_cast<Coord>(crds.size()) - 1};
      }
      level.positions = static_cast<Coord>(crds.size());
      level.crd = rt::make_region<int32_t>(
          rt::IndexSpace(std::max<Coord>(level.positions, 1)),
          name + ".crd" + std::to_string(l + 1));
      for (size_t i = 0; i < crds.size(); ++i) {
        (*level.crd)[static_cast<Coord>(i)] = crds[i];
      }
      groups = std::move(next);
    }
    st.levels_.push_back(std::move(level));
  }

  // vals: one entry per last-level position. All-dense tensors get an N-D
  // vals region (row-major, matching dense position numbering) so that
  // partitions along any dimension are cheap rectangles; mixed formats end
  // in a 1-D position space aligned with the last level's crd.
  if (format.all_dense()) {
    rt::RectN bounds;
    bounds.dim = format.order();
    for (int l = 0; l < format.order(); ++l) {
      bounds.lo[static_cast<size_t>(l)] = 0;
      bounds.hi[static_cast<size_t>(l)] =
          dims[static_cast<size_t>(format.dim_of_level(l))] - 1;
    }
    st.vals_ =
        rt::make_region<double>(rt::IndexSpace(bounds), name + ".vals");
  } else {
    const Coord vals_count = std::max<Coord>(st.levels_.back().positions, 1);
    st.vals_ =
        rt::make_region<double>(rt::IndexSpace(vals_count), name + ".vals");
  }
  st.vals_->fill(0.0);
  for (size_t p = 0; p < groups.size(); ++p) {
    const auto& g = groups[p];
    SPD_ASSERT(g.end - g.begin <= 1,
               "pack: duplicate coordinates survived combine in " << name);
    if (g.end > g.begin) {
      st.vals_->at_linear(static_cast<Coord>(p)) =
          coo.vals[static_cast<size_t>(g.begin)];
    }
  }
  // Sketch the non-zero pattern now, while the coordinates are hot: cache
  // keys and the persistent plan store read this instead of re-scanning.
  st.fingerprint_ =
      std::make_shared<const data::SparsityFingerprint>(data::fingerprint(st));
  if (obs::enabled()) {
    static obs::Counter& tensors = obs::Metrics::global().counter("pack.tensors");
    static obs::Counter& nnz = obs::Metrics::global().counter("pack.nnz");
    static obs::Histogram& us = obs::Metrics::global().histogram("pack.us");
    tensors.add(1);
    nnz.add(st.nnz_);
    us.record(static_cast<int64_t>(obs::wall_us() - t0));
  }
  return st;
}

}  // namespace spdistal::fmt
