#include "mesh/interpolate.hpp"

#include "util/annotations.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "util/error.hpp"
#include "util/flops.hpp"

namespace enzo::mesh {

namespace {

ENZO_HOT double minmod(double a, double b) {
  if (a * b <= 0.0) return 0.0;
  return std::abs(a) < std::abs(b) ? a : b;
}

/// Separable child→parent map: for each child storage index along each
/// axis, the parent storage index it falls in and its sub-cell offset in
/// (-0.5, 0.5).  The cell map of a 3-d prolongation is the outer product of
/// the three axis maps, so these O(n) tables replace per-cell index math.
struct AxisMaps {
  std::array<std::vector<int>, 3> ps;
  std::array<std::vector<double>, 3> frac;
};

/// This lane's axis maps, filled for child storage indices [lo, hi) per
/// axis.  Sized here, outside the hot kernels, so they never allocate;
/// capacity is kept across calls.  Every child cell of the region must lie
/// inside the parent's total (ghost-inclusive) region; the map is monotone
/// per axis, so checking each axis's index range is the same test as
/// checking every cell.
const AxisMaps& axis_maps(const Grid& child, const Grid& parent,
                          const int lo[3], const int hi[3]) {
  thread_local AxisMaps m;
  for (int d = 0; d < 3; ++d) {
    ENZO_REQUIRE(child.spec().level_dims[d] % parent.spec().level_dims[d] == 0,
                 "non-integer level refinement");
    const std::int64_t rd =
        child.spec().level_dims[d] / parent.spec().level_dims[d];
    m.ps[d].resize(static_cast<std::size_t>(child.nt(d)));
    m.frac[d].resize(static_cast<std::size_t>(child.nt(d)));
    for (int s = lo[d]; s < hi[d]; ++s) {
      // Global child-level index, deliberately *unwrapped*: a ghost index
      // beyond the domain maps (by floor division) into the parent's own
      // ghost zones, which the parent-level boundary pass has already
      // filled with the periodic or outflow data.  Wrapping here instead
      // would point at far-side cells the single parent does not cover.
      const std::int64_t g = child.box().lo[d] + (s - child.ng(d));
      const std::int64_t pcell =
          g >= 0 ? g / rd : -((-g + rd - 1) / rd);  // floor division
      const std::int64_t psd = pcell - parent.box().lo[d] + parent.ng(d);
      ENZO_REQUIRE(psd >= 0 && psd < parent.nt(d),
                   "child cell not covered by parent " + parent.box().str() +
                       " child " + child.box().str());
      m.ps[d][s] = static_cast<int>(psd);
      m.frac[d][s] = rd == 1 ? 0.0
                             : (static_cast<double>(g - pcell * rd) + 0.5) /
                                       static_cast<double>(rd) -
                                   0.5;
    }
  }
  return m;
}

/// The y/z part of one child row's parent stencil: sub-cell offsets, and
/// the parent strides of the two-sided neighbours (0 where the parent cell
/// sits on its array edge, which keeps that axis's slope flat).
struct RowStencil {
  double fj, fk;
  std::ptrdiff_t sj, sk;
};

/// Minmod-limited linear interpolation at parent offset c.  The operation
/// order is part of the byte contract: axes 0, 1, 2 in turn, each adding
/// `f * slope` (even when the slope is 0) unless its offset is exactly 0.
ENZO_HOT inline double sample(const double* p, std::ptrdiff_t c, double fi,
                              bool two_sided_x, const RowStencil& r) {
  const double v = p[c];
  double out = v;
  if (fi != 0.0) {
    const double slope =
        two_sided_x ? minmod(p[c + 1] - v, v - p[c - 1]) : 0.0;
    out += fi * slope;
  }
  if (r.fj != 0.0) {
    const double slope =
        r.sj != 0 ? minmod(p[c + r.sj] - v, v - p[c - r.sj]) : 0.0;
    out += r.fj * slope;
  }
  if (r.fk != 0.0) {
    const double slope =
        r.sk != 0 ? minmod(p[c + r.sk] - v, v - p[c - r.sk]) : 0.0;
    out += r.fk * slope;
  }
  return out;
}

/// One field's raw rows: destination, parent new state, parent old state
/// (nullptr when not time-blending).
struct FieldRows {
  double* dst;
  const double* pnew;
  const double* pold;
  bool positive;
};

/// Prolong child cells [i0, i1) of one row.  `base` is the parent offset of
/// the row's (0, pj, pk) cell, `dst` the child row start.
ENZO_HOT void prolong_run(const FieldRows& f, double* dst, std::ptrdiff_t base,
                          const RowStencil& r, const int* px,
                          const double* fx, int pnx, int i0, int i1,
                          double w) {
  const double wo = 1.0 - w;
  for (int i = i0; i < i1; ++i) {
    const std::ptrdiff_t c = base + px[i];
    const bool two_sided_x = px[i] >= 1 && px[i] + 1 < pnx;
    double v = sample(f.pnew, c, fx[i], two_sided_x, r);
    if (f.pold != nullptr) {
      const double vo = sample(f.pold, c, fx[i], two_sided_x, r);
      v = w * v + wo * vo;
    }
    if (f.positive && v <= 0.0) v = std::max(f.pnew[c], 1e-300);
    dst[i] = v;
  }
}

/// Interpolate child storage cells in [lo, hi) from the parent, row by row.
/// With `ghosts_only`, cells of the child's active box are left alone; with
/// `covered`, so are cells whose mask byte is nonzero.  time_weight in [0,1]
/// blends parent old (0) → new (1) states.  Returns the cells written.
ENZO_HOT std::int64_t interpolate_region(Grid& child, const Grid& parent,
                                         const int lo[3], const int hi[3],
                                         bool ghosts_only,
                                         const std::uint8_t* covered,
                                         double time_weight,
                                         const AxisMaps& m) {
  const bool use_old = time_weight < 1.0 && parent.has_old_fields();
  std::array<FieldRows, kNumFields> rows{};
  int nf = 0;
  for (Field f : child.field_list()) {
    if (!parent.has_field(f)) continue;
    rows[nf++] = {child.field(f).data(), parent.field(f).data(),
                  use_old ? parent.old_field(f).data() : nullptr,
                  is_density_like(f)};
  }
  const int cnx = child.nt(0), cny = child.nt(1);
  const int pnx = parent.nt(0), pny = parent.nt(1), pnz = parent.nt(2);
  const std::ptrdiff_t pstride_k = std::ptrdiff_t(pnx) * pny;
  const int* px = m.ps[0].data();
  const double* fx = m.frac[0].data();
  const int alo[3] = {child.ng(0), child.ng(1), child.ng(2)};
  const int ahi[3] = {alo[0] + child.nx(0), alo[1] + child.nx(1),
                      alo[2] + child.nx(2)};

  std::int64_t cells = 0;
  for (int sk = lo[2]; sk < hi[2]; ++sk) {
    const int pk = m.ps[2][sk];
    for (int sj = lo[1]; sj < hi[1]; ++sj) {
      const int pj = m.ps[1][sj];
      const RowStencil r{
          m.frac[1][sj], m.frac[2][sk],
          pj >= 1 && pj + 1 < pny ? std::ptrdiff_t(pnx) : 0,
          pk >= 1 && pk + 1 < pnz ? pstride_k : 0};
      const std::ptrdiff_t base = std::ptrdiff_t(pnx) * pj + pstride_k * pk;
      const std::ptrdiff_t crow =
          std::ptrdiff_t(cnx) * (sj + std::ptrdiff_t(cny) * sk);
      const std::uint8_t* mrow = covered != nullptr ? covered + crow : nullptr;
      // A row through the active box has ghost cells only at its two ends.
      const bool split = ghosts_only && sj >= alo[1] && sj < ahi[1] &&
                         sk >= alo[2] && sk < ahi[2];
      const int seg[2][2] = {{lo[0], split ? alo[0] : hi[0]},
                             {split ? ahi[0] : hi[0], hi[0]}};
      for (const auto& sg : seg) {
        int i = sg[0];
        while (i < sg[1]) {
          if (mrow != nullptr && mrow[i] != 0) {
            ++i;
            continue;
          }
          int end = i + 1;
          while (end < sg[1] && (mrow == nullptr || mrow[end] == 0)) ++end;
          for (int n = 0; n < nf; ++n)
            prolong_run(rows[n], rows[n].dst + crow, base, r, px, fx, pnx, i,
                        end, time_weight);
          cells += end - i;
          i = end;
        }
      }
    }
  }
  if (cells > 0) {
    static perf::Counter& flops =
        perf::Registry::global().counter("flops.interpolation");
    util::add_flops(flops, util::flop_cost::kInterpolationPerCell *
                               static_cast<std::uint64_t>(cells) *
                               child.field_list().size());
  }
  return cells;
}

}  // namespace

std::int64_t fill_ghosts_from_parent(Grid& child, const Grid& parent,
                                     const std::uint8_t* covered) {
  if (child.ng(0) == 0 && child.ng(1) == 0 && child.ng(2) == 0) return 0;
  // Time weight from the parent's [old_time, time] bracket.
  double w = 1.0;
  if (parent.has_old_fields()) {
    const double span =
        ext::pos_to_double(parent.time() - parent.old_time());
    if (span > 0.0) {
      w = ext::pos_to_double(child.time() - parent.old_time()) / span;
      w = std::min(1.0, std::max(0.0, w));
    }
  }
  const int lo[3] = {0, 0, 0};
  const int hi[3] = {child.nt(0), child.nt(1), child.nt(2)};
  return interpolate_region(child, parent, lo, hi, /*ghosts_only=*/true,
                            covered, w, axis_maps(child, parent, lo, hi));
}

void fill_active_from_parent(Grid& child, const Grid& parent) {
  int lo[3], hi[3];
  for (int d = 0; d < 3; ++d) {
    lo[d] = child.ng(d);
    hi[d] = child.ng(d) + child.nx(d);
  }
  interpolate_region(child, parent, lo, hi, /*ghosts_only=*/false, nullptr,
                     /*time_weight=*/1.0, axis_maps(child, parent, lo, hi));
}

}  // namespace enzo::mesh
