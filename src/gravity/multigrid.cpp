// Geometric multigrid for the subgrid Poisson problem (§3.3): cell-centered
// V-cycles with red-black Gauss–Seidel smoothing, full-weighting restriction
// and piecewise-constant prolongation.  The finest level carries fixed
// Dirichlet values in its one-cell ghost layer (interpolated from the parent
// grid / exchanged with siblings by the caller); coarse levels solve the
// error equation with homogeneous Dirichlet ghosts.
//
// Subgrid extents are always even along refined axes (child boxes are
// parent cells × the integer refinement factor), so at least one coarsening
// is always available; coarsening stops at odd or minimal extents.

#include <algorithm>
#include <cmath>

#include <vector>

#include "gravity/gravity.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"

namespace enzo::gravity {

namespace {

struct MgLevel {
  util::Array3<double> phi;  // with 1 ghost on active axes
  util::Array3<double> rhs;  // same shape; ghosts ignored
  int n[3];                  // active extents
  bool active[3];
  double dx;
};

int ghost(const MgLevel& lv, int d) { return lv.active[d] ? 1 : 0; }

ENZO_HOT void smooth(MgLevel& lv, int sweeps) {
  const double dx2 = lv.dx * lv.dx;
  int nterms = 0;
  for (int d = 0; d < 3; ++d)
    if (lv.active[d]) nterms += 2;
  if (nterms == 0) return;
  const int gx = ghost(lv, 0), gy = ghost(lv, 1), gz = ghost(lv, 2);
  for (int s = 0; s < sweeps; ++s) {
    for (int color = 0; color < 2; ++color) {
      for (int k = 0; k < lv.n[2]; ++k)
        for (int j = 0; j < lv.n[1]; ++j)
          for (int i = 0; i < lv.n[0]; ++i) {
            if (((i + j + k) & 1) != color) continue;
            const int si = i + gx, sj = j + gy, sk = k + gz;
            double sum = 0.0;
            if (lv.active[0])
              sum += lv.phi(si + 1, sj, sk) + lv.phi(si - 1, sj, sk);
            if (lv.active[1])
              sum += lv.phi(si, sj + 1, sk) + lv.phi(si, sj - 1, sk);
            if (lv.active[2])
              sum += lv.phi(si, sj, sk + 1) + lv.phi(si, sj, sk - 1);
            lv.phi(si, sj, sk) = (sum - dx2 * lv.rhs(si, sj, sk)) / nterms;
          }
    }
  }
  static perf::Counter& flops =
      perf::Registry::global().counter("flops.gravity");
  util::add_flops(flops, util::flop_cost::kMultigridPerCellPerSweep *
                             static_cast<std::uint64_t>(lv.n[0]) * lv.n[1] *
                             lv.n[2] * 2 * sweeps);
}

ENZO_HOT void residual(const MgLevel& lv, util::Array3<double>& res) {
  const double inv_dx2 = 1.0 / (lv.dx * lv.dx);
  const int gx = ghost(lv, 0), gy = ghost(lv, 1), gz = ghost(lv, 2);
  for (int k = 0; k < lv.n[2]; ++k)
    for (int j = 0; j < lv.n[1]; ++j)
      for (int i = 0; i < lv.n[0]; ++i) {
        const int si = i + gx, sj = j + gy, sk = k + gz;
        double lap = 0.0;
        const double c = lv.phi(si, sj, sk);
        if (lv.active[0])
          lap += lv.phi(si + 1, sj, sk) - 2 * c + lv.phi(si - 1, sj, sk);
        if (lv.active[1])
          lap += lv.phi(si, sj + 1, sk) - 2 * c + lv.phi(si, sj - 1, sk);
        if (lv.active[2])
          lap += lv.phi(si, sj, sk + 1) - 2 * c + lv.phi(si, sj, sk - 1);
        res(si, sj, sk) = lv.rhs(si, sj, sk) - lap * inv_dx2;
      }
}

bool can_coarsen(const MgLevel& lv) {
  for (int d = 0; d < 3; ++d)
    if (lv.active[d] && (lv.n[d] % 2 != 0 || lv.n[d] <= 2)) return false;
  return true;
}

void vcycle(std::vector<MgLevel>& levels, std::size_t l,
            const GravityParams& p) {
  MgLevel& lv = levels[l];
  if (l + 1 == levels.size()) {
    // Coarsest: smooth hard.
    smooth(lv, 20);
    return;
  }
  smooth(lv, p.mg_pre_smooth);
  // Restrict residual (full weighting = 2³ average for cell-centered r=2).
  MgLevel& cv = levels[l + 1];
  util::Array3<double> res(lv.phi.nx(), lv.phi.ny(), lv.phi.nz(), 0.0);
  residual(lv, res);
  const int gx = ghost(lv, 0), gy = ghost(lv, 1), gz = ghost(lv, 2);
  const int cgx = ghost(cv, 0), cgy = ghost(cv, 1), cgz = ghost(cv, 2);
  cv.phi.fill(0.0);
  for (int k = 0; k < cv.n[2]; ++k)
    for (int j = 0; j < cv.n[1]; ++j)
      for (int i = 0; i < cv.n[0]; ++i) {
        double sum = 0.0;
        int cnt = 0;
        for (int dk = 0; dk < (lv.active[2] ? 2 : 1); ++dk)
          for (int dj = 0; dj < (lv.active[1] ? 2 : 1); ++dj)
            for (int di = 0; di < (lv.active[0] ? 2 : 1); ++di) {
              sum += res((lv.active[0] ? 2 * i + di : i) + gx,
                         (lv.active[1] ? 2 * j + dj : j) + gy,
                         (lv.active[2] ? 2 * k + dk : k) + gz);
              ++cnt;
            }
        cv.rhs(i + cgx, j + cgy, k + cgz) = sum / cnt;
      }
  vcycle(levels, l + 1, p);
  // Prolong the coarse error correction: trilinear for cell-centered r=2
  // (weights 3/4, 1/4 toward the nearer coarse neighbour; the homogeneous
  // Dirichlet ghosts supply the boundary values).
  for (int k = 0; k < lv.n[2]; ++k)
    for (int j = 0; j < lv.n[1]; ++j)
      for (int i = 0; i < lv.n[0]; ++i) {
        const int f[3] = {i, j, k};
        int c0[3], c1[3];
        double w0[3];
        for (int d = 0; d < 3; ++d) {
          if (!lv.active[d]) {
            c0[d] = c1[d] = f[d];
            w0[d] = 1.0;
            continue;
          }
          const int cc = f[d] / 2;
          const int nb = (f[d] % 2 == 0) ? cc - 1 : cc + 1;
          c0[d] = cc;
          c1[d] = nb;  // ghost indices fall into the zero Dirichlet layer
          w0[d] = 0.75;
        }
        double corr = 0.0;
        for (int bz = 0; bz < (lv.active[2] ? 2 : 1); ++bz)
          for (int by = 0; by < (lv.active[1] ? 2 : 1); ++by)
            for (int bx = 0; bx < (lv.active[0] ? 2 : 1); ++bx) {
              const double w = (bx ? 1.0 - w0[0] : w0[0]) *
                               (by ? 1.0 - w0[1] : w0[1]) *
                               (bz ? 1.0 - w0[2] : w0[2]);
              corr += w * cv.phi((bx ? c1[0] : c0[0]) + cgx,
                                 (by ? c1[1] : c0[1]) + cgy,
                                 (bz ? c1[2] : c0[2]) + cgz);
            }
        lv.phi(i + gx, j + gy, k + gz) += corr;
      }
  smooth(lv, p.mg_post_smooth);
}

double norm2(const MgLevel& lv, const util::Array3<double>& a) {
  const int gx = ghost(lv, 0), gy = ghost(lv, 1), gz = ghost(lv, 2);
  double s = 0;
  for (int k = 0; k < lv.n[2]; ++k)
    for (int j = 0; j < lv.n[1]; ++j)
      for (int i = 0; i < lv.n[0]; ++i) {
        const double v = a(i + gx, j + gy, k + gz);
        s += v * v;
      }
  return std::sqrt(s);
}

}  // namespace

double multigrid_solve(mesh::FieldView phi, mesh::ConstFieldView rhs,
                       double dx, const GravityParams& p) {
  ENZO_REQUIRE(phi.same_shape(rhs), "multigrid: phi/rhs shape mismatch");
  // Build the level stack (the fine level works on private copies; the
  // caller's view is written back once the cycles converge).
  std::vector<MgLevel> levels;
  MgLevel fine;
  fine.dx = dx;
  for (int d = 0; d < 3; ++d) {
    const int tot = d == 0 ? phi.nx() : d == 1 ? phi.ny() : phi.nz();
    fine.active[d] = tot > 1;
    fine.n[d] = fine.active[d] ? tot - 2 : 1;
    ENZO_REQUIRE(fine.n[d] >= 1, "multigrid: degenerate extent");
  }
  fine.phi.resize(phi.nx(), phi.ny(), phi.nz());
  std::copy(phi.begin(), phi.end(), fine.phi.begin());
  fine.rhs.resize(rhs.nx(), rhs.ny(), rhs.nz());
  std::copy(rhs.begin(), rhs.end(), fine.rhs.begin());
  levels.push_back(std::move(fine));
  while (can_coarsen(levels.back()) &&
         levels.size() < 12) {
    const MgLevel& f = levels.back();
    MgLevel c;
    c.dx = f.dx * 2.0;
    for (int d = 0; d < 3; ++d) {
      c.active[d] = f.active[d];
      c.n[d] = f.active[d] ? f.n[d] / 2 : 1;
    }
    c.phi.resize(c.n[0] + 2 * (c.active[0] ? 1 : 0),
                 c.n[1] + 2 * (c.active[1] ? 1 : 0),
                 c.n[2] + 2 * (c.active[2] ? 1 : 0), 0.0);
    c.rhs = c.phi;
    levels.push_back(std::move(c));
  }

  util::Array3<double> res(phi.nx(), phi.ny(), phi.nz(), 0.0);
  const double rhs_norm = norm2(levels[0], levels[0].rhs);
  double rel = 1.0;
  for (int cycle = 0; cycle < p.mg_max_vcycles; ++cycle) {
    vcycle(levels, 0, p);
    residual(levels[0], res);
    const double rn = norm2(levels[0], res);
    rel = rhs_norm > 0 ? rn / rhs_norm : rn;
    if (rel < p.mg_tolerance) break;
  }
  std::copy(levels[0].phi.begin(), levels[0].phi.end(), phi.begin());
  return rel;
}

}  // namespace enzo::gravity
