// Mesh/SAMR substrate tests: grid geometry (EPA edges), sibling copies,
// prolongation/restriction, flux correction conservation, Berger–Rigoutsos
// clustering, hierarchy rebuild with particle migration, and the two-step
// boundary fill.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/parameter_file.hpp"
#include "core/simulation.hpp"
#include "exec/exec_config.hpp"
#include "mesh/berger_rigoutsos.hpp"
#include "mesh/boundary.hpp"
#include "mesh/box.hpp"
#include "mesh/field.hpp"
#include "mesh/grid.hpp"
#include "mesh/hierarchy.hpp"
#include "mesh/interpolate.hpp"
#include "mesh/project.hpp"
#include "mesh/topology.hpp"
#include "perf/metrics.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"
#include "util/rng.hpp"

using namespace enzo::mesh;
namespace ext = enzo::ext;

namespace {
std::vector<Field> hydro_list() {
  auto h = hydro_fields();
  return {h.begin(), h.end()};
}

GridSpec spec_at(int level, IndexBox box, Index3 level_dims, int r = 2,
                 int ng = 3) {
  GridSpec s;
  s.level = level;
  s.box = box;
  s.level_dims = level_dims;
  s.refine_factor = r;
  s.nghost = ng;
  return s;
}
}  // namespace

// ---- IndexBox ----------------------------------------------------------------

TEST(IndexBox, BasicOps) {
  IndexBox a{{0, 0, 0}, {4, 4, 4}};
  IndexBox b{{2, 2, 2}, {6, 6, 6}};
  EXPECT_EQ(a.volume(), 64);
  EXPECT_FALSE(a.empty());
  const IndexBox c = a.intersect(b);
  EXPECT_EQ(c, (IndexBox{{2, 2, 2}, {4, 4, 4}}));
  EXPECT_TRUE(a.contains(Index3{3, 3, 3}));
  EXPECT_FALSE(a.contains(Index3{4, 0, 0}));
  EXPECT_TRUE(a.contains(c));
  EXPECT_FALSE(a.contains(b));
}

TEST(IndexBox, DisjointIntersectionIsEmpty) {
  IndexBox a{{0, 0, 0}, {2, 2, 2}};
  IndexBox b{{5, 5, 5}, {7, 7, 7}};
  EXPECT_TRUE(a.intersect(b).empty());
  EXPECT_EQ(a.intersect(b).volume(), 0);
}

TEST(IndexBox, RefineCoarsenRoundTrip) {
  IndexBox a{{2, 4, 6}, {6, 8, 10}};
  EXPECT_EQ(a.refined(2).coarsened(2), a);
  // Coarsening covers: box [3,7) coarsened by 2 must cover cells 1..3.
  IndexBox odd{{3, 3, 3}, {7, 7, 7}};
  const IndexBox c = odd.coarsened(2);
  EXPECT_EQ(c, (IndexBox{{1, 1, 1}, {4, 4, 4}}));
  // Negative coordinates (ghost regions) coarsen toward -inf.
  IndexBox neg{{-3, 0, 0}, {1, 1, 1}};
  EXPECT_EQ(neg.coarsened(2).lo[0], -2);
}

TEST(IndexBox, ShiftAndGrow) {
  IndexBox a{{1, 1, 1}, {3, 3, 3}};
  EXPECT_EQ(a.shifted({10, 0, -1}).lo[0], 11);
  EXPECT_EQ(a.grown(2), (IndexBox{{-1, -1, -1}, {5, 5, 5}}));
}

// ---- Grid geometry -------------------------------------------------------------

TEST(Grid, GeometryAndEdges) {
  Grid g(spec_at(0, {{0, 0, 0}, {8, 8, 8}}, {8, 8, 8}), hydro_list());
  EXPECT_EQ(g.nx(0), 8);
  EXPECT_EQ(g.ng(0), 3);
  EXPECT_EQ(g.nt(0), 14);
  EXPECT_NEAR(ext::pos_to_double(g.left_edge(0)), 0.0, 1e-30);
  EXPECT_NEAR(ext::pos_to_double(g.right_edge(0)), 1.0, 1e-30);
  EXPECT_NEAR(ext::pos_to_double(g.cell_center(0, 0, 0)[0]), 1.0 / 16, 1e-30);
}

TEST(Grid, DeepLevelEdgesAreExact) {
  // Level 30 grid: edges must be exact multiples of the dd cell width.
  const std::int64_t n = std::int64_t(8) << 30;
  Grid g(spec_at(30, {{n / 2, n / 2, n / 2}, {n / 2 + 4, n / 2 + 4, n / 2 + 4}},
                 {n, n, n}),
         hydro_list());
  const ext::pos_t dx = g.cell_width(0);
  const ext::pos_t le = g.left_edge(0);
  // le / dx recovers the integer offset exactly.
  const ext::pos_t ratio = le / dx;
  EXPECT_DOUBLE_EQ(ratio.to_double(), static_cast<double>(n / 2));
  // index_of at a cell center deep in the hierarchy is exact.
  const ext::PosVec c = g.cell_center(2, 2, 2);
  EXPECT_EQ(g.global_index_of(c[0], 0), n / 2 + 2);
  EXPECT_TRUE(g.contains_position(c));
}

TEST(Grid, DegenerateAxesHaveNoGhosts) {
  Grid g(spec_at(0, {{0, 0, 0}, {16, 1, 1}}, {16, 1, 1}), hydro_list());
  EXPECT_EQ(g.ng(0), 3);
  EXPECT_EQ(g.ng(1), 0);
  EXPECT_EQ(g.nt(1), 1);
}

TEST(Grid, FieldAccessAndMissingFieldThrows) {
  Grid g(spec_at(0, {{0, 0, 0}, {4, 4, 4}}, {4, 4, 4}), hydro_list());
  g.field(Field::kDensity).fill(2.0);
  EXPECT_DOUBLE_EQ(g.field(Field::kDensity)(0, 0, 0), 2.0);
  EXPECT_THROW((void)g.field(Field::kHI), enzo::Error);
  EXPECT_TRUE(g.has_field(Field::kDensity));
  EXPECT_FALSE(g.has_field(Field::kH2I));
}

TEST(Grid, StoreOldFieldsSnapshots) {
  Grid g(spec_at(0, {{0, 0, 0}, {4, 4, 4}}, {4, 4, 4}), hydro_list());
  g.field(Field::kDensity).fill(1.0);
  g.set_time(ext::pos_t(5.0));
  g.store_old_fields();
  g.field(Field::kDensity).fill(3.0);
  EXPECT_DOUBLE_EQ(g.old_field(Field::kDensity)(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(ext::pos_to_double(g.old_time()), 5.0);
}

TEST(Grid, SiblingCopyRespectsOverlapAndShift) {
  // Two grids side by side on an 8³ level; right grid's low-x ghosts must
  // receive left grid data; periodic shift wraps the other side.
  Grid left(spec_at(0, {{0, 0, 0}, {4, 8, 8}}, {8, 8, 8}), hydro_list());
  Grid right(spec_at(0, {{4, 0, 0}, {8, 8, 8}}, {8, 8, 8}), hydro_list());
  for (int k = 0; k < left.nt(2); ++k)
    for (int j = 0; j < left.nt(1); ++j)
      for (int i = 0; i < left.nt(0); ++i)
        left.field(Field::kDensity)(i, j, k) = 100 + i;
  right.field(Field::kDensity).fill(-1.0);
  const std::int64_t copied = right.copy_from_sibling(left, {0, 0, 0});
  EXPECT_GT(copied, 0);
  // right ghost at active index -1 (global 3, storage 2) must hold left's
  // active cell global 3 (left storage i = 6 → value 106).
  EXPECT_DOUBLE_EQ(right.field(Field::kDensity)(2, 5, 5), 106.0);
  // Periodic: right's high-x ghosts (global 8,9,10) wrap to left 0,1,2.
  const std::int64_t wrapped = right.copy_from_sibling(left, {8, 0, 0});
  EXPECT_GT(wrapped, 0);
  // Global 8 → right local 4 (storage 7); wrapped source left global 0
  // (storage 3 → value 103).
  EXPECT_DOUBLE_EQ(right.field(Field::kDensity)(right.sx(4), 5, 5), 103.0);
}

TEST(Grid, CopyActiveFromLimitsToInterior) {
  Grid a(spec_at(1, {{0, 0, 0}, {8, 8, 8}}, {16, 16, 16}), hydro_list());
  Grid b(spec_at(1, {{4, 4, 4}, {12, 12, 12}}, {16, 16, 16}), hydro_list());
  a.field(Field::kDensity).fill(7.0);
  b.field(Field::kDensity).fill(0.0);
  b.copy_active_from(a, {0, 0, 0});
  // b active cells overlapping a ([4,8)³ global) got 7; ghosts stayed 0.
  EXPECT_DOUBLE_EQ(b.field(Field::kDensity)(b.sx(0), b.sy(0), b.sz(0)), 7.0);
  EXPECT_DOUBLE_EQ(b.field(Field::kDensity)(b.sx(4), b.sy(4), b.sz(4)), 0.0);
  EXPECT_DOUBLE_EQ(b.field(Field::kDensity)(0, 0, 0), 0.0);
}

// ---- prolongation / restriction ------------------------------------------------

class InterpolationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    parent_ = std::make_unique<Grid>(
        spec_at(0, {{0, 0, 0}, {8, 8, 8}}, {8, 8, 8}), hydro_list());
    child_ = std::make_unique<Grid>(
        spec_at(1, {{4, 4, 4}, {12, 12, 12}}, {16, 16, 16}), hydro_list());
    child_->set_parent(parent_.get());
  }
  std::unique_ptr<Grid> parent_, child_;
};

TEST_F(InterpolationTest, ConstantFieldIsPreserved) {
  for (Field f : parent_->field_list()) parent_->field(f).fill(3.5);
  fill_active_from_parent(*child_, *parent_);
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(
            child_->field(Field::kDensity)(child_->sx(i), child_->sy(j),
                                           child_->sz(k)),
            3.5);
}

TEST_F(InterpolationTest, InteriorFillConservesMass) {
  enzo::util::Rng rng(4);
  const auto rho = parent_->field(Field::kDensity);
  for (auto& v : rho) v = 1.0 + rng.uniform();
  fill_active_from_parent(*child_, *parent_);
  // Child covers parent cells [2,6)³; compare integrals (child cell volume
  // is 1/8 of parent's).
  double parent_mass = 0, child_mass = 0;
  for (int k = 2; k < 6; ++k)
    for (int j = 2; j < 6; ++j)
      for (int i = 2; i < 6; ++i)
        parent_mass += rho(parent_->sx(i), parent_->sy(j), parent_->sz(k));
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i)
        child_mass += child_->field(Field::kDensity)(
            child_->sx(i), child_->sy(j), child_->sz(k));
  EXPECT_NEAR(child_mass / 8.0, parent_mass, 1e-12 * parent_mass);
}

TEST_F(InterpolationTest, LinearRampReproducedExactly) {
  // A globally linear field is inside the minmod stencil's exactness class
  // away from array edges.
  const auto rho = parent_->field(Field::kDensity);
  for (int k = 0; k < parent_->nt(2); ++k)
    for (int j = 0; j < parent_->nt(1); ++j)
      for (int i = 0; i < parent_->nt(0); ++i) rho(i, j, k) = 10.0 + 2.0 * i;
  fill_active_from_parent(*child_, *parent_);
  // Child cell (0,*,*) center sits at parent i=2 cell, offset -0.25:
  // expected 10 + 2*(2+3) - 0.25*2 = 19.5 (storage i = 2+3).
  EXPECT_NEAR(
      child_->field(Field::kDensity)(child_->sx(0), child_->sy(0), child_->sz(0)),
      19.5, 1e-12);
  EXPECT_NEAR(
      child_->field(Field::kDensity)(child_->sx(1), child_->sy(0), child_->sz(0)),
      20.5, 1e-12);
}

TEST_F(InterpolationTest, GhostFillTimeInterpolates) {
  parent_->set_time(ext::pos_t(0.0));
  for (Field f : parent_->field_list()) parent_->field(f).fill(1.0);
  parent_->store_old_fields();  // old state = 1.0 at t=0
  for (Field f : parent_->field_list()) parent_->field(f).fill(3.0);
  parent_->set_time(ext::pos_t(1.0));  // new state = 3.0 at t=1
  child_->set_time(ext::pos_t(0.5));
  fill_ghosts_from_parent(*child_, *parent_);
  // All child ghosts should be the half-way blend 2.0.
  EXPECT_DOUBLE_EQ(child_->field(Field::kDensity)(0, 0, 0), 2.0);
  EXPECT_DOUBLE_EQ(
      child_->field(Field::kDensity)(child_->nt(0) - 1, child_->sy(2), 5), 2.0);
  // Interior untouched (still zero).
  EXPECT_DOUBLE_EQ(
      child_->field(Field::kDensity)(child_->sx(4), child_->sy(4), child_->sz(4)),
      0.0);
}

TEST_F(InterpolationTest, MonotoneNearDiscontinuity) {
  const auto rho = parent_->field(Field::kDensity);
  for (int k = 0; k < parent_->nt(2); ++k)
    for (int j = 0; j < parent_->nt(1); ++j)
      for (int i = 0; i < parent_->nt(0); ++i)
        rho(i, j, k) = i < 7 ? 1.0 : 1000.0;
  fill_active_from_parent(*child_, *parent_);
  double mn = 1e300, mx = -1e300;
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i) {
        const double v = child_->field(Field::kDensity)(
            child_->sx(i), child_->sy(j), child_->sz(k));
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
  EXPECT_GE(mn, 1.0 - 1e-12);
  EXPECT_LE(mx, 1000.0 + 1e-9);
}

TEST_F(InterpolationTest, ProjectionRestoresAverages) {
  enzo::util::Rng rng(11);
  // Put structured data on the child; project; parent covered cells must be
  // exact volume averages (density) and mass-weighted averages (velocity).
  const auto crho = child_->field(Field::kDensity);
  const auto cvx = child_->field(Field::kVelocityX);
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i) {
        crho(child_->sx(i), child_->sy(j), child_->sz(k)) = 1.0 + rng.uniform();
        cvx(child_->sx(i), child_->sy(j), child_->sz(k)) = rng.uniform(-1, 1);
      }
  parent_->field(Field::kDensity).fill(-1);
  parent_->field(Field::kVelocityX).fill(-1);
  const std::int64_t updated = project_to_parent(*child_, *parent_);
  EXPECT_EQ(updated, 4 * 4 * 4);
  // Check one parent cell by hand: parent (2,2,2) covers child [0,2)³.
  double m = 0, mom = 0;
  for (int k = 0; k < 2; ++k)
    for (int j = 0; j < 2; ++j)
      for (int i = 0; i < 2; ++i) {
        const double r = crho(child_->sx(i), child_->sy(j), child_->sz(k));
        m += r;
        mom += r * cvx(child_->sx(i), child_->sy(j), child_->sz(k));
      }
  EXPECT_NEAR(parent_->field(Field::kDensity)(parent_->sx(2), parent_->sy(2),
                                              parent_->sz(2)),
              m / 8.0, 1e-13);
  EXPECT_NEAR(parent_->field(Field::kVelocityX)(parent_->sx(2), parent_->sy(2),
                                                parent_->sz(2)),
              mom / m, 1e-13);
  // Uncovered parent cell untouched.
  EXPECT_DOUBLE_EQ(parent_->field(Field::kDensity)(parent_->sx(0),
                                                   parent_->sy(0),
                                                   parent_->sz(0)),
                   -1.0);
}

TEST_F(InterpolationTest, FluxCorrectionConservesMass) {
  // Give parent and child flux registers with a mismatch at the child's
  // low-x face; the correction must change the outside cell by exactly
  // (fine - coarse)/dx with the right sign.
  parent_->field(Field::kDensity).fill(1.0);
  parent_->field(Field::kVelocityX).fill(0.0);
  parent_->field(Field::kVelocityY).fill(0.0);
  parent_->field(Field::kVelocityZ).fill(0.0);
  parent_->field(Field::kTotalEnergy).fill(1.0);
  parent_->field(Field::kInternalEnergy).fill(1.0);
  child_->field(Field::kDensity).fill(1.0);
  parent_->reset_fluxes();
  child_->reset_fluxes();
  child_->reset_boundary_fluxes();
  // Coarse mass flux 2.0 on the child's low-x coarse face (parent face
  // index 2 = lower face of parent cell 2, storage i = 2+3).
  const auto pflux = parent_->flux(Field::kDensity, 0);
  const auto cflux = child_->boundary_flux(Field::kDensity, 0, 0);
  for (int k = 2; k < 6; ++k)
    for (int j = 2; j < 6; ++j)
      pflux(parent_->sx(2), parent_->sy(j), parent_->sz(k)) = 0.02;
  // Fine fluxes average to 0.03 on that face (boundary register plane).
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      cflux(0, child_->sy(j), child_->sz(k)) = 0.03;
  flux_correct_from_child(*child_, *parent_);
  // Outside cell is parent (1, j, k) for j,k in [2,6): ΔU = -(0.03-0.02)/dx,
  // and dx = 1/8 → Δρ = -0.08.
  EXPECT_NEAR(parent_->field(Field::kDensity)(parent_->sx(1), parent_->sy(3),
                                              parent_->sz(3)),
              1.0 - 0.08, 1e-12);
  // Cells away from the face untouched.
  EXPECT_DOUBLE_EQ(parent_->field(Field::kDensity)(parent_->sx(0),
                                                   parent_->sy(3),
                                                   parent_->sz(3)),
                   1.0);
  // The parent's flux register now carries the fine flux (for its own
  // parent's correction).
  EXPECT_DOUBLE_EQ(pflux(parent_->sx(2), parent_->sy(3), parent_->sz(3)), 0.03);
  // A correction that would drive density negative is rejected wholesale
  // (pathological-case guard): reset, use an absurd flux, expect no change.
  parent_->field(Field::kDensity).fill(1.0);
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      cflux(0, child_->sy(j), child_->sz(k)) = 50.0;
  flux_correct_from_child(*child_, *parent_);
  EXPECT_DOUBLE_EQ(parent_->field(Field::kDensity)(parent_->sx(1),
                                                   parent_->sy(3),
                                                   parent_->sz(3)),
                   1.0);
}

// ---- Berger–Rigoutsos ----------------------------------------------------------

namespace {
bool covered(const std::vector<IndexBox>& boxes, const Index3& p) {
  for (const auto& b : boxes)
    if (b.contains(p)) return true;
  return false;
}
int cover_count(const std::vector<IndexBox>& boxes, const Index3& p) {
  int n = 0;
  for (const auto& b : boxes)
    if (b.contains(p)) ++n;
  return n;
}
}  // namespace

TEST(BergerRigoutsos, EmptyInput) {
  EXPECT_TRUE(cluster_flags({}).empty());
}

TEST(BergerRigoutsos, SingleCell) {
  auto boxes = cluster_flags({{{5, 6, 7}}});
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0], (IndexBox{{5, 6, 7}, {6, 7, 8}}));
}

TEST(BergerRigoutsos, SolidBlockIsOneBox) {
  std::vector<Index3> flags;
  for (int k = 0; k < 4; ++k)
    for (int j = 0; j < 4; ++j)
      for (int i = 0; i < 4; ++i) flags.push_back({i + 10, j + 20, k + 30});
  auto boxes = cluster_flags(flags);
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0].volume(), 64);
}

TEST(BergerRigoutsos, TwoSeparatedClumpsSplitAtHole) {
  std::vector<Index3> flags;
  for (int k = 0; k < 3; ++k)
    for (int j = 0; j < 3; ++j)
      for (int i = 0; i < 3; ++i) {
        flags.push_back({i, j, k});
        flags.push_back({i + 20, j, k});
      }
  auto boxes = cluster_flags(flags);
  EXPECT_EQ(boxes.size(), 2u);
  for (const auto& b : boxes) EXPECT_EQ(b.volume(), 27);
}

TEST(BergerRigoutsos, AllFlagsCoveredOnce) {
  enzo::util::Rng rng(21);
  std::vector<Index3> flags;
  std::set<std::array<std::int64_t, 3>> seen;
  for (int n = 0; n < 300; ++n) {
    Index3 p{static_cast<std::int64_t>(rng.uniform(0, 40)),
             static_cast<std::int64_t>(rng.uniform(0, 40)),
             static_cast<std::int64_t>(rng.uniform(0, 40))};
    if (seen.insert({p[0], p[1], p[2]}).second) flags.push_back(p);
  }
  auto boxes = cluster_flags(flags);
  for (const auto& p : flags) EXPECT_EQ(cover_count(boxes, p), 1) << p[0];
  // Boxes must not overlap anywhere (sampled check on corners).
  for (std::size_t a = 0; a < boxes.size(); ++a)
    for (std::size_t b = a + 1; b < boxes.size(); ++b)
      EXPECT_TRUE(boxes[a].intersect(boxes[b]).empty());
}

TEST(BergerRigoutsos, EfficiencyTargetMet) {
  // An L-shaped region should be split rather than covered by one huge box.
  std::vector<Index3> flags;
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 3; ++j) {
      flags.push_back({i, j, 0});  // horizontal bar
      flags.push_back({j, i, 0});  // vertical bar
    }
  }
  ClusterParams p;
  p.min_efficiency = 0.7;
  auto boxes = cluster_flags(flags, p);
  std::int64_t covered_cells = 0;
  for (const auto& b : boxes) covered_cells += b.volume();
  // Count unique flags.
  std::set<std::array<std::int64_t, 3>> uniq;
  for (const auto& f : flags) uniq.insert({f[0], f[1], f[2]});
  EXPECT_GE(static_cast<double>(uniq.size()) / covered_cells, 0.65);
  for (const auto& f : flags) EXPECT_TRUE(covered(boxes, f));
}

TEST(BergerRigoutsos, DuplicateFlagsStillCoveredOnce) {
  // Repeated flags (a flagger may emit the same cell from overlapping
  // criteria) must not produce overlapping boxes or inflated clusters.
  std::vector<Index3> flags;
  for (int rep = 0; rep < 3; ++rep)
    for (int i = 0; i < 4; ++i) flags.push_back({i, 2, 2});
  auto boxes = cluster_flags(flags);
  for (const auto& f : flags) EXPECT_EQ(cover_count(boxes, f), 1);
  std::int64_t covered_cells = 0;
  for (const auto& b : boxes) covered_cells += b.volume();
  EXPECT_EQ(covered_cells, 4);
}

TEST(BergerRigoutsos, DegenerateLineAndPlaneClusters) {
  // A collinear run of flags: one box of thickness 1 in the other axes.
  std::vector<Index3> line;
  for (int i = 0; i < 12; ++i) line.push_back({i, 5, 5});
  auto lboxes = cluster_flags(line);
  ASSERT_EQ(lboxes.size(), 1u);
  EXPECT_EQ(lboxes[0], (IndexBox{{0, 5, 5}, {12, 6, 6}}));
  // A planar sheet: thickness 1 along z, every flag covered exactly once.
  std::vector<Index3> plane;
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 6; ++i) plane.push_back({i, j, 3});
  auto pboxes = cluster_flags(plane);
  std::int64_t covered_cells = 0;
  for (const auto& b : pboxes) {
    EXPECT_EQ(b.extent(2), 1);
    covered_cells += b.volume();
  }
  EXPECT_EQ(covered_cells, 36);
  for (const auto& f : plane) EXPECT_EQ(cover_count(pboxes, f), 1);
}

TEST(BergerRigoutsos, ClustersTouchingDomainEdgeStayInDomain) {
  // Flag whole faces of the root domain (including the corner columns) and
  // rebuild: the clustered subgrids must stay inside the level-1 domain and
  // remain parent-aligned even where the cluster hugs the boundary.
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  p.max_level = 1;  // the flagger marks domain faces at every level
  Hierarchy h(p);
  h.build_root();
  for (Grid* g : h.grids(0)) {
    for (Field f : g->field_list()) g->field(f).fill(1.0);
    g->store_old_fields();
  }
  h.rebuild(1, [](const Grid& g, std::vector<Index3>& flags) {
    const Index3 dims = g.spec().level_dims;
    for (std::int64_t k = g.box().lo[2]; k < g.box().hi[2]; ++k)
      for (std::int64_t j = g.box().lo[1]; j < g.box().hi[1]; ++j)
        for (std::int64_t i = g.box().lo[0]; i < g.box().hi[0]; ++i)
          if (i == 0 || i == dims[0] - 1 || j == 0 || j == dims[1] - 1)
            flags.push_back({i, j, k});
  });
  ASSERT_GE(h.deepest_level(), 1);
  EXPECT_FALSE(h.grids(1).empty());
  const Index3 l1_dims{32, 32, 32};
  bool touches_low = false, touches_high = false;
  for (const Grid* g : h.grids(1)) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_GE(g->box().lo[d], 0);
      EXPECT_LE(g->box().hi[d], l1_dims[d]);
      EXPECT_EQ(g->box().lo[d] % 2, 0);
      EXPECT_EQ(g->box().hi[d] % 2, 0);
    }
    touches_low = touches_low || g->box().lo[0] == 0;
    touches_high = touches_high || g->box().hi[0] == l1_dims[0];
  }
  EXPECT_TRUE(touches_low);
  EXPECT_TRUE(touches_high);
  h.check_invariants();
}

// ---- Hierarchy -----------------------------------------------------------------

TEST(Hierarchy, BuildRootSingleAndTiled) {
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  Hierarchy h1(p);
  h1.build_root(1);
  EXPECT_EQ(h1.num_grids(0), 1u);
  Hierarchy h2(p);
  h2.build_root(2);
  EXPECT_EQ(h2.num_grids(0), 8u);
  h2.check_invariants();
  EXPECT_EQ(h2.total_cells(), 16 * 16 * 16);
  EXPECT_EQ(h2.descriptors(0).size(), 8u);
}

TEST(Hierarchy, LevelDims) {
  HierarchyParams p;
  p.root_dims = {8, 8, 1};
  p.refine_factor = 4;
  Hierarchy h(p);
  EXPECT_EQ(h.level_dims(0), (Index3{8, 8, 1}));
  EXPECT_EQ(h.level_dims(2), (Index3{128, 128, 1}));
}

namespace {
/// Flag a fixed global sphere of parent cells around `center01` (fractions
/// of the domain) with radius frac.
Hierarchy::FlagFn sphere_flagger(std::array<double, 3> center01, double frac) {
  return [center01, frac](const Grid& g, std::vector<Index3>& flags) {
    const Index3 dims = g.spec().level_dims;
    for (std::int64_t k = g.box().lo[2]; k < g.box().hi[2]; ++k)
      for (std::int64_t j = g.box().lo[1]; j < g.box().hi[1]; ++j)
        for (std::int64_t i = g.box().lo[0]; i < g.box().hi[0]; ++i) {
          const double x = (i + 0.5) / dims[0] - center01[0];
          const double y = (j + 0.5) / dims[1] - center01[1];
          const double z = (k + 0.5) / dims[2] - center01[2];
          if (x * x + y * y + z * z < frac * frac) flags.push_back({i, j, k});
        }
  };
}
}  // namespace

TEST(Hierarchy, RebuildCreatesNestedLevels) {
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  p.max_level = 3;
  Hierarchy h(p);
  h.build_root();
  for (Grid* g : h.grids(0)) {
    g->field(Field::kDensity).fill(1.0);
    g->field(Field::kTotalEnergy).fill(1.0);
    g->field(Field::kInternalEnergy).fill(1.0);
    g->field(Field::kVelocityX).fill(0.0);
    g->field(Field::kVelocityY).fill(0.0);
    g->field(Field::kVelocityZ).fill(0.0);
    g->store_old_fields();
  }
  h.rebuild(1, sphere_flagger({0.5, 0.5, 0.5}, 0.2));
  EXPECT_GE(h.deepest_level(), 1);
  EXPECT_GT(h.num_grids(1), 0u);
  h.check_invariants();
  // Interpolated data on children preserves the constant state.
  for (Grid* g : h.grids(1)) {
    EXPECT_DOUBLE_EQ(g->field(Field::kDensity)(g->sx(0), g->sy(0), g->sz(0)),
                     1.0);
    EXPECT_EQ(g->parent()->level(), 0);
  }
}

TEST(Hierarchy, RebuildRemovesLevelsWhenFlagsVanish) {
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  p.max_level = 2;
  Hierarchy h(p);
  h.build_root();
  for (Grid* g : h.grids(0)) {
    for (Field f : g->field_list()) g->field(f).fill(1.0);
    g->store_old_fields();
  }
  h.rebuild(1, sphere_flagger({0.5, 0.5, 0.5}, 0.15));
  const int deepest = h.deepest_level();
  EXPECT_GE(deepest, 1);
  // Rebuild with nothing flagged: the nesting guarantee makes derefinement
  // cascade one level per rebuild (a level-l grid keeps its footprint
  // refined until its own children are gone), so after `deepest` rebuilds
  // everything has collapsed back to the root.
  for (int i = 0; i < deepest; ++i)
    h.rebuild(1, [](const Grid&, std::vector<Index3>&) {});
  EXPECT_EQ(h.deepest_level(), 0);
  h.check_invariants();
}

TEST(Hierarchy, ParticlesMigrateOnRebuild) {
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  p.max_level = 1;
  Hierarchy h(p);
  h.build_root();
  Grid* root = h.grids(0)[0];
  for (Field f : root->field_list()) root->field(f).fill(1.0);
  root->store_old_fields();
  // One particle in the future-refined center, one near the corner.
  Particle in_center;
  in_center.x = {ext::pos_t(0.5), ext::pos_t(0.5), ext::pos_t(0.5)};
  in_center.mass = 1.0;
  in_center.id = 1;
  Particle in_corner;
  in_corner.x = {ext::pos_t(0.05), ext::pos_t(0.05), ext::pos_t(0.05)};
  in_corner.mass = 1.0;
  in_corner.id = 2;
  std::vector<Particle> seed_particles{in_center, in_corner};
  root->particles().swap(seed_particles);
  h.rebuild(1, sphere_flagger({0.5, 0.5, 0.5}, 0.12));
  ASSERT_GE(h.num_grids(1), 1u);
  std::size_t fine_particles = 0;
  for (Grid* g : h.grids(1)) fine_particles += g->particles().size();
  EXPECT_EQ(fine_particles, 1u);
  EXPECT_EQ(root->particles().size(), 1u);
  EXPECT_EQ(root->particles()[0].id, 2u);
  h.check_invariants();
  // Un-refine: the particle returns to the root.
  h.rebuild(1, [](const Grid&, std::vector<Index3>&) {});
  EXPECT_EQ(root->particles().size(), 2u);
}

TEST(Hierarchy, RebuildRootLevelRejected) {
  HierarchyParams p;
  Hierarchy h(p);
  h.build_root();
  EXPECT_THROW(h.rebuild(0, [](const Grid&, std::vector<Index3>&) {}),
               enzo::Error);
}

TEST(Hierarchy, WorkPerLevelWeightsTimesteps) {
  HierarchyParams p;
  p.root_dims = {8, 8, 8};
  p.max_level = 1;
  Hierarchy h(p);
  h.build_root();
  for (Grid* g : h.grids(0)) {
    for (Field f : g->field_list()) g->field(f).fill(1.0);
    g->store_old_fields();
  }
  h.rebuild(1, sphere_flagger({0.5, 0.5, 0.5}, 0.3));
  auto work = h.work_per_level();
  ASSERT_EQ(work.size(), 2u);
  std::int64_t fine_cells = 0;
  for (const Grid* g : std::as_const(h).grids(1)) fine_cells += g->box().volume();
  EXPECT_DOUBLE_EQ(work[0], 512.0);
  EXPECT_DOUBLE_EQ(work[1], 2.0 * fine_cells);
}

// ---- boundary fill -------------------------------------------------------------

TEST(Boundary, PeriodicRootWrapsItself) {
  HierarchyParams p;
  p.root_dims = {8, 8, 8};
  Hierarchy h(p);
  h.build_root();
  Grid* g = h.grids(0)[0];
  const auto rho = g->field(Field::kDensity);
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i)
        rho(g->sx(i), g->sy(j), g->sz(k)) = 100 * i + 10 * j + k;
  set_boundary_values(h, 0);
  // Ghost at active i=-1 should equal active i=7.
  EXPECT_DOUBLE_EQ(rho(g->sx(-1), g->sy(2), g->sz(3)),
                   rho(g->sx(7), g->sy(2), g->sz(3)));
  EXPECT_DOUBLE_EQ(rho(g->sx(8), g->sy(0), g->sz(0)),
                   rho(g->sx(0), g->sy(0), g->sz(0)));
  // Corner ghost wraps in all axes.
  EXPECT_DOUBLE_EQ(rho(g->sx(-1), g->sy(-1), g->sz(-1)),
                   rho(g->sx(7), g->sy(7), g->sz(7)));
}

TEST(Boundary, OutflowRootReplicatesEdges) {
  HierarchyParams p;
  p.root_dims = {8, 8, 8};
  p.periodic = false;
  Hierarchy h(p);
  h.build_root();
  Grid* g = h.grids(0)[0];
  const auto rho = g->field(Field::kDensity);
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i) rho(g->sx(i), g->sy(j), g->sz(k)) = 1.0 + i;
  set_boundary_values(h, 0);
  EXPECT_DOUBLE_EQ(rho(g->sx(-1), g->sy(3), g->sz(3)), 1.0);
  EXPECT_DOUBLE_EQ(rho(g->sx(-3), g->sy(3), g->sz(3)), 1.0);
  EXPECT_DOUBLE_EQ(rho(g->sx(9), g->sy(3), g->sz(3)), 8.0);
}

TEST(Boundary, TiledRootExchangesSiblingData) {
  HierarchyParams p;
  p.root_dims = {8, 8, 8};
  Hierarchy h(p);
  h.build_root(2);  // 8 tiles of 4³
  for (Grid* g : h.grids(0)) {
    const auto rho = g->field(Field::kDensity);
    for (int k = 0; k < 4; ++k)
      for (int j = 0; j < 4; ++j)
        for (int i = 0; i < 4; ++i) {
          const auto b = g->box();
          rho(g->sx(i), g->sy(j), g->sz(k)) =
              100 * (b.lo[0] + i) + 10 * (b.lo[1] + j) + (b.lo[2] + k);
        }
  }
  set_boundary_values(h, 0);
  // Every tile's ghosts now hold the correct global function value.
  for (Grid* g : h.grids(0)) {
    const auto rho = g->field(Field::kDensity);
    for (int off : {-2, -1, 4, 5}) {
      const std::int64_t gi = ((g->box().lo[0] + off) % 8 + 8) % 8;
      EXPECT_DOUBLE_EQ(rho(g->sx(off), g->sy(1), g->sz(1)),
                       100.0 * gi + 10 * (g->box().lo[1] + 1) +
                           (g->box().lo[2] + 1))
          << g->box().str();
    }
  }
}

TEST(Boundary, SubgridGetsParentThenSiblingData) {
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  p.max_level = 1;
  Hierarchy h(p);
  h.build_root();
  Grid* root = h.grids(0)[0];
  for (Field f : root->field_list()) root->field(f).fill(2.0);
  root->store_old_fields();
  // Two adjacent children sharing a face at global fine x=16.
  auto s1 = std::make_unique<Grid>(
      h.make_spec(1, {{8, 8, 8}, {16, 24, 24}}), p.fields);
  auto s2 = std::make_unique<Grid>(
      h.make_spec(1, {{16, 8, 8}, {24, 24, 24}}), p.fields);
  s1->set_parent(root);
  s2->set_parent(root);
  s1->field(Field::kDensity).fill(5.0);
  s2->field(Field::kDensity).fill(9.0);
  Grid* g1 = h.insert_grid(std::move(s1));
  Grid* g2 = h.insert_grid(std::move(s2));
  set_boundary_values(h, 1);
  // g2's low-x ghosts must hold g1's (finer) 5.0, not the parent's 2.0.
  EXPECT_DOUBLE_EQ(g2->field(Field::kDensity)(g2->sx(-1), g2->sy(2), g2->sz(2)),
                   5.0);
  // g2's high-x ghosts see only the parent: 2.0.
  EXPECT_DOUBLE_EQ(g2->field(Field::kDensity)(g2->sx(8), g2->sy(2), g2->sz(2)),
                   2.0);
  // g1's high-x ghosts hold g2's 9.0.
  EXPECT_DOUBLE_EQ(g1->field(Field::kDensity)(g1->sx(8), g1->sy(2), g1->sz(2)),
                   9.0);
}

// ---- Overlap topology --------------------------------------------------------

namespace {

/// A hierarchy with randomized (aligned, possibly touching) level-1 boxes —
/// the link-equivalence checks compare two enumeration strategies, so the
/// boxes need not form a physically valid refinement pattern.
Hierarchy make_random_hierarchy(std::uint64_t seed, Index3 root_dims,
                                bool periodic, int root_tiles) {
  enzo::util::Rng rng(seed);
  HierarchyParams p;
  p.root_dims = root_dims;
  p.periodic = periodic;
  p.max_level = 2;
  Hierarchy h(p);
  h.build_root(root_tiles);
  const auto roots = h.grids(0);
  const Index3 dims1 = h.level_dims(1);
  const int n1 = 2 + static_cast<int>(rng.uniform(0, 4));
  for (int i = 0; i < n1; ++i) {
    IndexBox box;
    for (int d = 0; d < 3; ++d) {
      if (dims1[d] == 1) {
        box.lo[d] = 0;
        box.hi[d] = 1;
        continue;
      }
      const std::int64_t half = dims1[d] / 2;
      const auto lo = static_cast<std::int64_t>(rng.uniform(0, static_cast<double>(half - 2)));
      const auto ext = 1 + static_cast<std::int64_t>(rng.uniform(0, 3));
      box.lo[d] = 2 * lo;
      box.hi[d] = std::min<std::int64_t>(2 * (lo + ext), dims1[d]);
    }
    auto g = std::make_unique<Grid>(h.make_spec(1, box), p.fields);
    const Index3 pc{box.lo[0] / 2, box.lo[1] / 2, box.lo[2] / 2};
    Grid* parent = nullptr;
    for (Grid* r : roots)
      if (r->box().contains(pc)) {
        parent = r;
        break;
      }
    g->set_parent(parent);
    h.insert_grid(std::move(g));
  }
  return h;
}

}  // namespace

TEST(Topology, PeriodicImageShiftEnumeration) {
  const auto s = periodic_image_shifts({8, 1, 4}, true);
  EXPECT_EQ(s[0], (std::vector<std::int64_t>{0, 8, -8}));
  EXPECT_EQ(s[1], (std::vector<std::int64_t>{0}));  // degenerate axis: no wrap
  EXPECT_EQ(s[2], (std::vector<std::int64_t>{0, 4, -4}));
  const auto n = periodic_image_shifts({8, 8, 8}, false);
  for (int d = 0; d < 3; ++d)
    EXPECT_EQ(n[d], (std::vector<std::int64_t>{0}));
}

TEST(Topology, SiblingLinksMatchAllPairsReference) {
  struct Case {
    std::uint64_t seed;
    Index3 dims;
    bool periodic;
    int tiles;
  };
  const Case cases[] = {{1, {16, 16, 16}, true, 2},
                        {2, {16, 16, 16}, false, 2},
                        {3, {32, 32, 1}, true, 1},
                        {4, {16, 16, 16}, true, 1},
                        {5, {8, 16, 32}, true, 2}};
  for (const Case& c : cases) {
    Hierarchy h = make_random_hierarchy(c.seed, c.dims, c.periodic, c.tiles);
    const OverlapTopology& topo = h.topology();
    EXPECT_EQ(topo.generation(), h.generation());
    for (int l = 0; l <= h.deepest_level(); ++l) {
      const auto lv = h.grids(l);
      ASSERT_EQ(topo.level_grids(l).size(), lv.size());
      const Index3 dims = h.level_dims(l);
      const auto shifts = periodic_image_shifts(dims, c.periodic);
      for (std::size_t i = 0; i < lv.size(); ++i) {
        const Grid* g = lv[i];
        IndexBox ghost = g->box(), wide = g->box();
        for (int d = 0; d < 3; ++d) {
          const std::int64_t ng = g->ng(d);
          const std::int64_t w =
              std::max<std::int64_t>(ng, dims[d] > 1 ? 1 : 0);
          ghost.lo[d] -= ng;
          ghost.hi[d] += ng;
          wide.lo[d] -= w;
          wide.hi[d] += w;
        }
        // Fresh all-pairs reference enumeration, in the canonical order.
        std::vector<SiblingLink> ref;
        for (std::size_t j = 0; j < lv.size(); ++j)
          for (std::int64_t kz : shifts[2])
            for (std::int64_t ky : shifts[1])
              for (std::int64_t kx : shifts[0]) {
                if (j == i && kx == 0 && ky == 0 && kz == 0) continue;
                const IndexBox sb = lv[j]->box().shifted({kx, ky, kz});
                if (wide.intersect(sb).empty()) continue;
                ref.push_back({static_cast<std::uint32_t>(j),
                               {kx, ky, kz},
                               ghost.intersect(sb)});
              }
        const auto range = topo.siblings(l, i);
        ASSERT_EQ(range.size(), ref.size())
            << "seed " << c.seed << " level " << l << " grid " << i;
        std::size_t k = 0;
        for (const SiblingLink& ln : range) {
          EXPECT_EQ(ln.src, ref[k].src);
          EXPECT_EQ(ln.shift, ref[k].shift);
          EXPECT_EQ(ln.overlap, ref[k].overlap);
          ++k;
        }
      }
    }
  }
}

TEST(Topology, ChildrenByParentMatchesFindIfGrouping) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    Hierarchy h = make_random_hierarchy(seed, {16, 16, 16}, true, 2);
    const OverlapTopology& topo = h.topology();
    const auto children = h.grids(1);
    std::vector<std::pair<const Grid*, std::vector<const Grid*>>> ref;
    for (const Grid* c : children) {
      auto it = std::find_if(ref.begin(), ref.end(), [&](const auto& gp) {
        return gp.first == c->parent();
      });
      if (it == ref.end())
        ref.push_back({c->parent(), {c}});
      else
        it->second.push_back(c);
    }
    const auto& groups = topo.children_by_parent(1);
    ASSERT_EQ(groups.size(), ref.size());
    for (std::size_t n = 0; n < groups.size(); ++n) {
      EXPECT_EQ(groups[n].first, ref[n].first);
      ASSERT_EQ(groups[n].second.size(), ref[n].second.size());
      for (std::size_t k = 0; k < ref[n].second.size(); ++k)
        EXPECT_EQ(groups[n].second[k], ref[n].second[k]);
    }
    EXPECT_TRUE(topo.children_by_parent(0).empty());
  }
}

TEST(Topology, PointQueriesMatchLinearScans) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    Hierarchy h = make_random_hierarchy(seed, {16, 16, 16}, true, 2);
    const OverlapTopology& topo = h.topology();
    enzo::util::Rng rng(seed * 100 + 1);
    // grid_at vs first-containing linear scan on integer indices.
    for (int l = 0; l <= h.deepest_level(); ++l) {
      const auto lv = h.grids(l);
      const Index3 dims = h.level_dims(l);
      for (int trial = 0; trial < 200; ++trial) {
        Index3 p;
        for (int d = 0; d < 3; ++d)
          p[d] = static_cast<std::int64_t>(
              rng.uniform(0, static_cast<double>(dims[d])));
        const Grid* expect = nullptr;
        for (const Grid* g : lv)
          if (g->box().contains(p)) {
            expect = g;
            break;
          }
        EXPECT_EQ(topo.grid_at(l, p), expect);
      }
    }
    // finest_owner vs deepest-first scan on positions.
    for (int trial = 0; trial < 200; ++trial) {
      ext::PosVec x;
      for (int d = 0; d < 3; ++d) x[d] = ext::pos_t(rng.uniform());
      const Grid* expect = nullptr;
      for (int l = h.deepest_level(); l >= 0 && !expect; --l)
        for (Grid* g : h.grids(l))
          if (g->contains_position(x)) {
            expect = g;
            break;
          }
      EXPECT_EQ(topo.finest_owner(x), expect);
    }
  }
}

TEST(Topology, GenerationInvalidationAndLazyRebuild) {
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  Hierarchy h(p);
  EXPECT_FALSE(h.topology_cache_generation().has_value());
  h.build_root(2);
  const OverlapTopology& t1 = h.topology();
  EXPECT_EQ(t1.generation(), h.generation());
  ASSERT_TRUE(h.topology_cache_generation().has_value());
  EXPECT_EQ(*h.topology_cache_generation(), h.generation());
  // Repeated queries hit the same cache (no rebuild).
  EXPECT_EQ(&h.topology(), &t1);
  // A structure mutation leaves the cache stale until the next query.
  auto g = std::make_unique<Grid>(h.make_spec(1, {{8, 8, 8}, {16, 16, 16}}),
                                  p.fields);
  g->set_parent(h.grids(0)[0]);
  h.insert_grid(std::move(g));
  ASSERT_TRUE(h.topology_cache_generation().has_value());
  EXPECT_NE(*h.topology_cache_generation(), h.generation());
  const OverlapTopology& t2 = h.topology();
  EXPECT_EQ(t2.generation(), h.generation());
  EXPECT_EQ(*h.topology_cache_generation(), h.generation());
  EXPECT_EQ(t2.level_grids(1).size(), 1u);
}

TEST(Topology, BoundaryFillMatchesAllPairsBitwise) {
  // Two identically constructed hierarchies, one filled through the cached
  // links and one through the all-pairs reference path: every field byte
  // must match (the PR-3 determinism contract).
  auto build_and_fill = [](bool cached) {
    Hierarchy h = make_random_hierarchy(42, {16, 16, 16}, true, 2);
    h.set_use_topology(cached);
    enzo::util::Rng rng(77);
    for (int l = 0; l <= h.deepest_level(); ++l)
      for (Grid* g : h.grids(l))
        for (Field f : g->field_list())
          for (double& v : g->field(f)) v = rng.uniform(0.5, 2.0);
    for (int l = 0; l <= h.deepest_level(); ++l) {
      for (Grid* g : h.grids(l)) g->store_old_fields();
      set_boundary_values(h, l);
    }
    std::vector<double> bytes;
    for (int l = 0; l <= h.deepest_level(); ++l)
      for (const Grid* g : h.grids(l))
        for (Field f : g->field_list())
          for (const double v : g->field(f)) bytes.push_back(v);
    return bytes;
  };
  const auto with_cache = build_and_fill(true);
  const auto reference = build_and_fill(false);
  ASSERT_EQ(with_cache.size(), reference.size());
  for (std::size_t n = 0; n < reference.size(); ++n) {
    ASSERT_EQ(with_cache[n], reference[n]) << "field byte " << n << " differs";
  }
}

// ---- Boundary fill oracle ----------------------------------------------------
//
// set_boundary_values interpolates only the ghost cells that no sibling copy
// overwrites, with row-wise table-driven kernels.  The oracle below is the
// literal §3.2.1 procedure it must reproduce byte for byte: interpolate
// *every* ghost cell from the parent with a scalar per-cell stencil, then
// copy every sibling overlap (periodic images included) over it, cell by
// cell.

namespace {

double oracle_minmod(double a, double b) {
  if (a * b <= 0.0) return 0.0;
  return std::abs(a) < std::abs(b) ? a : b;
}

double oracle_sample(ConstFieldView p, int psi, int psj, int psk,
                     const double f[3]) {
  const double v = p(psi, psj, psk);
  double out = v;
  const int idx[3] = {psi, psj, psk};
  const int n[3] = {p.nx(), p.ny(), p.nz()};
  for (int d = 0; d < 3; ++d) {
    if (f[d] == 0.0) continue;
    double slope = 0.0;
    auto at = [&](int delta) {
      switch (d) {
        case 0: return p(psi + delta, psj, psk);
        case 1: return p(psi, psj + delta, psk);
        default: return p(psi, psj, psk + delta);
      }
    };
    if (idx[d] - 1 >= 0 && idx[d] + 1 < n[d])
      slope = oracle_minmod(at(1) - v, v - at(-1));
    out += f[d] * slope;
  }
  return out;
}

void oracle_interpolate_region(Grid& child, const Grid& parent,
                               const int slo[3], const int shi[3], double w) {
  const bool use_old = w < 1.0 && parent.has_old_fields();
  for (Field f : child.field_list()) {
    if (!parent.has_field(f)) continue;
    const FieldView dst = child.field(f);
    const ConstFieldView pnew = parent.field(f);
    const ConstFieldView pold = use_old ? parent.old_field(f) : ConstFieldView{};
    for (int sk = slo[2]; sk < shi[2]; ++sk)
      for (int sj = slo[1]; sj < shi[1]; ++sj)
        for (int si = slo[0]; si < shi[0]; ++si) {
          const int s[3] = {si, sj, sk};
          int ps[3];
          double frac[3];
          for (int d = 0; d < 3; ++d) {
            const std::int64_t rd =
                child.spec().level_dims[d] / parent.spec().level_dims[d];
            const std::int64_t g = child.box().lo[d] + (s[d] - child.ng(d));
            const std::int64_t pcell =
                g >= 0 ? g / rd : -((-g + rd - 1) / rd);
            const std::int64_t psd =
                pcell - parent.box().lo[d] + parent.ng(d);
            ASSERT_TRUE(psd >= 0 && psd < parent.nt(d));
            ps[d] = static_cast<int>(psd);
            frac[d] = rd == 1 ? 0.0
                              : (static_cast<double>(g - pcell * rd) + 0.5) /
                                        static_cast<double>(rd) -
                                    0.5;
          }
          double v = oracle_sample(pnew, ps[0], ps[1], ps[2], frac);
          if (use_old) {
            const double vo = oracle_sample(pold, ps[0], ps[1], ps[2], frac);
            v = w * v + (1.0 - w) * vo;
          }
          if (is_density_like(f) && v <= 0.0)
            v = std::max(pnew(ps[0], ps[1], ps[2]), 1e-300);
          dst(si, sj, sk) = v;
        }
  }
}

void oracle_fill_ghosts(Grid& child, const Grid& parent) {
  double w = 1.0;
  if (parent.has_old_fields()) {
    const double span = ext::pos_to_double(parent.time() - parent.old_time());
    if (span > 0.0) {
      w = ext::pos_to_double(child.time() - parent.old_time()) / span;
      w = std::min(1.0, std::max(0.0, w));
    }
  }
  for (int d = 0; d < 3; ++d) {
    if (child.ng(d) == 0) continue;
    for (int side = 0; side < 2; ++side) {
      int slo[3], shi[3];
      for (int e = 0; e < 3; ++e) {
        slo[e] = e < d ? 0 : child.ng(e);
        shi[e] = e < d ? child.nt(e) : child.ng(e) + child.nx(e);
      }
      slo[d] = side == 0 ? 0 : child.ng(d) + child.nx(d);
      shi[d] = side == 0 ? child.ng(d) : child.nt(d);
      oracle_interpolate_region(child, parent, slo, shi, w);
    }
  }
}

void oracle_copy(Grid& dst, const Grid& src, const Index3& shift) {
  IndexBox total = dst.box();
  for (int d = 0; d < 3; ++d) {
    total.lo[d] -= dst.ng(d);
    total.hi[d] += dst.ng(d);
  }
  const IndexBox ov = total.intersect(src.box().shifted(shift));
  for (Field f : dst.field_list()) {
    const FieldView a = dst.field(f);
    const ConstFieldView b = src.field(f);
    for (std::int64_t k = ov.lo[2]; k < ov.hi[2]; ++k)
      for (std::int64_t j = ov.lo[1]; j < ov.hi[1]; ++j)
        for (std::int64_t i = ov.lo[0]; i < ov.hi[0]; ++i)
          a(static_cast<int>(i - dst.box().lo[0]) + dst.ng(0),
            static_cast<int>(j - dst.box().lo[1]) + dst.ng(1),
            static_cast<int>(k - dst.box().lo[2]) + dst.ng(2)) =
              b(static_cast<int>(i - shift[0] - src.box().lo[0]) + src.ng(0),
                static_cast<int>(j - shift[1] - src.box().lo[1]) + src.ng(1),
                static_cast<int>(k - shift[2] - src.box().lo[2]) + src.ng(2));
  }
}

void oracle_set_boundary_values(Hierarchy& h, int level) {
  const auto grids = h.grids(level);
  const auto shifts =
      periodic_image_shifts(h.level_dims(level), h.params().periodic);
  for (Grid* g : grids) {
    if (level > 0)
      oracle_fill_ghosts(*g, *g->parent());
    else if (!h.params().periodic)
      fill_outflow_ghosts(*g);
    for (const Grid* s : grids)
      for (std::int64_t kz : shifts[2])
        for (std::int64_t ky : shifts[1])
          for (std::int64_t kx : shifts[0]) {
            if (s == g && kx == 0 && ky == 0 && kz == 0) continue;
            oracle_copy(*g, *s, {kx, ky, kz});
          }
  }
}

/// A valid two-level hierarchy: root tiles plus up to `n` disjoint level-1
/// boxes, each nested in one root tile (so its ghost-grown box lies inside
/// the tile's total region).  The first box touches the domain's low
/// corner and the second its high corner, so edge ghosts and periodic
/// images both occur.  Every storage cell (ghosts included) starts random,
/// the root carries an old state at t = 0 and a new one at t = 1, and the
/// children sit at t = 0.3, so ghost fills blend in time.
Hierarchy make_nested_hierarchy(std::uint64_t seed, Index3 root_dims,
                                bool periodic, int tiles, int n) {
  enzo::util::Rng rng(seed);
  HierarchyParams p;
  p.root_dims = root_dims;
  p.periodic = periodic;
  p.max_level = 1;
  Hierarchy h(p);
  h.build_root(tiles);
  const auto roots = h.grids(0);
  const Index3 dims1 = h.level_dims(1);
  auto tile_of = [&](const Index3& root_cell) {
    for (Grid* r : roots)
      if (r->box().contains(root_cell)) return r;
    return roots.front();
  };
  std::vector<IndexBox> placed;
  for (int attempt = 0; attempt < 400 && static_cast<int>(placed.size()) < n;
       ++attempt) {
    Grid* parent =
        placed.empty() ? tile_of({0, 0, 0})
        : placed.size() == 1
            ? tile_of({root_dims[0] - 1, root_dims[1] - 1, root_dims[2] - 1})
            : roots[static_cast<std::size_t>(
                  rng.uniform(0, static_cast<double>(roots.size())))];
    const IndexBox tile = parent->box().refined(2);
    IndexBox box;
    for (int d = 0; d < 3; ++d) {
      const std::int64_t ext = std::min<std::int64_t>(
          2 + static_cast<std::int64_t>(rng.uniform(0, 6)), tile.extent(d));
      box.lo[d] = tile.lo[d] + static_cast<std::int64_t>(rng.uniform(
                                   0, static_cast<double>(
                                          tile.extent(d) - ext + 1)));
      if (placed.empty()) box.lo[d] = 0;
      if (placed.size() == 1) box.lo[d] = dims1[d] - ext;
      box.hi[d] = box.lo[d] + ext;
    }
    bool disjoint = true;
    for (const IndexBox& b : placed)
      if (!b.intersect(box).empty()) disjoint = false;
    if (!disjoint) continue;
    placed.push_back(box);
    auto g = std::make_unique<Grid>(h.make_spec(1, box), p.fields);
    g->set_parent(parent);
    h.insert_grid(std::move(g));
  }
  auto randomize = [&](Grid* g) {
    for (Field f : g->field_list())
      for (double& v : g->field(f))
        v = is_density_like(f) ? rng.uniform(-0.2, 2.0) : rng.uniform(-1, 1);
  };
  for (Grid* r : h.grids(0)) {
    randomize(r);
    r->store_old_fields();  // old state at t = 0
    randomize(r);
    r->set_time(ext::pos_t(1.0));
  }
  for (Grid* g : h.grids(1)) {
    randomize(g);
    g->set_time(ext::pos_t(0.3));
  }
  return h;
}

/// Every field byte of every grid, level by level.
std::vector<unsigned char> field_bytes(const Hierarchy& h) {
  std::vector<unsigned char> out;
  for (int l = 0; l <= h.deepest_level(); ++l)
    for (const Grid* g : h.grids(l))
      for (Field f : g->field_list()) {
        const ConstFieldView a = g->field(f);
        const auto* b = reinterpret_cast<const unsigned char*>(a.data());
        out.insert(out.end(), b, b + a.size() * sizeof(double));
      }
  return out;
}

/// Ghost cells of level-1 grids that no sibling's active box (periodic
/// images included) contains: the cells the parent pass must interpolate.
std::uint64_t uncovered_ghost_cells(const Hierarchy& h) {
  const auto grids = h.grids(1);
  const auto shifts = periodic_image_shifts(h.level_dims(1), h.params().periodic);
  std::uint64_t n = 0;
  for (const Grid* g : grids) {
    const IndexBox total = g->box().grown(g->ng(0));
    for (std::int64_t k = total.lo[2]; k < total.hi[2]; ++k)
      for (std::int64_t j = total.lo[1]; j < total.hi[1]; ++j)
        for (std::int64_t i = total.lo[0]; i < total.hi[0]; ++i) {
          if (g->box().contains(Index3{i, j, k})) continue;
          bool covered = false;
          for (const Grid* s : grids)
            for (std::int64_t kz : shifts[2])
              for (std::int64_t ky : shifts[1])
                for (std::int64_t kx : shifts[0])
                  if (s->box().shifted({kx, ky, kz}).contains(Index3{i, j, k}))
                    covered = true;
          if (!covered) ++n;
        }
  }
  return n;
}

}  // namespace

TEST(BoundaryOracle, SkipCoveredFillMatchesInterpolateAllThenCopy) {
  struct Case {
    std::uint64_t seed;
    Index3 dims;
    bool periodic;
    int tiles;
  };
  const Case cases[] = {{1, {16, 16, 16}, true, 1},  {2, {16, 16, 16}, false, 1},
                        {3, {16, 16, 16}, true, 2},  {4, {16, 16, 16}, false, 2},
                        {5, {16, 16, 32}, true, 2},  {6, {16, 16, 32}, false, 1}};
  for (const Case& c : cases) {
    for (const bool cached : {true, false}) {
      Hierarchy oracle = make_nested_hierarchy(c.seed, c.dims, c.periodic,
                                               c.tiles, 12);
      Hierarchy prod = make_nested_hierarchy(c.seed, c.dims, c.periodic,
                                             c.tiles, 12);
      ASSERT_GE(prod.num_grids(1), 2u) << "seed " << c.seed;
      prod.set_use_topology(cached);
      ASSERT_EQ(field_bytes(oracle), field_bytes(prod));
      for (int l = 0; l <= 1; ++l) {
        oracle_set_boundary_values(oracle, l);
        set_boundary_values(prod, l);
      }
      EXPECT_TRUE(field_bytes(oracle) == field_bytes(prod))
          << "seed " << c.seed << (cached ? " cached" : " all-pairs");
    }
  }
}

TEST(BoundaryOracle, CountersAndFlopsChargeOnlyInterpolatedCells) {
  Hierarchy h = make_nested_hierarchy(3, {16, 16, 16}, true, 2, 12);
  set_boundary_values(h, 0);
  auto& reg = enzo::perf::Registry::global();
  const std::uint64_t ghosts0 =
      reg.counter("boundary.ghost_cells_filled").value();
  const std::uint64_t interp0 =
      reg.counter("boundary.parent_interp_cells").value();
  const std::uint64_t copied0 =
      reg.counter("boundary.sibling_copy_cells").value();
  const std::uint64_t flops0 =
      enzo::util::FlopCounter::global().component("interpolation");
  set_boundary_values(h, 1);
  const std::uint64_t ghosts =
      reg.counter("boundary.ghost_cells_filled").value() - ghosts0;
  const std::uint64_t interp =
      reg.counter("boundary.parent_interp_cells").value() - interp0;
  const std::uint64_t copied =
      reg.counter("boundary.sibling_copy_cells").value() - copied0;
  const std::uint64_t flops =
      enzo::util::FlopCounter::global().component("interpolation") - flops0;

  std::uint64_t expect_ghosts = 0, expect_copied = 0;
  const auto grids = h.grids(1);
  const auto shifts = periodic_image_shifts(h.level_dims(1), true);
  for (const Grid* g : grids) {
    expect_ghosts += static_cast<std::uint64_t>(
        g->box().grown(g->ng(0)).volume() - g->box().volume());
    for (const Grid* s : grids)
      for (std::int64_t kz : shifts[2])
        for (std::int64_t ky : shifts[1])
          for (std::int64_t kx : shifts[0]) {
            if (s == g && kx == 0 && ky == 0 && kz == 0) continue;
            expect_copied += static_cast<std::uint64_t>(
                g->box().grown(g->ng(0))
                    .intersect(s->box().shifted({kx, ky, kz}))
                    .volume());
          }
  }
  EXPECT_EQ(ghosts, expect_ghosts);
  EXPECT_EQ(interp, uncovered_ghost_cells(h));
  EXPECT_LT(interp, ghosts);  // the adjacent siblings cover some ghosts
  EXPECT_EQ(copied, expect_copied);
  EXPECT_EQ(flops, enzo::util::flop_cost::kInterpolationPerCell * interp *
                       h.params().fields.size());
}

TEST(BoundaryOracle, CoverageCheckStillFiresForSkippedGhosts) {
  // Child a pokes out of its parent tile: its high-x ghosts at fine x = 24
  // and 25 map to root cell 12, outside the tile's total region [-4, 12).  Those
  // ghosts all lie inside sibling b, so the fill skips interpolating them,
  // but the coverage check must still reject the hierarchy.
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  p.max_level = 1;
  Hierarchy h(p);
  h.build_root(2);  // 8 tiles of 8³
  auto tile_at = [&](const Index3& lo) -> Grid* {
    for (Grid* r : h.grids(0))
      if (r->box().lo == lo) return r;
    return nullptr;
  };
  auto a = std::make_unique<Grid>(h.make_spec(1, {{8, 4, 4}, {22, 8, 8}}),
                                  p.fields);
  auto b = std::make_unique<Grid>(h.make_spec(1, {{22, 0, 0}, {30, 16, 16}}),
                                  p.fields);
  a->set_parent(tile_at({0, 0, 0}));
  b->set_parent(tile_at({8, 0, 0}));
  h.insert_grid(std::move(a));
  h.insert_grid(std::move(b));
  EXPECT_THROW(set_boundary_values(h, 1), enzo::Error);
}

TEST(BoundaryOracle, SedovPastFirstRegridIsThreadCountInvariant) {
  // The Sedov deck refines at root step 13; run past it on the serial
  // backend and on 4 lanes, and compare every grid box and field byte.
  auto run = [](int threads) {
    enzo::core::ParameterDeck deck = enzo::core::parse_parameter_file(
        std::string(ENZO_SOURCE_DIR) + "/decks/sedov.enzo");
    deck.config.exec.threads = threads;
    deck.config.exec.backend = threads == 1
                                   ? enzo::exec::Backend::kSerial
                                   : enzo::exec::Backend::kThreadPool;
    enzo::core::Simulation sim(deck.config);
    enzo::core::setup_from_deck(sim, deck);
    for (int s = 0; s < 14; ++s) sim.advance_root_step();
    const Hierarchy& h = sim.hierarchy();
    std::vector<std::int64_t> boxes;
    for (int l = 0; l <= h.deepest_level(); ++l)
      for (const Grid* g : h.grids(l))
        for (int d = 0; d < 3; ++d) {
          boxes.push_back(g->box().lo[d]);
          boxes.push_back(g->box().hi[d]);
        }
    return std::make_pair(boxes, field_bytes(h));
  };
  const auto serial = run(1);
  const auto pool = run(4);
  EXPECT_GE(serial.first.size(), 12u) << "no refined grids after 14 steps";
  EXPECT_EQ(serial.first, pool.first);
  EXPECT_TRUE(serial.second == pool.second);
}
