// AMR invariant auditor tests: a healthy hierarchy passes every check, and
// each deliberately injected corruption — overlap, misalignment, projection
// mismatch, stale ghosts, flux-register mismatch, escaped particles,
// non-finite data, conservation drift — is detected and attributed to the
// right check.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "analysis/auditor.hpp"
#include "core/parameter_file.hpp"
#include "core/simulation.hpp"
#include "mesh/boundary.hpp"
#include "mesh/hierarchy.hpp"
#include "mesh/project.hpp"
#include "perf/log.hpp"
#include "perf/metrics.hpp"
#include "support/problem_deck.hpp"

using namespace enzo;
using namespace enzo::mesh;
using analysis::AuditOptions;
using analysis::AuditReport;
namespace ext = enzo::ext;

namespace {

/// Count recorded violations attributed to one check.
std::size_t count_check(const AuditReport& r, const std::string& check) {
  std::size_t n = 0;
  for (const auto& v : r.violations)
    if (v.check == check) ++n;
  return n;
}

Hierarchy::FlagFn center_flagger(double frac) {
  return [frac](const Grid& g, std::vector<Index3>& flags) {
    const Index3 dims = g.spec().level_dims;
    for (std::int64_t k = g.box().lo[2]; k < g.box().hi[2]; ++k)
      for (std::int64_t j = g.box().lo[1]; j < g.box().hi[1]; ++j)
        for (std::int64_t i = g.box().lo[0]; i < g.box().hi[0]; ++i) {
          const double x = (i + 0.5) / dims[0] - 0.5;
          const double y = (j + 0.5) / dims[1] - 0.5;
          const double z = (k + 0.5) / dims[2] - 0.5;
          if (x * x + y * y + z * z < frac * frac) flags.push_back({i, j, k});
        }
  };
}

/// A two-level hierarchy with smoothly varying fields, boundaries current.
Hierarchy make_healthy_hierarchy() {
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  p.max_level = 2;
  Hierarchy h(p);
  h.build_root();
  for (Grid* g : h.grids(0)) {
    for (int k = 0; k < g->nt(2); ++k)
      for (int j = 0; j < g->nt(1); ++j)
        for (int i = 0; i < g->nt(0); ++i) {
          const double x = (i + 0.5) / g->nt(0);
          g->field(Field::kDensity)(i, j, k) = 1.0 + 0.3 * std::sin(x * 6.28);
          g->field(Field::kTotalEnergy)(i, j, k) = 1.5;
          g->field(Field::kInternalEnergy)(i, j, k) = 1.5;
          g->field(Field::kVelocityX)(i, j, k) = 0.1;
          g->field(Field::kVelocityY)(i, j, k) = 0.0;
          g->field(Field::kVelocityZ)(i, j, k) = 0.0;
        }
    g->store_old_fields();
  }
  h.rebuild(1, center_flagger(0.2));
  for (int l = 0; l <= h.deepest_level(); ++l) set_boundary_values(h, l);
  return h;
}

}  // namespace

TEST(Auditor, HealthyHierarchyPasses) {
  Hierarchy h = make_healthy_hierarchy();
  ASSERT_GE(h.deepest_level(), 1);
  const AuditReport r = analysis::audit_hierarchy(h);
  EXPECT_TRUE(r.passed()) << r.summary();
  EXPECT_GT(r.cells_checked, 0);
  EXPECT_GT(r.ghosts_checked, 0);
  EXPECT_GT(r.grids, 1u);
  EXPECT_GT(r.mass_total, 0.0);
  EXPECT_LT(r.max_rel_error, 1e-10);
}

TEST(Auditor, ProjectionCorruptionDetected) {
  Hierarchy h = make_healthy_hierarchy();
  ASSERT_GE(h.deepest_level(), 1);
  Grid* child = h.grids(1)[0];
  // Blow up one interior fine density cell: the parent cell covering it no
  // longer equals the conservative child average.
  child->field(Field::kDensity)(child->sx(1), child->sy(1), child->sz(1)) +=
      10.0;
  AuditOptions opts;
  opts.check_ghosts = false;  // the stale sibling copy is not under test
  const AuditReport r = analysis::audit_hierarchy(h, opts);
  EXPECT_FALSE(r.passed());
  EXPECT_GE(count_check(r, "projection"), 1u) << r.summary();
}

TEST(Auditor, OverlapAndMisalignmentDetected) {
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  Hierarchy h(p);
  h.build_root();
  Grid* root = h.grids(0)[0];
  for (Field f : root->field_list()) root->field(f).fill(1.0);
  auto add_child = [&](const IndexBox& box) {
    auto g = std::make_unique<Grid>(h.make_spec(1, box), p.fields);
    g->set_parent(root);
    for (Field f : g->field_list()) g->field(f).fill(1.0);
    h.insert_grid(std::move(g));
  };
  add_child({{4, 4, 4}, {12, 12, 12}});
  add_child({{10, 10, 10}, {16, 16, 16}});  // overlaps the first child
  add_child({{17, 2, 2}, {21, 6, 6}});      // lo odd: not parent-aligned
  AuditOptions opts;
  opts.check_ghosts = false;
  opts.check_projection = false;
  const AuditReport r = analysis::audit_hierarchy(h, opts);
  EXPECT_FALSE(r.passed());
  EXPECT_GE(count_check(r, "structure"), 2u) << r.summary();
}

TEST(Auditor, StaleGhostDetected) {
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  Hierarchy h(p);
  h.build_root(2);  // 8 tiles so sibling ghost exchange is exercised
  for (Grid* g : h.grids(0)) {
    for (Field f : g->field_list()) g->field(f).fill(1.0);
    g->store_old_fields();
  }
  set_boundary_values(h, 0);
  EXPECT_TRUE(analysis::audit_hierarchy(h).passed());
  // Change one tile's active corner cell after the fill: every neighbour
  // ghost copied from it is now stale.
  Grid* b = h.grids(0)[0];
  b->field(Field::kDensity)(b->sx(0), b->sy(0), b->sz(0)) = 5.0;
  const AuditReport r = analysis::audit_hierarchy(h);
  EXPECT_FALSE(r.passed());
  EXPECT_GE(count_check(r, "ghosts"), 1u) << r.summary();
}

TEST(Auditor, FluxRegisterMismatchDetected) {
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  Hierarchy h(p);
  h.build_root();
  Grid* root = h.grids(0)[0];
  for (Field f : root->field_list()) root->field(f).fill(1.0);
  auto child_ptr = std::make_unique<Grid>(
      h.make_spec(1, {{8, 8, 8}, {16, 16, 16}}), p.fields);
  child_ptr->set_parent(root);
  for (Field f : child_ptr->field_list()) child_ptr->field(f).fill(1.0);
  Grid* child = h.insert_grid(std::move(child_ptr));

  root->reset_fluxes();
  child->reset_boundary_fluxes();
  for (Field f : child->field_list())
    for (int d = 0; d < 3; ++d)
      for (int side = 0; side < 2; ++side) child->boundary_flux(f, d, side).fill(0.25);

  AuditOptions opts;
  opts.check_ghosts = false;
  opts.check_projection = false;
  // Registers carry flux the parent never saw: mismatch.
  AuditReport r = analysis::audit_hierarchy(h, opts);
  EXPECT_FALSE(r.passed());
  EXPECT_GE(count_check(r, "flux"), 1u) << r.summary();
  EXPECT_GT(r.faces_checked, 0);
  // Flux correction reconciles the parent's face fluxes with the registers;
  // afterwards the invariant holds.
  flux_correct_from_child(*child, *root);
  r = analysis::audit_hierarchy(h, opts);
  EXPECT_TRUE(r.passed()) << r.summary();
}

TEST(Auditor, ProjectionProductsHoldAfterProjection) {
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  Hierarchy h(p);
  h.build_root();
  Grid* root = h.grids(0)[0];
  for (Field f : root->field_list()) root->field(f).fill(1.0);
  auto child_ptr = std::make_unique<Grid>(
      h.make_spec(1, {{8, 8, 8}, {16, 16, 16}}), p.fields);
  child_ptr->set_parent(root);
  Grid* child = h.insert_grid(std::move(child_ptr));
  // Non-trivial child data so the mass weighting actually matters.
  for (int k = 0; k < child->nt(2); ++k)
    for (int j = 0; j < child->nt(1); ++j)
      for (int i = 0; i < child->nt(0); ++i) {
        child->field(Field::kDensity)(i, j, k) = 1.0 + 0.01 * i + 0.02 * j;
        child->field(Field::kVelocityX)(i, j, k) = 0.5 + 0.03 * k;
        child->field(Field::kVelocityY)(i, j, k) = -0.25;
        child->field(Field::kVelocityZ)(i, j, k) = 0.0;
        child->field(Field::kTotalEnergy)(i, j, k) = 2.0 + 0.01 * j;
        child->field(Field::kInternalEnergy)(i, j, k) = 1.0;
      }
  project_to_parent(*child, *root);
  AuditOptions opts;
  opts.check_ghosts = false;
  opts.check_projection_products = true;
  const AuditReport r = analysis::audit_hierarchy(h, opts);
  EXPECT_TRUE(r.passed()) << r.summary();
  // Corrupting a parent velocity inside the child-covered region [4,8)^3
  // breaks the conserved-product consistency that plain density projection
  // would not see.
  root->field(Field::kVelocityX)(root->sx(5), root->sy(5), root->sz(5)) += 1.0;
  const AuditReport r2 = analysis::audit_hierarchy(h, opts);
  EXPECT_FALSE(r2.passed());
  EXPECT_GE(count_check(r2, "projection"), 1u) << r2.summary();
}

TEST(Auditor, EscapedParticleDetected) {
  HierarchyParams p;
  p.root_dims = {8, 8, 8};
  Hierarchy h(p);
  h.build_root(2);
  Grid* g = h.grids(0)[0];
  for (Grid* t : h.grids(0))
    for (Field f : t->field_list()) t->field(f).fill(1.0);
  Particle esc;
  esc.x = {ext::pos_t(0.9), ext::pos_t(0.9), ext::pos_t(0.9)};  // outside tile 0
  esc.mass = 1.0;
  esc.id = 7;
  g->particles().push_back(esc);
  AuditOptions opts;
  opts.check_ghosts = false;
  const AuditReport r = analysis::audit_hierarchy(h, opts);
  EXPECT_FALSE(r.passed());
  EXPECT_GE(count_check(r, "particles"), 1u) << r.summary();
}

TEST(Auditor, NonFiniteFieldDetected) {
  HierarchyParams p;
  p.root_dims = {8, 8, 8};
  Hierarchy h(p);
  h.build_root();
  Grid* g = h.grids(0)[0];
  for (Field f : g->field_list()) g->field(f).fill(1.0);
  g->store_old_fields();
  set_boundary_values(h, 0);
  g->field(Field::kTotalEnergy)(g->sx(3), g->sy(3), g->sz(3)) =
      std::numeric_limits<double>::quiet_NaN();
  const AuditReport r = analysis::audit_hierarchy(h);
  EXPECT_FALSE(r.passed());
  EXPECT_GE(count_check(r, "finite"), 1u) << r.summary();
}

TEST(Auditor, ConservationBaselineDriftDetected) {
  HierarchyParams p;
  p.root_dims = {8, 8, 8};
  Hierarchy h(p);
  h.build_root();
  Grid* g = h.grids(0)[0];
  for (Field f : g->field_list()) g->field(f).fill(1.0);
  g->store_old_fields();
  set_boundary_values(h, 0);
  AuditOptions opts;
  const AuditReport r0 = analysis::audit_hierarchy(h, opts);
  EXPECT_TRUE(r0.passed());
  opts.mass_baseline = r0.mass_total;
  opts.energy_baseline = r0.energy_total;
  EXPECT_TRUE(analysis::audit_hierarchy(h, opts).passed());
  opts.mass_baseline = r0.mass_total * 1.5;
  const AuditReport r1 = analysis::audit_hierarchy(h, opts);
  EXPECT_FALSE(r1.passed());
  EXPECT_GE(count_check(r1, "conservation"), 1u) << r1.summary();
}

TEST(Auditor, ViolationCapCountsEverything) {
  Hierarchy h = make_healthy_hierarchy();
  ASSERT_GE(h.deepest_level(), 1);
  // Corrupt every child cell: far more violations than the record cap.
  for (Grid* c : h.grids(1)) c->field(Field::kDensity).add(c->field(Field::kDensity), 1.0);
  AuditOptions opts;
  opts.check_ghosts = false;
  opts.max_recorded = 8;
  const AuditReport r = analysis::audit_hierarchy(h, opts);
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.violations.size(), 8u);
  EXPECT_GT(r.total_violations, 8u);
}

TEST(Auditor, SimulationHookAuditsEachRootStep) {
  core::SimulationConfig cfg;
  cfg.hierarchy.root_dims = {8, 8, 8};
  cfg.hierarchy.max_level = 1;
  cfg.refinement.overdensity_threshold = 1.5;
  cfg.audit_invariants = true;
  core::Simulation sim(cfg);
  core::setup_from_deck(sim, test::problem_deck("Uniform"));
  sim.advance_root_step();
  sim.advance_root_step();
  EXPECT_EQ(sim.audits_run(), 2);
  EXPECT_EQ(sim.audit_violations_total(), 0u) << sim.last_audit().summary();
  EXPECT_TRUE(sim.last_audit().passed());
}

TEST(Auditor, DeckKeyRoundTrips) {
  std::istringstream in(
      "ProblemType = Uniform\nAuditInvariants = 1\nAuditInterval = 3\n");
  const core::ParameterDeck deck = core::parse_parameter_deck(in);
  EXPECT_TRUE(deck.config.audit_invariants);
  EXPECT_EQ(deck.config.audit_interval, 3);
  const std::string rendered = core::render_deck(deck);
  EXPECT_NE(rendered.find("AuditInvariants = 1"), std::string::npos);
  EXPECT_NE(rendered.find("AuditInterval = 3"), std::string::npos);
}

TEST(Auditor, ReportingPublishesMetrics) {
  Hierarchy h = make_healthy_hierarchy();
  perf::StructuredLog::global().set_min_level(perf::LogLevel::kOff);
  const AuditReport r = analysis::audit_and_report(h);
  perf::StructuredLog::global().set_min_level(perf::LogLevel::kInfo);
  EXPECT_TRUE(r.passed());
  EXPECT_GE(perf::Registry::global().counter("audit.runs").value(), 1u);
}

TEST(Auditor, StaleTopologyCacheFlagged) {
  Hierarchy h = make_healthy_hierarchy();
  ASSERT_GE(h.deepest_level(), 1);
  // make_healthy_hierarchy filled boundaries, so the topology cache is
  // current and a plain audit passes.
  ASSERT_TRUE(h.topology_cache_generation().has_value());
  EXPECT_TRUE(analysis::audit_hierarchy(h).passed());
  // A structure mutation without a subsequent topology query leaves the
  // cache stale; the auditor must flag it *before* any check lazily
  // refreshes it.
  auto extra = std::make_unique<Grid>(
      h.make_spec(1, {{0, 0, 0}, {4, 4, 4}}), h.params().fields);
  extra->set_parent(h.grids(0)[0]);
  for (Field f : extra->field_list()) extra->field(f).fill(1.0);
  h.insert_grid(std::move(extra));
  ASSERT_NE(*h.topology_cache_generation(), h.generation());
  AuditOptions opts;
  // Isolate the staleness check: the injected grid has stale ghosts/fluxes.
  opts.check_ghosts = false;
  opts.check_projection = false;
  opts.check_flux_registers = false;
  const AuditReport r = analysis::audit_hierarchy(h, opts);
  EXPECT_FALSE(r.passed());
  EXPECT_GE(count_check(r, "topology"), 1u) << r.summary();
  // Disabled, the same hierarchy passes (structure etc. are clean).
  opts.check_topology = false;
  EXPECT_TRUE(analysis::audit_hierarchy(h, opts).passed());
  // A topology query refreshes the cache; the audit is clean again.
  opts.check_topology = true;
  (void)h.topology();
  EXPECT_TRUE(analysis::audit_hierarchy(h, opts).passed());
}
