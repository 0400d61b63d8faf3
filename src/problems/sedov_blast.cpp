// Problems "SedovBlast" and "SedovBlastSMR": the Sedov–Taylor point blast,
// r_shock(t) = beta (E t^2 / rho0)^{1/5}.  Thermal energy SedovEnergy is
// deposited in a sphere of radius SedovDepositRadius about the box center
// in an ambient medium with rho = 1, eint = 1e-4; the deposit happens in a
// fill hook so static/dynamic refinement of the initial state stays
// consistent across levels (children interpolate the deposited profile).
// The l1 callback compares root-level density against the similarity
// solution, giving the harness a genuinely 3-d, shock-dominated AMR
// convergence gate.

#include <cmath>

#include "analysis/reference.hpp"
#include "problems/detail.hpp"
#include "problems/registry.hpp"
#include "util/error.hpp"

namespace enzo::problems {

namespace {

constexpr double kAmbientDensity = 1.0;
constexpr double kAmbientEint = 1e-4;

/// Uniform cold medium + central thermal-energy deposit.  The cell count is
/// taken first so the discrete deposit integrates to exactly SedovEnergy on
/// the root lattice regardless of tiling.
core::ProblemSetup sedov_setup(const core::ParameterDeck& d) {
  const double energy = d.sedov.energy;
  const double r_dep = d.sedov.radius;
  core::ProblemSetup setup;
  setup.fill(detail::uniform_fill(kAmbientDensity, kAmbientEint));
  setup.configure([](core::SimulationConfig& cfg) {
    cfg.enable_gravity = false;
    cfg.enable_chemistry = false;
    cfg.enable_particles = false;
  });
  setup.fill([energy, r_dep](core::Simulation& sim) {
    auto grids = sim.hierarchy().grids(0);
    const auto& ld = grids[0]->spec().level_dims;
    const double cell_vol = 1.0 / (static_cast<double>(ld[0]) * ld[1] * ld[2]);
    auto in_sphere = [&](const mesh::Grid* g, int i, int j, int k) {
      const double x = (static_cast<double>(g->box().lo[0] + i) + 0.5) / ld[0];
      const double y = (static_cast<double>(g->box().lo[1] + j) + 0.5) / ld[1];
      const double z = (static_cast<double>(g->box().lo[2] + k) + 0.5) / ld[2];
      const double dx = x - 0.5, dy = y - 0.5, dz = z - 0.5;
      return dx * dx + dy * dy + dz * dz < r_dep * r_dep;
    };
    std::int64_t count = 0;
    for (const mesh::Grid* g : grids)
      for (int k = 0; k < g->nx(2); ++k)
        for (int j = 0; j < g->nx(1); ++j)
          for (int i = 0; i < g->nx(0); ++i)
            if (in_sphere(g, i, j, k)) ++count;
    ENZO_REQUIRE(count > 0,
                 "SedovDepositRadius smaller than a root cell — raise it or "
                 "the resolution");
    // E = sum rho e V over the deposit; rho = 1 in the ambient medium.
    const double e_cell =
        energy / (static_cast<double>(count) * cell_vol * kAmbientDensity);
    for (mesh::Grid* g : grids) {
      const mesh::FieldView ei = g->field(mesh::Field::kInternalEnergy);
      const mesh::FieldView et = g->field(mesh::Field::kTotalEnergy);
      for (int k = 0; k < g->nx(2); ++k)
        for (int j = 0; j < g->nx(1); ++j)
          for (int i = 0; i < g->nx(0); ++i)
            if (in_sphere(g, i, j, k)) {
              ei(g->sx(i), g->sy(j), g->sz(k)) = e_cell;
              et(g->sx(i), g->sy(j), g->sz(k)) = e_cell;
            }
    }
  });
  return setup;
}

double sedov_l1(const core::Simulation& sim, const core::ParameterDeck& d) {
  const analysis::SedovSolution sol(sim.config().hydro.gamma);
  const double t = sim.time_d();
  const double energy = d.sedov.energy;
  double l1 = 0.0;
  std::int64_t n = 0;
  detail::for_each_root_density(
      sim, [&](double x, double y, double z, double rho) {
        const double dx = x - 0.5, dy = y - 0.5, dz = z - 0.5;
        const double rad = std::sqrt(dx * dx + dy * dy + dz * dz);
        l1 += std::abs(rho - sol.density(rad, t, energy, kAmbientDensity));
        ++n;
      });
  return l1 / static_cast<double>(n);
}

}  // namespace

void register_sedov_blast(Registry& r) {
  {
    ProblemSpec s;
    s.name = "SedovBlast";
    s.description =
        "Sedov–Taylor point blast (similarity-solution reference); dynamic "
        "AMR chases the shock when MaximumRefinementLevel > 0";
    s.make = sedov_setup;
    s.l1_density_error = sedov_l1;
    s.smoke_deck =
        "TopGridDimensions = 12 12 12\n"
        "StopSteps = 2\n";
    r.add(std::move(s));
  }
  {
    ProblemSpec s;
    s.name = "SedovBlastSMR";
    s.description =
        "Sedov blast with a static refined region over the central 3/4 box "
        "(the shock stays inside it through t ~ 0.05)";
    s.make = [](const core::ParameterDeck& d) {
      core::ProblemSetup setup = sedov_setup(d);
      setup.configure([](core::SimulationConfig& cfg) {
        if (cfg.hierarchy.max_level < 1) cfg.hierarchy.max_level = 1;
        cfg.rebuild_interval = 1 << 20;  // static tree
      });
      // Central 3/4 of the box at level 1 (level-1 index space).
      setup.fill([](core::Simulation& sim) {
        const mesh::HierarchyParams& hp = sim.config().hierarchy;
        mesh::IndexBox box;
        for (int a = 0; a < 3; ++a) {
          const std::int64_t n1 =
              static_cast<std::int64_t>(hp.root_dims[a]) * hp.refine_factor;
          box.lo[a] = n1 / 8;
          box.hi[a] = 7 * n1 / 8;
        }
        sim.add_static_region(1, box);
      });
      return setup;
    };
    s.l1_density_error = sedov_l1;
    s.smoke_deck =
        "TopGridDimensions = 12 12 12\n"
        "MaximumRefinementLevel = 1\n"
        "StopSteps = 2\n";
    r.add(std::move(s));
  }
}

}  // namespace enzo::problems
