// Problems "SodTube" and "SodTubeSMR": the standard 1-d shock-tube
// verification problem (§3.2.1), unigrid or with a statically refined
// region over the diaphragm.  The l1 callback compares the root-level
// density against the exact Riemann solution sampled at cell centers, so
// the regression harness can gate both the error magnitude and the
// convergence order (≈1 for shock-dominated flow).

#include <cmath>

#include "analysis/reference.hpp"
#include "problems/detail.hpp"
#include "problems/registry.hpp"
#include "util/error.hpp"

namespace enzo::problems {

namespace {

using mesh::Field;
using mesh::Grid;

/// Left state (rho, p) = (1, 1), right state (0.125, 0.1), diaphragm at
/// x = 0.5, at rest, outflow boundaries.
core::ProblemSetup sod_setup() {
  core::ProblemSetup setup;
  setup.configure([](core::SimulationConfig& cfg) {
    cfg.hierarchy.periodic = false;
    cfg.enable_gravity = false;
    cfg.enable_chemistry = false;
    cfg.enable_particles = false;
    ENZO_REQUIRE(cfg.hierarchy.root_dims[1] == 1 &&
                     cfg.hierarchy.root_dims[2] == 1,
                 "Sod tube is one-dimensional");
  });
  setup.fill([](core::Simulation& sim) {
    const double gamma = sim.config().hydro.gamma;
    for (Grid* g : sim.hierarchy().grids(0)) {
      const mesh::FieldView rho = g->field(Field::kDensity);
      const mesh::FieldView vx = g->field(Field::kVelocityX);
      const mesh::FieldView et = g->field(Field::kTotalEnergy);
      const mesh::FieldView ei = g->field(Field::kInternalEnergy);
      g->field(Field::kVelocityY).fill(0.0);
      g->field(Field::kVelocityZ).fill(0.0);
      for (int i = 0; i < g->nx(0); ++i) {
        const double x =
            (static_cast<double>(g->box().lo[0] + i) + 0.5) /
            g->spec().level_dims[0];
        const double r = x < 0.5 ? 1.0 : 0.125;
        const double p = x < 0.5 ? 1.0 : 0.1;
        rho(g->sx(i), 0, 0) = r;
        vx(g->sx(i), 0, 0) = 0.0;
        ei(g->sx(i), 0, 0) = p / ((gamma - 1.0) * r);
        et(g->sx(i), 0, 0) = ei(g->sx(i), 0, 0);
      }
    }
  });
  return setup;
}

double sod_l1(const core::Simulation& sim, const core::ParameterDeck&) {
  analysis::RiemannStates st;  // defaults are the Sod tube
  st.gamma = sim.config().hydro.gamma;
  const double t = sim.time_d();
  double l1 = 0.0;
  std::int64_t n = 0;
  detail::for_each_root_density(sim, [&](double x, double, double,
                                         double rho) {
    // xi = (x - x_diaphragm) / t; at t = 0 every cell is in an outer state.
    const double xi = t > 0 ? (x - 0.5) / t : (x < 0.5 ? -1e30 : 1e30);
    l1 += std::abs(rho - analysis::sample_riemann(st, xi).rho);
    ++n;
  });
  return l1 / static_cast<double>(n);
}

}  // namespace

void register_sod_tube(Registry& r) {
  {
    ProblemSpec s;
    s.name = "SodTube";
    s.description = "Sod shock tube along x (exact Riemann reference)";
    s.make = [](const core::ParameterDeck&) { return sod_setup(); };
    s.l1_density_error = sod_l1;
    s.smoke_deck =
        "TopGridDimensions = 16 1 1\n"
        "Gamma = 1.4\n"
        "StopSteps = 2\n";
    r.add(std::move(s));
  }
  {
    ProblemSpec s;
    s.name = "SodTubeSMR";
    s.description =
        "Sod tube with a static refined region over the middle half of the "
        "tube (flux-correction/projection consistency check)";
    s.make = [](const core::ParameterDeck&) {
      core::ProblemSetup setup = sod_setup();
      setup.configure([](core::SimulationConfig& cfg) {
        if (cfg.hierarchy.max_level < 1) cfg.hierarchy.max_level = 1;
        cfg.rebuild_interval = 1 << 20;  // static tree
      });
      // Middle half of the tube at level 1 (level-1 index space).
      setup.fill([](core::Simulation& sim) {
        const mesh::HierarchyParams& hp = sim.config().hierarchy;
        const std::int64_t n1 =
            static_cast<std::int64_t>(hp.root_dims[0]) * hp.refine_factor;
        sim.add_static_region(1, {{n1 / 4, 0, 0}, {3 * n1 / 4, 1, 1}});
      });
      return setup;
    };
    s.l1_density_error = sod_l1;
    s.smoke_deck =
        "TopGridDimensions = 16 1 1\n"
        "MaximumRefinementLevel = 1\n"
        "Gamma = 1.4\n"
        "StopSteps = 2\n";
    r.add(std::move(s));
  }
}

}  // namespace enzo::problems
