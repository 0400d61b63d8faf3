// Problems "CollapseCloud" and "IsothermalCollapse": the controlled
// primordial-cloud collapse (the paper's §4 science problem at laptop
// scale) — an overdense isothermal sphere of primordial composition in a
// periodic box, which collapses, cools through H₂ and runs the hierarchy
// deep: minutes of laptop time instead of 10⁶ SP2-seconds.  CollapseCloud
// follows the run's chemistry toggle; the IsothermalCollapse variant is the
// classic chemistry-free control — a near-isothermal EOS (gamma → 1.001
// unless the deck chose another gamma) stands in for the H₂ cooling that
// keeps the real cloud isothermal, so hierarchy-depth and profile
// comparisons isolate the chemistry's effect.

#include <cmath>

#include "chemistry/chemistry.hpp"
#include "problems/detail.hpp"
#include "problems/registry.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"

namespace enzo::problems {

namespace {

namespace cn = constants;
using mesh::Field;
using mesh::Grid;

/// Append the collapse hooks to `setup`.  Static space with full gravity;
/// cfg.units become a self-consistent simple system in which
/// G_code = 4πG·ρ_unit·t_unit² = 1 with t_unit the background free-fall
/// scale.  Chemistry follows cfg.enable_chemistry as the earlier configure
/// hooks leave it.
core::ProblemSetup collapse_setup(core::ProblemSetup setup,
                                  const core::ParameterDeck& d) {
  const core::CollapseOptions opt = d.collapse;
  const double temperature = d.initial_temperature.value_or(400.0);
  const double ionization = d.initial_ionization.value_or(1e-4);
  const double h2_fraction = d.initial_h2_fraction.value_or(5e-4);
  setup.configure([opt](core::SimulationConfig& cfg) {
    cfg.comoving = false;
    cfg.enable_gravity = true;
    // Units: code density 1 = background; t_unit = 1/sqrt(4πG ρ_unit) so
    // G_code = 1.
    cosmology::CodeUnits u;
    u.length_cm = opt.box_proper_cm;
    u.density_cgs = opt.mean_density_cgs;
    u.time_s = 1.0 / std::sqrt(cn::kFourPi * cn::kGravity * u.density_cgs);
    u.grav_const_code = 1.0;
    u.comoving = false;
    cfg.units = u;
    cfg.gravity.grav_const_code = 1.0;
    if (cfg.enable_chemistry) {
      ENZO_REQUIRE(cfg.hierarchy.fields.size() >=
                       mesh::chemistry_field_list().size(),
                   "collapse cloud with chemistry needs the full field list");
    }
  });
  setup.fill([opt, temperature, ionization,
              h2_fraction](core::Simulation& sim) {
    auto& cfg = sim.config();
    const cosmology::CodeUnits& u = cfg.units;
    const bool with_chemistry = cfg.enable_chemistry;
    double mean = 0.0;
    std::int64_t count = 0;
    for (Grid* g : sim.hierarchy().grids(0)) {
      const mesh::FieldView rho = g->field(Field::kDensity);
      for (int k = 0; k < g->nt(2); ++k)
        for (int j = 0; j < g->nt(1); ++j)
          for (int i = 0; i < g->nt(0); ++i) {
            // Distance from box center (including ghosts via global index).
            double r2 = 0;
            const std::int64_t gidx[3] = {g->box().lo[0] + (i - g->ng(0)),
                                          g->box().lo[1] + (j - g->ng(1)),
                                          g->box().lo[2] + (k - g->ng(2))};
            for (int dd = 0; dd < 3; ++dd) {
              double x = (static_cast<double>(gidx[dd]) + 0.5) /
                             g->spec().level_dims[dd] -
                         0.5;
              if (x > 0.5) x -= 1.0;
              if (x < -0.5) x += 1.0;
              r2 += x * x;
            }
            const double q = r2 / (opt.cloud_radius * opt.cloud_radius);
            // Parabolic cloud with a smooth edge.
            const double delta =
                q < 1.0 ? (opt.overdensity - 1.0) * (1.0 - q) : 0.0;
            rho(i, j, k) = 1.0 + delta;
          }
      g->field(Field::kVelocityX).fill(0.0);
      g->field(Field::kVelocityY).fill(0.0);
      g->field(Field::kVelocityZ).fill(0.0);
      if (with_chemistry)
        chemistry::initialize_primordial_composition(*g, cfg.chemistry,
                                                     ionization, h2_fraction);
      // Isothermal start.
      for (int k = 0; k < g->nt(2); ++k)
        for (int j = 0; j < g->nt(1); ++j)
          for (int i = 0; i < g->nt(0); ++i) {
            const double mu =
                with_chemistry ? chemistry::cell_mu(*g, i, j, k) : 1.22;
            const double e =
                detail::eint_code(temperature, mu, cfg.hydro.gamma, u);
            g->field(Field::kInternalEnergy)(i, j, k) = e;
            g->field(Field::kTotalEnergy)(i, j, k) = e;
          }
      for (int k = 0; k < g->nx(2); ++k)
        for (int j = 0; j < g->nx(1); ++j)
          for (int i = 0; i < g->nx(0); ++i) {
            // enzo-lint: allow(determinism-grid-fp-accumulation) serial setup pass
            mean += rho(g->sx(i), g->sy(j), g->sz(k));
            ++count;
          }
    }
    cfg.gravity.mean_density = mean / static_cast<double>(count);
  });
  return setup;
}

}  // namespace

void register_collapse_cloud(Registry& r) {
  {
    ProblemSpec s;
    s.name = "CollapseCloud";
    s.description =
        "isolated primordial-cloud collapse (gravity + optional chemistry)";
    s.make = [](const core::ParameterDeck& d) {
      return collapse_setup(core::ProblemSetup{}, d);
    };
    s.smoke_deck =
        "TopGridDimensions = 8 8 8\n"
        "GravityEnabled = 1\n"
        "StopSteps = 1\n";
    r.add(std::move(s));
  }
  {
    ProblemSpec s;
    s.name = "IsothermalCollapse";
    s.description =
        "chemistry-free collapse control with a near-isothermal EOS "
        "(gamma = 1.001 unless the deck sets another gamma)";
    s.make = [](const core::ParameterDeck& d) {
      // Runs before the collapse hooks: chemistry is off for their field
      // list check and their fill.
      core::ProblemSetup setup;
      setup.configure([](core::SimulationConfig& cfg) {
        cfg.enable_chemistry = false;
        // Only override the stock adiabatic default; an explicit deck Gamma
        // (anything below 1.6) is the user's choice of effective EOS.
        if (cfg.hydro.gamma > 1.6) cfg.hydro.gamma = 1.001;
      });
      return collapse_setup(std::move(setup), d);
    };
    s.smoke_deck =
        "TopGridDimensions = 8 8 8\n"
        "GravityEnabled = 1\n"
        "StopSteps = 1\n";
    r.add(std::move(s));
  }
}

}  // namespace enzo::problems
