// Problem "ZeldovichPancake": single-mode cosmological collapse through the
// comoving machinery (§3.2's cosmology-hydro verification test).  While the
// mode is pre-caustic the flow is exactly the Zel'dovich solution — the l1
// callback inverts the Lagrangian map at the current growth factor and
// compares the root-level density against 1 + delta(x), so the regression
// harness gates the comoving Euler + expansion-source path against an exact
// cosmological solution, not just linear theory.

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/reference.hpp"
#include "cosmology/grf.hpp"
#include "problems/detail.hpp"
#include "problems/registry.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"

namespace enzo::problems {

namespace {

namespace cn = constants;
using mesh::Field;
using mesh::Grid;

/// Single sinusoidal perturbation collapsing to a caustic at
/// a_caustic (1-d comoving problem).
core::ProblemSetup pancake_setup(const core::ParameterDeck& d) {
  const double a_caustic_redshift = d.pancake.a_caustic_redshift;
  const double box_cm = d.comoving_box_mpc
                            ? *d.comoving_box_mpc * cn::kMpc
                            : 64.0 * 3.0857e24;  // 64 Mpc
  const double temperature = d.initial_temperature.value_or(100.0);
  core::ProblemSetup setup;
  setup.configure([box_cm](core::SimulationConfig& cfg) {
    cfg.comoving = true;
    cfg.enable_gravity = true;
    cfg.enable_chemistry = false;
    cosmology::Frw frw(cfg.frw);
    cfg.units = cosmology::CodeUnits::cosmological(frw, box_cm);
    cfg.gravity.grav_const_code = 1.0;
    cfg.gravity.mean_density = 1.0;
    ENZO_REQUIRE(cfg.hierarchy.root_dims[1] == 1 &&
                     cfg.hierarchy.root_dims[2] == 1,
                 "pancake is one-dimensional");
  });
  setup.fill([a_caustic_redshift, temperature](core::Simulation& sim) {
    auto& cfg = sim.config();
    cosmology::Frw frw(cfg.frw);
    const double a_i = cosmology::Frw::a_of_z(cfg.initial_redshift);
    const double a_c = cosmology::Frw::a_of_z(a_caustic_redshift);
    const double d_i = frw.growth_factor(a_i);
    const double d_c = frw.growth_factor(a_c);
    // ψ(q) = −A sin(2πq); caustic when D·A·2π = 1.
    const double amp = 1.0 / (cn::kTwoPi * d_c);
    const double vfac =
        cosmology::zeldovich_velocity_factor(frw, cfg.units, a_i);
    for (Grid* g : sim.hierarchy().grids(0)) {
      const mesh::FieldView rho = g->field(Field::kDensity);
      const mesh::FieldView vx = g->field(Field::kVelocityX);
      const mesh::FieldView ei = g->field(Field::kInternalEnergy);
      const mesh::FieldView et = g->field(Field::kTotalEnergy);
      g->field(Field::kVelocityY).fill(0.0);
      g->field(Field::kVelocityZ).fill(0.0);
      for (int i = 0; i < g->nt(0); ++i) {
        const std::int64_t gi = g->box().lo[0] + (i - g->ng(0));
        const std::int64_t n = g->spec().level_dims[0];
        const double q = (static_cast<double>(((gi % n) + n) % n) + 0.5) /
                         static_cast<double>(n);
        const double psi = -amp * std::sin(cn::kTwoPi * q);
        // Linear-theory Eulerian density: δ = −D dψ/dq.
        const double delta =
            d_i * amp * cn::kTwoPi * std::cos(cn::kTwoPi * q);
        rho(i, 0, 0) = std::max(1.0 + delta, 0.05);
        // vfac already contains D(a_i).
        vx(i, 0, 0) = vfac * psi;
        const double e =
            detail::eint_code(temperature, 1.22, cfg.hydro.gamma, cfg.units);
        ei(i, 0, 0) = e;
        et(i, 0, 0) = e + 0.5 * vx(i, 0, 0) * vx(i, 0, 0);
      }
    }
  });
  return setup;
}

}  // namespace

void register_zeldovich_pancake(Registry& r) {
  ProblemSpec s;
  s.name = "ZeldovichPancake";
  s.description =
      "Zel'dovich pancake: sinusoidal mode collapsing to a caustic "
      "(requires ComovingCoordinates = 1; exact pre-caustic reference)";
  s.make = pancake_setup;
  s.l1_density_error = [](const core::Simulation& sim,
                          const core::ParameterDeck& d) {
    const auto& cfg = sim.config();
    cosmology::Frw frw(cfg.frw);
    // The setup normalizes the mode so the caustic forms at a_caustic:
    // A = 1 / (2 pi D(a_c)).
    const double a_c = cosmology::Frw::a_of_z(d.pancake.a_caustic_redshift);
    analysis::ZeldovichMode m;
    m.amplitude = 1.0 / (constants::kTwoPi * frw.growth_factor(a_c));
    m.growth = frw.growth_factor(sim.scale_factor());
    // Past the caustic the Lagrangian map folds: no single-stream solution.
    if (m.growth * constants::kTwoPi * m.amplitude >= 1.0)
      return std::numeric_limits<double>::quiet_NaN();
    double l1 = 0.0;
    std::int64_t n = 0;
    detail::for_each_root_density(
        sim, [&](double x, double, double, double rho) {
          l1 += std::abs(rho - (1.0 + analysis::zeldovich_delta(m, x)));
          ++n;
        });
    return l1 / static_cast<double>(n);
  };
  s.smoke_deck =
      "TopGridDimensions = 32 1 1\n"
      "ComovingCoordinates = 1\n"
      "HubbleConstantNow = 0.5\n"
      "OmegaMatterNow = 1.0\n"
      "OmegaBaryonNow = 1.0\n"
      "InitialRedshift = 30\n"
      "PancakeCausticRedshift = 3\n"
      "StopSteps = 1\n";
  r.add(std::move(s));
}

}  // namespace enzo::problems
