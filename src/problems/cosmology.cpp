// Problem "Cosmology": the paper's production configuration — a
// standard-CDM box with Gaussian-random-field baryons + Zel'dovich-displaced
// dark matter, optionally with nested static refinement levels (§4).  No
// closed-form reference exists, so this problem ships no l1 callback; it is
// verified by the invariant auditor and the linear-growth checks in
// tests/cosmology_test.cpp.

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "chemistry/chemistry.hpp"
#include "cosmology/grf.hpp"
#include "cosmology/power_spectrum.hpp"
#include "nbody/nbody.hpp"
#include "problems/detail.hpp"
#include "problems/registry.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"

namespace enzo::problems {

namespace {

namespace cn = constants;
using mesh::Field;
using mesh::Grid;

/// Write gas fields on a grid from full-box δ/ψ lattices realized at the
/// grid's own level resolution.
void fill_gas_from_realization(Grid& g, const cosmology::GrfOutput& real,
                               double growth, double vfac, double rho_mean,
                               double eint) {
  const mesh::FieldView rho = g.field(Field::kDensity);
  const mesh::FieldView et = g.field(Field::kTotalEnergy);
  const mesh::FieldView ei = g.field(Field::kInternalEnergy);
  const mesh::FieldView vel[3] = {g.field(Field::kVelocityX),
                                  g.field(Field::kVelocityY),
                                  g.field(Field::kVelocityZ)};
  const int n = real.delta.nx();
  for (int k = 0; k < g.nt(2); ++k)
    for (int j = 0; j < g.nt(1); ++j)
      for (int i = 0; i < g.nt(0); ++i) {
        // Global lattice index with periodic wrap (ghosts included so the
        // first boundary exchange starts consistent).
        auto wrap = [&](std::int64_t v, std::int64_t dims) {
          return static_cast<int>(((v % dims) + dims) % dims);
        };
        const int gi = wrap(g.box().lo[0] + (i - g.ng(0)),
                            g.spec().level_dims[0]) % n;
        const int gj = wrap(g.box().lo[1] + (j - g.ng(1)),
                            g.spec().level_dims[1]) % n;
        const int gk = wrap(g.box().lo[2] + (k - g.ng(2)),
                            g.spec().level_dims[2]) % n;
        const double d = growth * real.delta(gi, gj, gk);
        rho(i, j, k) = rho_mean * std::max(1.0 + d, 0.05);
        for (int c = 0; c < 3; ++c)
          vel[c](i, j, k) = vfac * real.psi[c](gi, gj, gk);
        double v2 = 0;
        for (int c = 0; c < 3; ++c)
          v2 += vel[c](i, j, k) * vel[c](i, j, k);
        ei(i, j, k) = eint;
        et(i, j, k) = eint + 0.5 * v2;
      }
}

/// What both the fill and the refine hook derive from the config to realize
/// the initial conditions.  The generator refers to frw and ps, so the
/// object is built in place and never copied or moved.
struct InitialConditions {
  InitialConditions(const core::SimulationConfig& cfg, double box_cm,
                    std::uint64_t seed)
      : frw(cfg.frw), ps(frw), gen(frw, ps, box_cm, seed) {
    const double a_i = cosmology::Frw::a_of_z(cfg.initial_redshift);
    growth = frw.growth_factor(a_i);
    // Note: the velocity factor already contains D(a_i) (v = a D f H ψ).
    vfac = cosmology::zeldovich_velocity_factor(frw, cfg.units, a_i);
    // Gas temperature: CMB-coupled until z ≈ 100, adiabatic (∝ a⁻²) after.
    const double z_i = cfg.initial_redshift;
    const double T_i = z_i >= 100.0
                           ? cn::kTcmb0 * (1.0 + z_i)
                           : cn::kTcmb0 * 101.0 *
                                 std::pow((1.0 + z_i) / 101.0, 2.0);
    fb = cfg.frw.omega_baryon / cfg.frw.omega_matter;
    e0 = detail::eint_code(T_i, 1.22, cfg.hydro.gamma, cfg.units);
  }
  InitialConditions(const InitialConditions&) = delete;
  InitialConditions& operator=(const InitialConditions&) = delete;

  cosmology::Frw frw;
  cosmology::PowerSpectrum ps;
  cosmology::InitialConditionsGenerator gen;
  double growth = 0.0;  ///< linear growth D(a_i)
  double vfac = 0.0;    ///< ψ → peculiar velocity (code units)
  double fb = 0.0;      ///< baryon fraction Ω_b / Ω_m
  double e0 = 0.0;      ///< initial specific internal energy (code units)
};

/// Comoving CDM box; cfg.hierarchy.root_dims, frw and initial_redshift
/// must be set.  Fills cfg.units, builds the root grid, fields and
/// particles, and (if requested) the nested static levels with
/// mode-consistent small-scale power.
core::ProblemSetup cosmology_setup(const core::ParameterDeck& d) {
  const core::CosmologyOptions opt = d.cosmology;
  // 128 comoving kpc; residual x_e from recombination.
  const double box_cm = d.comoving_box_mpc
                            ? *d.comoving_box_mpc * cn::kMpc
                            : 128.0 * 3.0857e21;
  const double ionization = d.initial_ionization.value_or(2e-4);
  const double h2_fraction = d.initial_h2_fraction.value_or(2e-6);
  core::ProblemSetup setup;
  setup.configure([box_cm](core::SimulationConfig& cfg) {
    ENZO_REQUIRE(cfg.comoving,
                 "problem Cosmology requires ComovingCoordinates = 1");
    cosmology::Frw frw(cfg.frw);
    cfg.units = cosmology::CodeUnits::cosmological(frw, box_cm);
    cfg.gravity.grav_const_code = cfg.units.grav_const_code;
    cfg.gravity.mean_density = 1.0;
  });
  setup.fill([opt, box_cm, ionization, h2_fraction](core::Simulation& sim) {
    auto& cfg = sim.config();
    const InitialConditions ic(cfg, box_cm, opt.seed);
    const int n_root = static_cast<int>(cfg.hierarchy.root_dims[0]);
    auto real0 = ic.gen.realize(n_root, {0, 0, 0}, 1.0);
    for (Grid* g : sim.hierarchy().grids(0)) {
      fill_gas_from_realization(*g, real0, ic.growth, ic.vfac, ic.fb, ic.e0);
      if (cfg.enable_chemistry)
        chemistry::initialize_primordial_composition(
            *g, cfg.chemistry, ionization, h2_fraction);
    }

    // Dark matter lattice with the same displacement field, one particle
    // per root cell.
    if (cfg.enable_particles)
      nbody::create_lattice_particles(*sim.hierarchy().grids(0)[0], n_root,
                                      real0.psi, ic.growth, ic.vfac,
                                      1.0 - ic.fb);

    // Nested static levels over a shrinking central region (§4).
    const int r = cfg.hierarchy.refine_factor;
    for (int l = 1; l <= opt.nested_static_levels; ++l) {
      const std::int64_t dims =
          n_root * static_cast<std::int64_t>(std::pow(r, l));
      const std::int64_t width = dims >> l;  // half per level
      const std::int64_t lo = dims / 2 - width / 2;
      sim.add_static_region(
          l, {{lo, lo, lo}, {lo + width, lo + width, lo + width}});
    }
  });
  // Overwrite static-level data with mode-consistent finer realizations
  // ("capture as many small-wavelength modes ... as possible").
  setup.refine([opt, box_cm, ionization, h2_fraction](core::Simulation& sim) {
    auto& cfg = sim.config();
    const InitialConditions ic(cfg, box_cm, opt.seed);
    for (int l = 1; l <= std::min(opt.nested_static_levels,
                                  sim.hierarchy().deepest_level());
         ++l) {
      const int n_eff = static_cast<int>(sim.hierarchy().level_dims(l)[0]);
      auto real_l = ic.gen.realize(n_eff, {0, 0, 0}, 1.0);
      for (Grid* g : sim.hierarchy().grids(l)) {
        fill_gas_from_realization(*g, real_l, ic.growth, ic.vfac, ic.fb,
                                  ic.e0);
        if (cfg.enable_chemistry)
          chemistry::initialize_primordial_composition(
              *g, cfg.chemistry, ionization, h2_fraction);
        g->store_old_fields();
      }
    }
  });
  return setup;
}

}  // namespace

void register_cosmology(Registry& r) {
  ProblemSpec s;
  s.name = "Cosmology";
  s.description =
      "CDM box: GRF baryons + Zel'dovich dark matter, optional nested "
      "static levels (requires ComovingCoordinates = 1)";
  s.make = cosmology_setup;
  s.smoke_deck =
      "TopGridDimensions = 8 8 8\n"
      "ComovingCoordinates = 1\n"
      "HubbleConstantNow = 0.5\n"
      "OmegaMatterNow = 1.0\n"
      "OmegaBaryonNow = 0.06\n"
      "OmegaLambdaNow = 0.0\n"
      "InitialRedshift = 30\n"
      "ComovingBoxSizeMpc = 1.0\n"
      "GravityEnabled = 1\n"
      "ParticlesEnabled = 1\n"
      "StopSteps = 1\n";
  r.add(std::move(s));
}

}  // namespace enzo::problems
