// Figure 4 reproduction: "Radial profiles of mass-weighted spherical
// averages about the densest point in the cloud of various physical
// quantities at seven different output times": particle number density
// (panel A), enclosed gas mass (B), H I / H₂ mass fractions (C),
// temperature (D), and radial velocity with the sound speed (E).
//
// Outputs trigger on the rising central density, like the paper's sequence
// (z=19, +9 Myr, +0.3 Myr, ... +200 yr — each at ~an order of magnitude
// higher central density).  Pass --jeans N to sweep the N_J refinement
// criterion (§3.2.3 reports robustness for N_J = 4…64).

#include <cstdio>
#include <cstring>

#include "collapse_common.hpp"

using namespace enzo;

int main(int argc, char** argv) {
  double jeans = 4.0;
  int max_level = 4;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--jeans") && i + 1 < argc)
      jeans = std::atof(argv[++i]);
    if (!std::strcmp(argv[i], "--levels") && i + 1 < argc)
      max_level = std::atoi(argv[++i]);
  }

  auto run = bench::collapse_run_config(16, max_level, /*chemistry=*/true);
  run.config.refinement.jeans_number = jeans;
  core::Simulation sim(run.config);
  core::setup_from_deck(sim, run);

  const double box_pc = sim.config().units.length_cm / constants::kParsec;
  const double mass_msun =
      sim.config().units.mass_g() / constants::kSolarMass;
  const double t_kyr = sim.config().units.time_s / constants::kYear / 1e3;

  std::printf("Fig. 4 (scaled): N_J = %g, max_level = %d, box = %.1f pc\n",
              jeans, max_level, box_pc);
  std::printf("paper outputs: seven times from z=19 to +200 yr (six here: the scaled\nrun saturates its max_level resolution near 1e11 cm^-3), central n "
              "10^0 → 10^13 cm^-3\n\n");

  double next_n = 4.0 * analysis::find_densest_point(sim.hierarchy()).density *
                  sim.chem_units().n_factor;
  int outputs = 0;
  double t_prev = sim.time_d();
  // March in small time slices so the output cadence resolves the final
  // runaway (where one root CFL step can cover decades of central density).
  const double dt_slice = 0.02;
  for (int step = 0; step < 200 && outputs < 6; ++step) {
    sim.evolve_until(sim.time_d() + dt_slice, 100);
    const auto peak = analysis::find_densest_point(sim.hierarchy());
    const double n_cen = peak.density * sim.chem_units().n_factor;
    if (n_cen < next_n) continue;
    next_n = 6.0 * n_cen;
    ++outputs;

    analysis::ProfileOptions popt;
    popt.nbins = 24;
    popt.r_min = 2e-4;
    popt.r_max = 0.5;
    auto prof = analysis::radial_profile(sim.hierarchy(), peak.position, popt,
                                         sim.config().hydro,
                                         sim.chem_units());
    std::printf("=== output %d: t = %.1f kyr (+%.2f kyr), central n = %.3g "
                "cm^-3, max level %d ===\n",
                outputs, sim.time_d() * t_kyr,
                (sim.time_d() - t_prev) * t_kyr, n_cen,
                sim.hierarchy().deepest_level());
    t_prev = sim.time_d();
    std::printf("%10s %11s %12s %9s %9s %9s %8s %8s\n", "r [pc]",
                "A:n[cm^-3]", "B:M(<r)[Mo]", "C:f_HI", "C:f_H2", "D:T[K]",
                "E:v_r", "E:c_s");
    for (int b = 0; b < popt.nbins; ++b) {
      if (prof.cell_count[b] == 0) continue;
      std::printf("%10.4g %11.4g %12.4g %9.3f %9.2e %9.3g %8.3f %8.3f\n",
                  prof.r[b] * box_pc,
                  prof.gas_density[b] * sim.chem_units().n_factor,
                  prof.enclosed_gas_mass[b] * mass_msun, prof.hi_fraction[b],
                  prof.h2_fraction[b], prof.temperature[b], prof.v_radial[b],
                  prof.sound_speed[b]);
    }
    std::printf("\n");
  }

  std::printf(
      "shape checks vs the paper:\n"
      " A: envelope density ~ r^-2.2 power law around the collapsing core\n"
      " C: f_H2 ~ 1e-3 in the 'primordial molecular cloud', rising in the\n"
      "    core once three-body formation kicks in (n > 1e9 cm^-3)\n"
      " D: a few hundred K in the cooled envelope; core warms during the\n"
      "    final runaway\n"
      " E: inward v_r growing toward the core, approaching/exceeding c_s\n"
      "    (supersonic infall) at late outputs\n");
  return 0;
}
