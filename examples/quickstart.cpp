// Quickstart: the smallest complete enzo-mini program, and the API behind
// run_deck.
//
// Describes a self-gravitating overdense cloud in a periodic box as a
// parameter deck, lets the adaptive mesh refine where the Jeans criterion
// demands it, advances a few coarse-grid timesteps, and prints what the
// hierarchy did: deck text → Simulation(deck.config) → setup_from_deck →
// advance.
//
//   $ ./quickstart

#include <cstdio>
#include <sstream>

#include "analysis/analysis.hpp"
#include "core/parameter_file.hpp"
#include "core/simulation.hpp"

int main() {
  using namespace enzo;

  // 1. Describe the run: a 16³ root grid, up to 2 refined levels, refining
  //    on gas mass and on the Jeans-length criterion (§3.2.3); the problem
  //    is a 10× overdense cloud in a 4 pc box (pure hydro + gravity here;
  //    decks/first_star.enzo adds the chemistry).  Any decks/*.enzo file
  //    parses the same way (core::parse_parameter_file).
  std::istringstream text(R"(
ProblemType            = CollapseCloud
TopGridDimensions      = 16 16 16
MaximumRefinementLevel = 2
RefineByBaryonMass     = 0.0009765625
RefineByJeansLength    = 4
GravityEnabled         = 1
BoxSizeParsec          = 4.0
BackgroundDensityCGS   = 1e-19
CloudOverdensity       = 10.0
CloudRadius            = 0.25
InitialTemperature     = 100
)");
  const core::ParameterDeck deck = core::parse_parameter_deck(text);

  // 2. Build the simulation from the deck's config, then let the problem
  //    registry initialize it.
  core::Simulation sim(deck.config);
  core::setup_from_deck(sim, deck);

  std::printf("initial hierarchy: %d levels, %zu grids, %lld cells\n",
              sim.hierarchy().deepest_level() + 1,
              sim.hierarchy().total_grids(),
              static_cast<long long>(sim.hierarchy().total_cells()));

  // 3. Evolve a few root timesteps; the hierarchy rebuilds itself each step.
  for (int step = 0; step < 5; ++step) {
    const double dt = sim.advance_root_step();
    const auto peak = analysis::find_densest_point(sim.hierarchy());
    const auto st = analysis::hierarchy_stats(sim.hierarchy());
    std::printf(
        "step %d: dt=%.3f  t=%.3f  peak density=%.1f (level %d)  "
        "levels=%d grids=%zu\n",
        step, dt, sim.time_d(), peak.density, peak.level, st.max_level + 1,
        st.total_grids);
  }

  // 4. Ask a physics question: the radial density profile about the peak.
  const auto peak = analysis::find_densest_point(sim.hierarchy());
  analysis::ProfileOptions popt;
  popt.nbins = 12;
  popt.r_min = 0.01;
  popt.r_max = 0.45;
  hydro::HydroParams hp;
  auto prof = analysis::radial_profile(sim.hierarchy(), peak.position, popt,
                                       hp, sim.chem_units());
  std::printf("\nradial profile about the density peak:\n");
  std::printf("%12s %14s %14s\n", "r [code]", "density [code]", "v_r [code]");
  for (int b = 0; b < popt.nbins; ++b)
    if (prof.cell_count[b] > 0)
      std::printf("%12.4f %14.4f %14.4f\n", prof.r[b], prof.gas_density[b],
                  prof.v_radial[b]);
  return 0;
}
