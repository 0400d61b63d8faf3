#pragma once
// Shared driver for the figure-reproduction benches: the scaled first-star
// collapse run (DESIGN.md substitution table) with configurable depth.

#include "analysis/analysis.hpp"
#include "core/parameter_file.hpp"
#include "core/simulation.hpp"
#include "nbody/nbody.hpp"

namespace enzo::bench {

/// decks/first_star.enzo (the CollapseCloud cloud of the §4 collapse) at a
/// bench's root size and depth.  Benches adjust the returned deck's config
/// and run `core::setup_from_deck(sim, run)` (or extend
/// `core::deck_problem_setup(run)` with extra hooks).
inline core::ParameterDeck collapse_run_config(int root_n, int max_level,
                                               bool chemistry,
                                               bool with_dark_matter = false) {
  core::ParameterDeck r =
      core::parse_parameter_file(ENZO_SOURCE_DIR "/decks/first_star.enzo");
  auto& cfg = r.config;
  cfg.hierarchy.root_dims = {root_n, root_n, root_n};
  cfg.hierarchy.max_level = max_level;
  cfg.hierarchy.fields = chemistry ? mesh::chemistry_field_list()
                                   : core::SimulationConfig{}.hierarchy.fields;
  cfg.refinement.baryon_mass_threshold =
      4.0 / (static_cast<double>(root_n) * root_n * root_n);
  cfg.enable_chemistry = chemistry;
  cfg.enable_particles = with_dark_matter;
  return r;
}

/// Add a coarse dark-matter halo (static uniform-lattice particles carrying
/// an extra potential like the §4 minihalo) for the component-timing table.
inline void add_dark_matter(core::Simulation& sim, int n_per_axis,
                            double total_mass) {
  std::array<util::Array3<double>, 3> psi;
  for (auto& a : psi) a.resize(n_per_axis, n_per_axis, n_per_axis, 0.0);
  nbody::create_lattice_particles(*sim.hierarchy().grids(0)[0], n_per_axis,
                                  psi, 0.0, 0.0, total_mass);
  nbody::redistribute_particles(sim.hierarchy());
}

}  // namespace enzo::bench
