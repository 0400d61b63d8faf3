#pragma once
// Shared helpers for the per-problem registration TUs.

#include <cstdint>

#include "core/problem_setup.hpp"
#include "core/simulation.hpp"
#include "cosmology/units.hpp"
#include "mesh/grid.hpp"

namespace enzo::problems::detail {

/// Specific internal energy (code units) for temperature T and mean
/// molecular weight mu.
double eint_code(double T, double mu, double gamma,
                 const cosmology::CodeUnits& u);

/// Fill hook: a uniform medium at rest (density rho, specific internal
/// energy eint) on every root grid, with primordial composition when the
/// run has chemistry.
core::ProblemSetup::SimHook uniform_fill(double rho, double eint);

/// Visit every interior root-level cell: fn(x, y, z, rho) with unit-box
/// cell-center coordinates.  The root level is the right place to measure
/// L1 errors for unigrid and AMR runs alike — children project their
/// conserved averages into their parents after every step, so the root
/// holds the (conservatively averaged) refined solution.
template <class Fn>
void for_each_root_density(const core::Simulation& sim, Fn&& fn) {
  for (const mesh::Grid* g : sim.hierarchy().grids(0)) {
    const auto rho = g->field(mesh::Field::kDensity);
    const auto& ld = g->spec().level_dims;
    for (int k = 0; k < g->nx(2); ++k)
      for (int j = 0; j < g->nx(1); ++j)
        for (int i = 0; i < g->nx(0); ++i) {
          const double x =
              (static_cast<double>(g->box().lo[0] + i) + 0.5) / ld[0];
          const double y =
              (static_cast<double>(g->box().lo[1] + j) + 0.5) / ld[1];
          const double z =
              (static_cast<double>(g->box().lo[2] + k) + 0.5) / ld[2];
          fn(x, y, z, rho(g->sx(i), g->sy(j), g->sz(k)));
        }
  }
}

}  // namespace enzo::problems::detail
