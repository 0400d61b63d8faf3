// Figure 2 reproduction: "the order of timesteps for the SAMR example ...
// First the root grid is advanced, and then the subgrids 'catch-up'.  This
// permits the calculation of time-centered subgrid boundary conditions for
// higher temporal accuracy."
//
// A static three-level hierarchy is advanced one root step with W-cycle
// tracing on; the (level, t → t+dt) sequence is printed both as a list and
// as the Fig. 2 staircase diagram.

#include <cstdio>
#include <string>

#include "core/parameter_file.hpp"
#include "core/simulation.hpp"

using namespace enzo;

int main() {
  core::SimulationConfig cfg;
  cfg.hierarchy.root_dims = {16, 16, 16};
  cfg.hierarchy.max_level = 2;
  cfg.trace_wcycle = true;
  cfg.rebuild_interval = 1 << 20;  // keep the tree static for the figure
  core::Simulation sim(cfg);
  sim.add_static_region(1, {{8, 8, 8}, {24, 24, 24}});
  sim.add_static_region(2, {{24, 24, 24}, {40, 40, 40}});
  core::setup_from_deck(sim, core::ParameterDeck{});  // Uniform problem

  sim.advance_root_step();
  const auto& tr = sim.trace();
  const double t0 = tr.front().t0;
  const double dt0 = tr.front().dt;

  std::printf("order of timesteps (one root step, refinement factor 2):\n\n");
  std::printf("%4s %6s %12s %12s\n", "seq", "level", "t/dt_root", "dt/dt_root");
  for (std::size_t i = 0; i < tr.size(); ++i)
    std::printf("%4zu %6d %12.4f %12.4f\n", i, tr[i].level,
                (tr[i].t0 - t0) / dt0, tr[i].dt / dt0);

  // Staircase diagram: time axis in units of the finest step.
  std::printf("\nFig. 2 staircase (each '#' spans the step's time extent):\n");
  const int width = 32;
  for (int level = 0; level <= 2; ++level) {
    std::string row(width, ' ');
    int seq = 0;
    for (const auto& e : tr) {
      if (e.level != level) continue;
      const int lo = static_cast<int>((e.t0 - t0) / dt0 * width + 0.5);
      const int hi = static_cast<int>((e.t0 + e.dt - t0) / dt0 * width + 0.5);
      for (int c = lo; c < hi && c < width; ++c)
        row[static_cast<std::size_t>(c)] = seq % 2 ? '=' : '#';
      ++seq;
    }
    std::printf("  level %d: |%s|\n", level, row.c_str());
  }
  std::printf("\npaper: root advances once, children catch up recursively —\n"
              "the multigrid-W ordering; child steps sum *exactly* (in\n"
              "128-bit time) to the parent step.\n");
  return 0;
}
