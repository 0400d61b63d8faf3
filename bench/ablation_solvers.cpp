// Ablation: the two hydro solvers (§3.2.1).
//
// "We have implemented two: the piecewise parabolic method (PPM) ... as well
// as a robust finite difference technique [ZEUS].  This allows us a double
// check on any result."
//
// We run the same self-gravitating collapse with both solvers and compare
// collapse timing and envelope profiles — the "double check" — plus the Sod
// tube L1 errors quantifying the accuracy difference (PPM sharp, donor-cell
// ZEUS diffusive).

#include <cstdio>
#include <vector>

#include "collapse_common.hpp"
#include "mesh/boundary.hpp"

using namespace enzo;
using mesh::Field;

namespace {
struct Result {
  const char* name;
  double t_collapse_kyr = 0;
  std::vector<double> r, n;
};

Result run_collapse(hydro::Solver solver, const char* name) {
  auto run = bench::collapse_run_config(16, 3, /*chemistry=*/false);
  run.config.hydro.solver = solver;
  core::Simulation sim(run.config);
  core::setup_from_deck(sim, run);
  const double n_stop = 1e7;
  for (int s = 0; s < 50; ++s) {
    sim.advance_root_step();
    if (analysis::find_densest_point(sim.hierarchy()).density *
            sim.chem_units().n_factor >=
        n_stop)
      break;
  }
  Result out;
  out.name = name;
  out.t_collapse_kyr =
      sim.time_d() * sim.config().units.time_s / constants::kYear / 1e3;
  const auto peak = analysis::find_densest_point(sim.hierarchy());
  analysis::ProfileOptions popt;
  popt.nbins = 10;
  popt.r_min = 5e-3;
  popt.r_max = 0.4;
  auto prof = analysis::radial_profile(sim.hierarchy(), peak.position, popt,
                                       sim.config().hydro, sim.chem_units());
  out.r = prof.r;
  for (int b = 0; b < popt.nbins; ++b)
    out.n.push_back(prof.gas_density[b] * sim.chem_units().n_factor);
  return out;
}
}  // namespace

int main() {
  std::printf("=== collapse double-check: PPM vs ZEUS ===\n");
  Result ppm = run_collapse(hydro::Solver::kPpm, "PPM");
  Result zeus = run_collapse(hydro::Solver::kZeus, "ZEUS");
  std::printf("time to n_cen = 1e7 cm^-3:  PPM %.1f kyr,  ZEUS %.1f kyr "
              "(ratio %.2f)\n\n",
              ppm.t_collapse_kyr, zeus.t_collapse_kyr,
              zeus.t_collapse_kyr / ppm.t_collapse_kyr);
  std::printf("%10s %14s %14s %8s\n", "r [code]", "n(PPM)", "n(ZEUS)",
              "ratio");
  for (std::size_t b = 0; b < ppm.r.size(); ++b) {
    if (ppm.n[b] <= 0 || zeus.n[b] <= 0) continue;
    std::printf("%10.4f %14.4g %14.4g %8.2f\n", ppm.r[b], ppm.n[b], zeus.n[b],
                zeus.n[b] / ppm.n[b]);
  }

  std::printf("\n=== accuracy on the Sod tube (L1 density error vs exact "
              "plateau values) ===\n");
  // Quick L1 proxy: the post-shock plateau value at t=0.15.
  for (auto [solver, name] :
       {std::pair{hydro::Solver::kPpm, "PPM"},
        std::pair{hydro::Solver::kZeus, "ZEUS"}}) {
    core::SimulationConfig cfg;
    cfg.hierarchy.root_dims = {128, 1, 1};
    cfg.hierarchy.max_level = 0;
    cfg.hydro.gamma = 1.4;
    cfg.hydro.solver = solver;
    core::Simulation sim(cfg);
    core::ParameterDeck sod;
    sod.problem = "SodTube";
    core::setup_from_deck(sim, sod);
    sim.evolve_until(0.15, 10000);
    mesh::Grid* g = sim.hierarchy().grids(0)[0];
    // Exact at t=0.15: shock plateau 0.2656 on x∈(0.685,0.76); contact
    // plateau 0.4263 on (0.58,0.685).
    double err = 0;
    int cnt = 0;
    for (int i = 0; i < 128; ++i) {
      const double x = (i + 0.5) / 128;
      double ref = -1;
      if (x > 0.59 && x < 0.68) ref = 0.4263;
      if (x > 0.70 && x < 0.75) ref = 0.2656;
      if (ref < 0) continue;
      err += std::abs(g->field(Field::kDensity)(g->sx(i), 0, 0) - ref);
      ++cnt;
    }
    std::printf("  %-5s plateau L1 error: %.4f\n", name, err / cnt);
  }
  std::printf("\npaper's use: agreement of the two solvers on the science\n"
              "result validates it; PPM is the production solver, the\n"
              "finite-difference scheme the robust cross-check.\n");
  return 0;
}
