// jacques_cli: a command-line descendant of "Jacques", the paper's §6
// interactive AMR explorer ("a GUI-based visualization tool which allows
// simultaneous interactive analysis of tens of thousands of grids ...
// navigation techniques had to be devised to simplify the identification of
// regions of interest ... Jacques has a 'zoom in by 10^10 button'!").
//
// This version explores a run through stdin commands.  It takes the
// parameter deck the run came from, so units and physics match it, and
// either the run's checkpoint or nothing (then it initializes the deck's
// problem and takes 2 root steps):
//
//   tree                 print the grid hierarchy
//   stats                hierarchy statistics (Fig. 5 numbers)
//   peak                 locate the densest point
//   zoom [factor]        shrink the view window about the current center
//   center <x> <y> <z>   move the view center
//   center peak          jump to the densest point ("region of interest")
//   slice [axis]         ASCII density slice of the current window
//   profile              radial profile about the current center
//   clumps [threshold]   find collapsed objects above the overdensity
//   save [file.pgm]      write the slice as an image
//   project [file.pgm]   write the surface density along the slice axis
//   quit
//
//   $ ./jacques_cli decks/first_star.enzo run.ckpt
//   $ ./jacques_cli decks/first_star.enzo          (no checkpoint: 2 steps)
//
// An unreadable deck or checkpoint exits 1 with `jacques_cli: error: ...`;
// a malformed command prints the command list.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/analysis.hpp"
#include "analysis/derived.hpp"
#include "core/parameter_file.hpp"
#include "io/checkpoint.hpp"
#include "io/image.hpp"

using namespace enzo;

namespace {

void print_slice(const analysis::Slice& s) {
  const char* shades = " .:-=+*#%@";
  for (int v = s.n - 1; v >= 0; v -= 2) {
    std::string row;
    for (int u = 0; u < s.n; ++u) {
      double f = (s.log10_density[static_cast<std::size_t>(v) * s.n + u] -
                  s.min_log) /
                 std::max(s.max_log - s.min_log, 1e-10);
      if (!std::isfinite(f)) f = 0;
      row += shades[static_cast<int>(std::clamp(f, 0.0, 1.0) * 9.999)];
    }
    std::printf("|%s|\n", row.c_str());
  }
  std::printf("log10(rho_code) in [%.2f, %.2f], finest level %d\n", s.min_log,
              s.max_log, s.finest_level_touched);
}

/// A whole-token number: false for "abc" or "0.5x".
bool parse_number(const std::string& tok, double* out) {
  try {
    std::size_t pos = 0;
    *out = std::stod(tok, &pos);
    return pos == tok.size();
  } catch (const std::exception&) {
    return false;
  }
}

/// Optional numeric argument: absent keeps *out; present must be a number.
bool optional_number(std::istringstream& ss, double* out) {
  std::string tok;
  return !(ss >> tok) || parse_number(tok, out);
}

struct View {
  ext::PosVec center{ext::pos_t(0.5), ext::pos_t(0.5), ext::pos_t(0.5)};
  double half = 0.5;
  int axis = 2;
};

/// Run one command line; false when it is malformed.
bool run_command(const std::string& line, core::Simulation& sim, View& v) {
  const mesh::Hierarchy& h = sim.hierarchy();
  std::istringstream ss(line);
  std::string cmd;
  ss >> cmd;
  if (cmd == "tree") {
    for (int l = 0; l <= h.deepest_level(); ++l)
      for (const mesh::Grid* g : h.grids(l))
        std::printf("%*sL%d #%llu %s (%lld cells, %zu particles)\n", 2 * l,
                    "", l, static_cast<unsigned long long>(g->id()),
                    g->box().str().c_str(),
                    static_cast<long long>(g->box().volume()),
                    g->particles().size());
  } else if (cmd == "stats") {
    const auto st = analysis::hierarchy_stats(h);
    std::printf("levels %d, grids %zu, cells %lld\n", st.max_level + 1,
                st.total_grids, static_cast<long long>(st.total_cells));
    for (std::size_t l = 0; l < st.grids_per_level.size(); ++l)
      std::printf("  L%zu: %zu grids, relative work %.3f\n", l,
                  st.grids_per_level[l], st.work_per_level[l]);
  } else if (cmd == "peak") {
    const auto p = analysis::find_densest_point(h);
    std::printf("densest point: (%.6f, %.6f, %.6f), rho = %g (level %d)\n",
                ext::pos_to_double(p.position[0]),
                ext::pos_to_double(p.position[1]),
                ext::pos_to_double(p.position[2]), p.density, p.level);
  } else if (cmd == "zoom") {
    double f = 10.0;
    if (!optional_number(ss, &f) || !(f > 0.0)) return false;
    v.half /= f;
    std::printf("window half-width now %.3g\n", v.half);
  } else if (cmd == "center") {
    std::string first;
    ss >> first;
    if (first == "peak") {
      v.center = analysis::find_densest_point(h).position;
    } else {
      double c[3];
      std::string y, z;
      if (!(ss >> y >> z) || !parse_number(first, &c[0]) ||
          !parse_number(y, &c[1]) || !parse_number(z, &c[2]))
        return false;
      for (int d = 0; d < 3; ++d) v.center[d] = ext::pos_t(c[d]);
    }
    std::printf("center = (%.6f, %.6f, %.6f)\n",
                ext::pos_to_double(v.center[0]),
                ext::pos_to_double(v.center[1]),
                ext::pos_to_double(v.center[2]));
  } else if (cmd == "slice") {
    double a = v.axis;
    if (!optional_number(ss, &a) || (a != 0 && a != 1 && a != 2))
      return false;
    v.axis = static_cast<int>(a);
    const std::array<double, 2> c2d = {
        ext::pos_to_double(v.center[(v.axis + 1) % 3]),
        ext::pos_to_double(v.center[(v.axis + 2) % 3])};
    print_slice(analysis::density_slice(h, v.axis, v.center[v.axis], c2d,
                                        v.half, 48));
  } else if (cmd == "profile") {
    analysis::ProfileOptions popt;
    popt.nbins = 14;
    popt.r_min = std::max(v.half * 2e-3, 1e-6);
    popt.r_max = v.half;
    auto prof = analysis::radial_profile(h, v.center, popt,
                                         sim.config().hydro, sim.chem_units());
    std::printf("%12s %14s %10s %10s\n", "r", "rho", "T [K]", "v_r");
    for (int b = 0; b < popt.nbins; ++b)
      if (prof.cell_count[b] > 0)
        std::printf("%12.5g %14.5g %10.4g %10.3f\n", prof.r[b],
                    prof.gas_density[b], prof.temperature[b],
                    prof.v_radial[b]);
  } else if (cmd == "save") {
    std::string path = "slice.pgm";
    ss >> path;
    const std::array<double, 2> c2d = {
        ext::pos_to_double(v.center[(v.axis + 1) % 3]),
        ext::pos_to_double(v.center[(v.axis + 2) % 3])};
    const auto s =
        analysis::density_slice(h, v.axis, v.center[v.axis], c2d, v.half, 256);
    io::write_slice_pgm(path, s);
    std::printf("wrote %s (256x256, log density in [%.2f, %.2f])\n",
                path.c_str(), s.min_log, s.max_log);
  } else if (cmd == "project") {
    std::string path = "projection.pgm";
    ss >> path;
    const auto p = analysis::surface_density(h, v.axis, 256);
    io::write_projection_pgm(path, p);
    std::printf("wrote %s (surface density, axis %d)\n", path.c_str(),
                v.axis);
  } else if (cmd == "clumps") {
    double thr = 2.0;
    if (!optional_number(ss, &thr)) return false;
    const auto clumps = analysis::find_clumps(h, thr);
    std::printf("%zu clump(s) above rho = %g:\n", clumps.size(), thr);
    for (std::size_t c = 0; c < clumps.size() && c < 10; ++c)
      std::printf("  #%zu mass %.4g peak %.4g at (%.4f, %.4f, %.4f)\n", c,
                  clumps[c].mass, clumps[c].peak_density,
                  ext::pos_to_double(clumps[c].center[0]),
                  ext::pos_to_double(clumps[c].center[1]),
                  ext::pos_to_double(clumps[c].center[2]));
  } else if (!cmd.empty()) {
    return false;
  }
  return true;
}

int run(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: %s <parameter-deck> [checkpoint]\n",
                 argv[0]);
    return 2;
  }
  const core::ParameterDeck deck = core::parse_parameter_file(argv[1]);
  core::Simulation sim(deck.config);
  if (argc > 2) {
    std::printf("loading checkpoint %s ...\n", argv[2]);
    core::configure_from_deck(sim, deck);
    io::read_checkpoint(sim, argv[2]);
  } else {
    std::printf("no checkpoint given: initializing %s and taking 2 root "
                "steps ...\n",
                deck.problem.c_str());
    core::setup_from_deck(sim, deck);
    for (int s = 0; s < 2; ++s) sim.advance_root_step();
  }
  const mesh::Hierarchy& h = sim.hierarchy();
  std::printf("loaded: t = %g, %d levels, %zu grids, %lld cells\n",
              sim.time_d(), h.deepest_level() + 1, h.total_grids(),
              static_cast<long long>(h.total_cells()));

  View view;
  std::string line;
  std::printf("jacques> ");
  while (std::getline(std::cin, line)) {
    std::string cmd;
    std::istringstream(line) >> cmd;
    if (cmd == "quit" || cmd == "q") break;
    if (!run_command(line, sim, view))
      std::printf("commands: tree stats peak zoom [factor] center <x y z|peak> "
                  "slice [axis] profile clumps [threshold] save [file] "
                  "project [file] quit\n");
    std::printf("jacques> ");
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Unreadable decks and checkpoints surface as exceptions: report, exit 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jacques_cli: error: %s\n", e.what());
    return 1;
  }
}
