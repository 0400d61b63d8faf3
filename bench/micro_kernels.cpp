// Micro-benchmarks (google-benchmark) of the solver kernels: PPM sweeps,
// the ZEUS alternative, FFT, multigrid V-cycles, the chemistry network,
// CIC deposition, the subgrid boundary fill, and double–double arithmetic
// — the per-kernel numbers behind the §5 performance discussion.

#include <benchmark/benchmark.h>

#include <cmath>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "chemistry/chemistry.hpp"
#include "chemistry/rates.hpp"
#include "core/parameter_file.hpp"
#include "core/simulation.hpp"
#include "exec/exec_config.hpp"
#include "hydro/riemann.hpp"
#include "ext/dd.hpp"
#include "fft/fft.hpp"
#include "gravity/gravity.hpp"
#include "hydro/hydro.hpp"
#include "mesh/boundary.hpp"
#include "mesh/hierarchy.hpp"
#include "nbody/nbody.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

using namespace enzo;
using mesh::Field;

namespace {

mesh::Hierarchy hydro_box(int n, bool chem = false) {
  mesh::HierarchyParams p;
  p.root_dims = {n, n, n};
  if (chem) p.fields = mesh::chemistry_field_list();
  mesh::Hierarchy h(p);
  h.build_root();
  mesh::Grid* g = h.grids(0)[0];
  util::Rng rng(7);
  for (Field f : g->field_list()) {
    for (auto& v : g->field(f))
      v = mesh::is_density_like(f) ? 0.5 + rng.uniform()
                                   : 0.2 * rng.uniform(-1, 1);
  }
  g->field(Field::kInternalEnergy).fill(1.0);
  g->field(Field::kTotalEnergy).fill(1.1);
  return h;
}

void BM_PpmStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto h = hydro_box(n);
  mesh::Grid* g = h.grids(0)[0];
  hydro::HydroParams hp;
  auto exp = cosmology::Expansion::statics();
  mesh::set_boundary_values(h, 0);
  for (auto _ : state) {
    hydro::solve_hydro_step(*g, 1e-4, hp, exp);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_PpmStep)->Arg(16)->Arg(32);

void BM_ZeusStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto h = hydro_box(n);
  mesh::Grid* g = h.grids(0)[0];
  hydro::HydroParams hp;
  hp.solver = hydro::Solver::kZeus;
  auto exp = cosmology::Expansion::statics();
  mesh::set_boundary_values(h, 0);
  for (auto _ : state) hydro::solve_hydro_step(*g, 1e-4, hp, exp);
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_ZeusStep)->Arg(16)->Arg(32);

void BM_Fft3(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Array3<fft::cplx> a(n, n, n);
  util::Rng rng(3);
  for (auto& c : a) c = fft::cplx(rng.gaussian(), 0.0);
  for (auto _ : state) {
    fft::fft3(a, false);
    fft::fft3(a, true);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Fft3)->Arg(16)->Arg(32)->Arg(64);

void BM_MultigridSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Array3<double> rhs(n + 2, n + 2, n + 2, 0.0);
  util::Rng rng(5);
  for (int k = 1; k <= n; ++k)
    for (int j = 1; j <= n; ++j)
      for (int i = 1; i <= n; ++i) rhs(i, j, k) = rng.uniform(-1, 1);
  gravity::GravityParams p;
  for (auto _ : state) {
    util::Array3<double> phi(n + 2, n + 2, n + 2, 0.0);
    gravity::multigrid_solve(phi.view(), rhs.view(), 1.0 / n, p);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MultigridSolve)->Arg(16)->Arg(32);

void BM_ChemistryStep(benchmark::State& state) {
  auto h = hydro_box(8, true);
  mesh::Grid* g = h.grids(0)[0];
  chemistry::ChemistryParams prm;
  chemistry::initialize_primordial_composition(*g, prm, 1e-3, 1e-4);
  chemistry::ChemUnits u;
  u.n_factor = 1e4;
  u.rho_cgs = 1e4 * constants::kHydrogenMass;
  u.e_cgs = constants::kBoltzmann / constants::kHydrogenMass;
  for (auto& v : g->field(Field::kInternalEnergy)) v = 500.0;
  for (auto _ : state) chemistry::solve_chemistry_step(*g, 3.15e10, prm, u);
  state.SetItemsProcessed(state.iterations() * 8 * 8 * 8);
}
BENCHMARK(BM_ChemistryStep);

void BM_CicDeposit(benchmark::State& state) {
  auto h = hydro_box(16);
  mesh::Grid* g = h.grids(0)[0];
  g->allocate_gravity();
  util::Rng rng(11);
  for (int i = 0; i < 32768; ++i) {
    mesh::Particle p;
    p.x = {ext::pos_t(rng.uniform()), ext::pos_t(rng.uniform()),
           ext::pos_t(rng.uniform())};
    p.mass = 1.0 / 32768;
    g->particles().push_back(p);
  }
  for (auto _ : state) {
    g->gravitating_mass().fill(0.0);
    nbody::deposit_particles_cic(*g);
  }
  state.SetItemsProcessed(state.iterations() * 32768);
}
BENCHMARK(BM_CicDeposit);

void BM_DdArithmetic(benchmark::State& state) {
  using enzo::ext::dd;
  dd acc(1.0), x(1.0 + 1e-12);
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) acc = acc * x + dd(1e-20);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DdArithmetic);

void BM_DoubleArithmetic(benchmark::State& state) {
  double acc = 1.0, x = 1.0 + 1e-12;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) acc = acc * x + 1e-20;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DoubleArithmetic);

void BM_RiemannBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(17);
  std::vector<double> rho_l(n), u_l(n), p_l(n), rho_r(n), u_r(n), p_r(n);
  std::vector<double> rho(n), u(n), p(n), pstar(n), ustar(n);
  std::vector<double> cl(n), cr(n), wl(n), wr(n);
  for (int f = 0; f < n; ++f) {
    rho_l[f] = 0.5 + rng.uniform();
    rho_r[f] = 0.5 + rng.uniform();
    p_l[f] = 0.1 + rng.uniform();
    p_r[f] = 0.1 + rng.uniform();
    u_l[f] = rng.uniform(-1, 1);
    u_r[f] = rng.uniform(-1, 1);
  }
  const hydro::RiemannBatch b{rho_l.data(), u_l.data(),   p_l.data(),
                              rho_r.data(), u_r.data(),   p_r.data(),
                              rho.data(),   u.data(),     p.data(),
                              pstar.data(), ustar.data(), cl.data(),
                              cr.data(),    wl.data(),    wr.data()};
  for (auto _ : state) {
    hydro::riemann_two_shock_batch(0, n - 1, b, 5.0 / 3.0);
    benchmark::DoNotOptimize(rho.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RiemannBatch)->Arg(256);

void BM_RateBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> T(n);
  for (int i = 0; i < n; ++i)
    T[i] = std::pow(10.0, 1.0 + 5.0 * i / (n - 1.0));  // 10 K .. 1e6 K
  chemistry::RateBatch batch;
  for (auto _ : state) {
    batch.compute(n, T.data());
    benchmark::DoNotOptimize(batch.row(0).k1);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RateBatch)->Arg(256);

// Level-1 boundary fill (parent interpolation of the ghost cells no sibling
// covers, then sibling copies) on the Sedov deck evolved 23 root steps past
// its first regrid: about 60 small subgrids around the shock shell.  The
// fill is idempotent (it reads only parent and sibling active cells), so
// every iteration does the same work.  Items are ghost cells filled.
void BM_BoundaryFill(benchmark::State& state) {
  static core::Simulation* sim = [] {
    core::ParameterDeck deck = core::parse_parameter_file(
        std::string(ENZO_SOURCE_DIR) + "/decks/sedov.enzo");
    deck.config.exec.threads = 4;
    deck.config.exec.backend = exec::Backend::kThreadPool;
    auto* s = new core::Simulation(deck.config);
    core::setup_from_deck(*s, deck);
    for (int step = 0; step < 23; ++step) s->advance_root_step();
    return s;
  }();
  mesh::Hierarchy& h = sim->hierarchy();
  std::int64_t ghosts = 0;
  for (const mesh::Grid* g : h.grids(1))
    ghosts += std::int64_t(g->nt(0)) * g->nt(1) * g->nt(2) -
              std::int64_t(g->nx(0)) * g->nx(1) * g->nx(2);
  state.counters["grids"] = static_cast<double>(h.num_grids(1));
  for (auto _ : state) mesh::set_boundary_values(h, 1);
  state.SetItemsProcessed(state.iterations() * ghosts);
}
BENCHMARK(BM_BoundaryFill)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Reporter: collect finalized per-kernel throughput (cells/sec) and write it
// to BENCH_micro_kernels.json alongside the usual console table.  The
// `items_per_second` counter is finalized by the framework (kIsRate) before
// ReportRuns, so the values here match the console column exactly.
// ---------------------------------------------------------------------------

struct KernelStats {
  double cells_per_second = 0.0;
  double cpu_seconds_per_iteration = 0.0;
};

class ThroughputCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      KernelStats s;
      auto it = r.counters.find("items_per_second");
      if (it != r.counters.end()) s.cells_per_second = it->second.value;
      if (r.iterations > 0)
        s.cpu_seconds_per_iteration =
            r.cpu_accumulated_time / static_cast<double>(r.iterations);
      stats_[r.benchmark_name()] = s;
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  const std::map<std::string, KernelStats>& stats() const { return stats_; }

 private:
  std::map<std::string, KernelStats> stats_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ThroughputCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  std::ofstream out("BENCH_micro_kernels.json");
  out << "{\n  \"kernels\": {\n";
  bool first = true;
  for (const auto& [name, s] : reporter.stats()) {
    if (!first) out << ",\n";
    first = false;
    out << "    \"" << name << "\": {\"cells_per_second\": "
        << s.cells_per_second
        << ", \"cpu_seconds_per_iteration\": " << s.cpu_seconds_per_iteration
        << "}";
  }
  out << "\n  }\n}\n";
  benchmark::Shutdown();
  return 0;
}
