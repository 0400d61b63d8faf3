// Overlap-topology bench: evolve the scaled collapse so the hierarchy has a
// real multi-level grid population, then time the three hot overlap
// queries — boundary fill, particle finest-owner lookup, and the
// distributed sibling-exchange planner — through the regrid-cached neighbor
// lists versus the all-pairs reference scans of tests/support/oracles.hpp.
// Emits BENCH_overlap_topology.json (per-consumer seconds for both paths,
// speedups, cache build time and link counts) for regression tracking, and
// exits 1 when the two exchange plans differ.

#include <cstdio>
#include <string>
#include <vector>

#include "collapse_common.hpp"
#include "mesh/boundary.hpp"
#include "mesh/interpolate.hpp"
#include "mesh/topology.hpp"
#include "parallel/distributed_hierarchy.hpp"
#include "perf/json.hpp"
#include "support/oracles.hpp"
#include "util/timer.hpp"

using namespace enzo;

namespace {

constexpr int kRepeats = 40;

struct ConsumerTimes {
  double boundary = 0.0;
  double owner = 0.0;
  double exchange_plan = 0.0;
  std::size_t owned = 0;  ///< particles whose finest owner is their grid
  std::vector<parallel::ExchangeBlock> plan;  ///< last plan, all levels
};

/// The boundary fill driven by the all-pairs sibling enumeration:
/// interpolate every ghost from the parent, then copy every overlap.
void all_pairs_boundary_fill(mesh::Hierarchy& h, int level) {
  const auto grids = h.grids(level);
  for (std::size_t i = 0; i < grids.size(); ++i) {
    mesh::Grid* g = grids[i];
    if (level > 0)
      mesh::fill_ghosts_from_parent(*g, *g->parent());
    else if (!h.params().periodic)
      mesh::fill_outflow_ghosts(*g);
    for (const mesh::SiblingLink& ln : oracle::sibling_links(h, level, i))
      if (!ln.overlap.empty()) g->copy_from_sibling(*grids[ln.src], ln.shift);
  }
}

/// Time the overlap queries `kRepeats` times over the evolved hierarchy.
/// On the cached side the topology is already built, so every query hits
/// the generation-keyed cache — the steady state the per-step code sees
/// between rebuilds.
ConsumerTimes time_consumers(mesh::Hierarchy& h, bool cached) {
  ConsumerTimes t;
  const mesh::OverlapTopology& topo = h.topology();
  for (int rep = 0; rep < kRepeats; ++rep) {
    {
      util::Stopwatch sw;
      for (int l = 0; l <= h.deepest_level(); ++l) {
        if (cached)
          mesh::set_boundary_values(h, l);
        else
          all_pairs_boundary_fill(h, l);
      }
      t.boundary += sw.seconds();
    }
    {
      util::Stopwatch sw;
      std::size_t found = 0;
      for (int l = 0; l <= h.deepest_level(); ++l)
        for (const mesh::Grid* g : h.grids(l))
          for (const mesh::Particle& p : g->particles())
            found += (cached ? topo.finest_owner(p.x)
                             : oracle::finest_owner(h, p.x)) == g;
      t.owner += sw.seconds();
      t.owned = found;
    }
    {
      util::Stopwatch sw;
      t.plan.clear();
      for (int l = 0; l <= h.deepest_level(); ++l) {
        const auto plan = cached ? parallel::plan_sibling_exchange(h, l)
                                 : oracle::exchange_plan(h, l);
        t.plan.insert(t.plan.end(), plan.begin(), plan.end());
      }
      t.exchange_plan += sw.seconds();
    }
  }
  return t;
}

bool same_plan(const std::vector<parallel::ExchangeBlock>& a,
               const std::vector<parallel::ExchangeBlock>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].src_id != b[i].src_id || a[i].dst_id != b[i].dst_id ||
        a[i].region != b[i].region || a[i].shift != b[i].shift)
      return false;
  return true;
}

std::string consumer_json(const char* name, double all_pairs, double cached) {
  const double speedup = cached > 0.0 ? all_pairs / cached : 0.0;
  return std::string("{\"consumer\":\"") + name +
         "\",\"all_pairs_seconds\":" + perf::json_number(all_pairs) +
         ",\"cached_seconds\":" + perf::json_number(cached) +
         ",\"speedup\":" + perf::json_number(speedup) + "}";
}

}  // namespace

int main() {
  auto run = bench::collapse_run_config(16, 4, /*chemistry=*/true,
                                        /*with_dark_matter=*/true);
  core::Simulation sim(run.config);
  // Tile the root 4³ ways: the all-pairs sibling scan is O(grids²·shifts)
  // per level, and a single-grid root would hide exactly the cost the
  // cached neighbor lists remove.
  sim.initialize(core::deck_problem_setup(run).root_tiles(4));
  bench::add_dark_matter(sim, 16, /*total_mass=*/0.1);
  for (int s = 0; s < 6; ++s) sim.advance_root_step();

  mesh::Hierarchy& h = sim.hierarchy();
  std::size_t total_grids = 0;
  for (int l = 0; l <= h.deepest_level(); ++l) total_grids += h.num_grids(l);
  std::printf("evolved collapse hierarchy: %d level(s), %zu grid(s)\n",
              h.deepest_level() + 1, total_grids);

  // Build the cache outside the timed region and record its one-off cost;
  // per-step consumers amortize this over every sweep between rebuilds.
  util::Stopwatch build_sw;
  const mesh::OverlapTopology& topo = h.topology();
  const double build_seconds = build_sw.seconds();
  const ConsumerTimes ref = time_consumers(h, /*cached=*/false);
  const ConsumerTimes cached = time_consumers(h, /*cached=*/true);

  std::printf("\noverlap consumers, %d repeats (all levels per repeat)\n\n",
              kRepeats);
  std::printf("%-22s %14s %14s %10s\n", "consumer", "all-pairs [s]",
              "cached [s]", "speedup");
  const struct {
    const char* name;
    double a, c;
  } rows[] = {
      {"boundary_fill", ref.boundary, cached.boundary},
      {"finest_owner", ref.owner, cached.owner},
      {"exchange_plan", ref.exchange_plan, cached.exchange_plan},
  };
  double ref_total = 0.0, cached_total = 0.0;
  for (const auto& r : rows) {
    ref_total += r.a;
    cached_total += r.c;
    std::printf("%-22s %14.4f %14.4f %9.2fx\n", r.name, r.a, r.c,
                r.c > 0 ? r.a / r.c : 0.0);
  }
  std::printf("%-22s %14.4f %14.4f %9.2fx\n", "total", ref_total, cached_total,
              cached_total > 0 ? ref_total / cached_total : 0.0);
  std::printf("\ntopology build: %.4f s, %zu sibling link(s) cached\n",
              build_seconds, topo.total_links());
  std::printf("particles at their finest owner: all-pairs %zu, cached %zu\n",
              ref.owned, cached.owned);
  if (!same_plan(ref.plan, cached.plan)) {
    std::fprintf(stderr,
                 "exchange plans diverge: all-pairs %zu block(s), cached %zu\n",
                 ref.plan.size(), cached.plan.size());
    return 1;
  }

  std::string json =
      "{\"bench\":\"overlap_topology\",\"levels\":" +
      perf::json_number(h.deepest_level() + 1) +
      ",\"grids\":" + perf::json_number(total_grids) +
      ",\"repeats\":" + perf::json_number(kRepeats) +
      ",\"topology_build_seconds\":" + perf::json_number(build_seconds) +
      ",\"sibling_links\":" + perf::json_number(topo.total_links()) +
      ",\"consumers\":[" +
      consumer_json("boundary_fill", ref.boundary, cached.boundary) + "," +
      consumer_json("finest_owner", ref.owner, cached.owner) + "," +
      consumer_json("exchange_plan", ref.exchange_plan, cached.exchange_plan) +
      "],\"total_all_pairs_seconds\":" + perf::json_number(ref_total) +
      ",\"total_cached_seconds\":" + perf::json_number(cached_total) +
      ",\"total_speedup\":" +
      perf::json_number(cached_total > 0 ? ref_total / cached_total : 0.0) +
      "}\n";
  const char* out_path = "BENCH_overlap_topology.json";
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  return 0;
}
