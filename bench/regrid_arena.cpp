// Regrid-storm bench (§5): the hierarchy is rebuilt thousands of times per
// run, so rebuild cost — and the "extremely large number of memory
// allocations and frees" it generates — is a first-order concern.  Drives
// two rebuild storms of a refined hierarchy — "steady" (every rebuild
// reproduces the same boxes) and "moving" (flags alternate between two
// spheres) — in which every rebuild builds each grid fresh from the arena
// pools, and reports wall time per rebuild, AllocStats heap allocations
// per rebuild and the arena pool hit rate.  Emits BENCH_regrid.json for
// regression tracking.

#include <cstdio>
#include <string>
#include <vector>

#include "mesh/hierarchy.hpp"
#include "perf/json.hpp"
#include "perf/metrics.hpp"
#include "util/alloc_stats.hpp"
#include "util/timer.hpp"

using namespace enzo;
using mesh::Grid;
using mesh::Hierarchy;
using mesh::Index3;

namespace {

constexpr int kWarmups = 3;   // reach the nesting steady state + prime pools
constexpr int kRebuilds = 20;

/// Flag a fixed global sphere of parent cells around (cx, 0.5, 0.5):
/// position-based, so every rebuild with it reproduces the same boxes.
Hierarchy::FlagFn sphere_flagger(double cx) {
  return [cx](const Grid& g, std::vector<Index3>& flags) {
    const Index3 dims = g.spec().level_dims;
    for (std::int64_t k = g.box().lo[2]; k < g.box().hi[2]; ++k)
      for (std::int64_t j = g.box().lo[1]; j < g.box().hi[1]; ++j)
        for (std::int64_t i = g.box().lo[0]; i < g.box().hi[0]; ++i) {
          const double x = (static_cast<double>(i) + 0.5) / dims[0] - cx;
          const double y = (static_cast<double>(j) + 0.5) / dims[1] - 0.5;
          const double z = (static_cast<double>(k) + 0.5) / dims[2] - 0.5;
          if (x * x + y * y + z * z < 0.2 * 0.2) flags.push_back({i, j, k});
        }
  };
}

struct StormResult {
  std::string storm;
  double rebuild_seconds = 0.0;
  double heap_allocs_per_rebuild = 0.0;
  std::uint64_t pool_acquires = 0;
  double arena_hit_rate = 0.0;  ///< hits / acquires (0 when none)
  std::size_t grids = 0;
};

/// Rebuild cycling through `flags`, after warm-up passes over the cycle.
StormResult run_storm(const std::string& name,
                      const std::vector<Hierarchy::FlagFn>& flags) {
  mesh::HierarchyParams p;
  p.root_dims = {32, 32, 32};
  p.max_level = 2;
  Hierarchy h(p);
  h.build_root();
  for (Grid* g : h.grids(0)) {
    for (mesh::Field f : g->field_list()) g->field(f).fill(1.0);
    g->store_old_fields();
  }
  auto flag = [&](int i) -> const Hierarchy::FlagFn& {
    return flags[static_cast<std::size_t>(i) % flags.size()];
  };
  for (int i = 0; i < kWarmups * static_cast<int>(flags.size()); ++i)
    h.rebuild(1, flag(i));

  perf::Registry& reg = perf::Registry::global();
  const std::uint64_t allocs0 = util::AllocStats::global().allocations();
  const std::uint64_t hits0 = reg.counter("arena.pool_hits").value();
  const std::uint64_t miss0 = reg.counter("arena.pool_misses").value();
  util::Stopwatch sw;
  for (int i = 0; i < kRebuilds; ++i) h.rebuild(1, flag(i));
  StormResult r;
  r.storm = name;
  r.rebuild_seconds = sw.seconds() / kRebuilds;
  r.heap_allocs_per_rebuild =
      static_cast<double>(util::AllocStats::global().allocations() - allocs0) /
      kRebuilds;
  const std::uint64_t hits = reg.counter("arena.pool_hits").value() - hits0;
  r.pool_acquires = hits + reg.counter("arena.pool_misses").value() - miss0;
  r.arena_hit_rate =
      r.pool_acquires > 0
          ? static_cast<double>(hits) / static_cast<double>(r.pool_acquires)
          : 0.0;
  r.grids = h.total_grids();
  h.check_invariants();
  return r;
}

}  // namespace

int main() {
  const StormResult storms[] = {
      run_storm("steady", {sphere_flagger(0.5)}),
      run_storm("moving", {sphere_flagger(0.4), sphere_flagger(0.6)}),
  };
  std::printf("regrid storms, %d rebuilds each\n\n", kRebuilds);
  std::printf("%-8s %6s %12s %15s %14s %9s\n", "storm", "grids",
              "rebuild [s]", "allocs/rebuild", "pool acquires", "hit rate");
  for (const StormResult& r : storms)
    std::printf("%-8s %6zu %12.6f %15.1f %14llu %9.3f\n", r.storm.c_str(),
                r.grids, r.rebuild_seconds, r.heap_allocs_per_rebuild,
                static_cast<unsigned long long>(r.pool_acquires),
                r.arena_hit_rate);

  const char* out_path = "BENCH_regrid.json";
  std::string json = "{\"bench\":\"regrid_arena\",\"rebuilds\":" +
                     std::to_string(kRebuilds) + ",\"storms\":[";
  bool first = true;
  for (const StormResult& r : storms) {
    if (!first) json += ",";
    first = false;
    json += "{\"storm\":\"" + perf::json_escape(r.storm) +
            "\",\"grids\":" + std::to_string(r.grids) +
            ",\"rebuild_seconds\":" + perf::json_number(r.rebuild_seconds) +
            ",\"heap_allocs_per_rebuild\":" +
            perf::json_number(r.heap_allocs_per_rebuild) +
            ",\"pool_acquires\":" + std::to_string(r.pool_acquires) +
            ",\"arena_hit_rate\":" + perf::json_number(r.arena_hit_rate) +
            "}";
  }
  json += "]}\n";
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "failed to write %s\n", out_path);
    return 1;
  }
  return 0;
}
