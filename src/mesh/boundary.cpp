#include "mesh/boundary.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exec/executor.hpp"
#include "mesh/interpolate.hpp"
#include "mesh/topology.hpp"
#include "perf/metrics.hpp"
#include "perf/trace.hpp"
#include "util/error.hpp"

namespace enzo::mesh {

void fill_outflow_ghosts(Grid& g) {
  for (Field f : g.field_list()) {
    const FieldView a = g.field(f);
    // Clamp each axis in turn; later axes see already-filled earlier ghosts.
    for (int d = 0; d < 3; ++d) {
      if (g.ng(d) == 0) continue;
      const int lo = g.ng(d), hi = g.ng(d) + g.nx(d) - 1;
      for (int k = 0; k < g.nt(2); ++k)
        for (int j = 0; j < g.nt(1); ++j)
          for (int i = 0; i < g.nt(0); ++i) {
            int idx[3] = {i, j, k};
            if (idx[d] >= lo && idx[d] <= hi) continue;
            int src[3] = {i, j, k};
            src[d] = idx[d] < lo ? lo : hi;
            a(i, j, k) = a(src[0], src[1], src[2]);
          }
    }
  }
}

namespace {

/// This lane's ghost-coverage mask for `g`: one byte per storage cell, all
/// zero.  Sized here, outside the fill kernels; capacity is kept across
/// grids.
std::uint8_t* cleared_mask(const Grid& g) {
  thread_local std::vector<std::uint8_t> mask;
  mask.assign(static_cast<std::size_t>(g.nt(0)) * g.nt(1) * g.nt(2), 0);
  return mask.data();
}

/// Mark the cells of `overlap` (global indices inside g's total region).
void mark_covered(const Grid& g, const IndexBox& overlap, std::uint8_t* mask) {
  const std::int64_t nx = g.nt(0), ny = g.nt(1);
  const std::int64_t i0 = overlap.lo[0] - g.box().lo[0] + g.ng(0);
  const std::int64_t j0 = overlap.lo[1] - g.box().lo[1] + g.ng(1);
  const std::int64_t k0 = overlap.lo[2] - g.box().lo[2] + g.ng(2);
  for (std::int64_t k = 0; k < overlap.extent(2); ++k)
    for (std::int64_t j = 0; j < overlap.extent(1); ++j) {
      std::uint8_t* row = mask + i0 + nx * ((j0 + j) + ny * (k0 + k));
      std::fill(row, row + overlap.extent(0), std::uint8_t{1});
    }
}

}  // namespace

void set_boundary_values(Hierarchy& h, int level, exec::LevelExecutor* ex) {
  static perf::Counter& ghost_cells =
      perf::Registry::global().counter("boundary.ghost_cells_filled");
  static perf::Counter& interp_cells =
      perf::Registry::global().counter("boundary.parent_interp_cells");
  static perf::Counter& sibling_cells =
      perf::Registry::global().counter("boundary.sibling_copy_cells");
  auto level_grids = h.grids(level);
  const bool periodic = h.params().periodic;

  // Fetch the cached neighbor lists *before* entering the phase: the
  // hierarchy is frozen inside it, so the reference stays valid throughout.
  const OverlapTopology* topo =
      level_grids.empty() ? nullptr : &h.topology();

  // Grids fill independently: a task writes only its own ghost cells (its
  // interior is disjoint from every sibling's total region, shifted images
  // included) and reads parent/sibling active cells, which no task writes.
  exec::fallback(ex).for_each(
      {"set_boundary_values", perf::component::kBoundary, level},
      level_grids.size(),
      [&](std::size_t n) {
        Grid* g = level_grids[n];
        const std::uint64_t total =
            static_cast<std::uint64_t>(g->nt(0)) * g->nt(1) * g->nt(2);
        const std::uint64_t active =
            static_cast<std::uint64_t>(g->nx(0)) * g->nx(1) * g->nx(2);
        ghost_cells.add(total - active);
        // This grid's sibling overlaps (periodic images included), in the
        // order the copies must run: later copies overwrite earlier ones
        // (sources ascending, shifts in canonical nesting).
        auto for_each_sibling = [&](auto&& fn) {
          for (const SiblingLink& ln : topo->siblings(level, n))
            if (!ln.overlap.empty())
              fn(*level_grids[ln.src], ln.shift, ln.overlap);
        };
        // Step 1: parent interpolation (root has no parent), of only the
        // ghost cells no sibling copy overwrites in step 2.  Skipping the
        // others leaves every byte as "interpolate all, then overwrite"
        // does, provided the sibling carries every field the parent fills
        // (all grids of a hierarchy share one field list).
        if (level > 0) {
          ENZO_REQUIRE(g->parent() != nullptr, "subgrid without parent in BC");
          std::uint8_t* covered = cleared_mask(*g);
          for_each_sibling(
              [&](const Grid& s, const Index3&, const IndexBox& ov) {
                if (s.field_list() == g->field_list())
                  mark_covered(*g, ov, covered);
              });
          interp_cells.add(static_cast<std::uint64_t>(
              fill_ghosts_from_parent(*g, *g->parent(), covered)));
        } else if (!periodic) {
          fill_outflow_ghosts(*g);
        }
        // Step 2: sibling copies (highest-resolution data wins), including
        // periodic images.  For a single periodic root grid the self-copy
        // with nonzero shift implements the wrap.
        std::int64_t copied = 0;
        for_each_sibling(
            [&](const Grid& s, const Index3& shift, const IndexBox&) {
              copied += g->copy_from_sibling(s, shift);
            });
        sibling_cells.add(static_cast<std::uint64_t>(copied));
      },
      [&](std::size_t n) {
        const Grid* g = level_grids[n];
        return static_cast<std::uint64_t>(g->nt(0)) * g->nt(1) * g->nt(2);
      });
}

}  // namespace enzo::mesh
