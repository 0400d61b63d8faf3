#pragma once
// Prolongation: coarse → fine data transfer (§3.2.1 step 1 of the two-step
// boundary procedure, and interior fill of newly created grids in §3.2.2
// step 3).
//
// Interpolation is cell-centered, piecewise linear with minmod-limited
// slopes per axis (monotone, and exactly conservative per coarse cell for
// density-like fields since the sub-cell offsets sum to zero).  Ghost-zone
// fills are additionally *time*-interpolated between the parent's stored old
// and new states, which is what gives the W-cycle its time-centered subgrid
// boundary conditions (Fig. 2).

#include <cstdint>

#include "mesh/grid.hpp"

namespace enzo::mesh {

/// Fill the ghost cells of `child` from `parent` data, interpolating
/// linearly in time to `child.time()` when the parent carries an old state.
/// Ghost indices are *not* wrapped: a ghost beyond the domain edge maps
/// into the parent's own ghost zones, which the parent level's boundary
/// pass has already filled with periodic or outflow data.  Requires the
/// child's ghost-grown box to be covered by the parent's total
/// (ghost-inclusive) region.
///
/// `covered`, when given, holds one byte per child storage cell (x fastest,
/// nt(0)·nt(1)·nt(2) bytes); ghost cells whose byte is nonzero are skipped
/// (set_boundary_values marks the cells a sibling copy overwrites).  The
/// coverage check still applies to every ghost cell.  Returns the number of
/// cells interpolated.
std::int64_t fill_ghosts_from_parent(Grid& child, const Grid& parent,
                                     const std::uint8_t* covered = nullptr);

/// Fill the child's *active* region (interior) by interpolating the parent's
/// current state — used when a rebuilt hierarchy creates grids over regions
/// that were previously unrefined.
void fill_active_from_parent(Grid& child, const Grid& parent);

}  // namespace enzo::mesh
