// Storage-arena tests: block pooling semantics (size classes, alignment,
// AllocStats heap-only accounting), Buffer3/particle-vector recycling, the
// regrid-storm stress contract (§5: steady-state rebuilds make no heap
// allocations), and a checkpoint round trip between fresh and recycled
// storage.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/auditor.hpp"
#include "core/parameter_file.hpp"
#include "core/simulation.hpp"
#include "io/checkpoint.hpp"
#include "mesh/field_storage.hpp"
#include "mesh/hierarchy.hpp"
#include "perf/metrics.hpp"
#include "util/alloc_stats.hpp"
#include "util/arena.hpp"

using namespace enzo;
using mesh::Field;
using mesh::Grid;
using mesh::Hierarchy;
using mesh::HierarchyParams;
using mesh::Index3;

// ---- util::Arena ---------------------------------------------------------------

TEST(Arena, RoundsUpToGranularityAndAligns) {
  constexpr std::size_t g = util::Arena::kGranularity;
  EXPECT_EQ(g, 2048u);
  EXPECT_EQ(util::Arena::round_up(0), g);
  EXPECT_EQ(util::Arena::round_up(1), g);
  EXPECT_EQ(util::Arena::round_up(g), g);
  EXPECT_EQ(util::Arena::round_up(g + 1), 2 * g);
  util::Arena a;
  util::ArenaBlock b = a.acquire(10);
  ASSERT_NE(b.ptr, nullptr);
  EXPECT_EQ(b.capacity, g);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.ptr) % 64, 0u);
  a.release(std::move(b));
  a.trim();
  EXPECT_EQ(a.bytes_pooled(), 0u);
}

TEST(Arena, PoolRecyclesBlocksWithoutTouchingTheHeap) {
  util::Arena a;
  const std::uint64_t heap0 = util::AllocStats::global().allocations();
  util::ArenaBlock b1 = a.acquire(100);
  double* first = b1.ptr;
  EXPECT_EQ(util::AllocStats::global().allocations(), heap0 + 1);
  a.release(std::move(b1));
  EXPECT_GT(a.bytes_pooled(), 0u);
  // Same size class (both round up to one granularity quantum): the pooled
  // block comes back and AllocStats sees no new heap event.
  util::ArenaBlock b2 = a.acquire(200);
  EXPECT_EQ(b2.ptr, first);
  EXPECT_EQ(util::AllocStats::global().allocations(), heap0 + 1);
  a.release(std::move(b2));
  a.trim();
  EXPECT_EQ(a.bytes_pooled(), 0u);
}

TEST(Arena, HeapFallbackMatchesAlignmentContract) {
  util::ArenaBlock b = util::Arena::heap_acquire(77);
  ASSERT_NE(b.ptr, nullptr);
  EXPECT_GE(b.capacity, 77u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.ptr) % 64, 0u);
  util::Arena::heap_release(std::move(b));
}

// ---- mesh::Buffer3 / mesh::StorageArena ----------------------------------------

TEST(Buffer3, ResizeFillsEveryElementAndRecyclesThroughArena) {
  util::Arena a;
  const double* recycled = nullptr;
  {
    mesh::Buffer3 b;
    b.set_arena(&a);
    b.resize(4, 5, 6, 3.5);
    EXPECT_EQ(b.size(), 4u * 5u * 6u);
    for (double v : b.view()) EXPECT_EQ(v, 3.5);
    recycled = b.data();
  }  // released back to the pool
  mesh::Buffer3 c;
  c.set_arena(&a);
  c.resize(6, 5, 4, 0.0);  // same size class: must reuse the pooled block
  EXPECT_EQ(c.data(), recycled);
  // resize always overwrites, so a recycled block is indistinguishable from
  // a fresh one.
  for (double v : c.view()) EXPECT_EQ(v, 0.0);
}

TEST(StorageArena, ParticleVectorsRecycleWithCapacityIntact) {
  mesh::StorageArena sa;
  std::vector<mesh::Particle> v = sa.acquire_particles();
  EXPECT_TRUE(v.empty());
  v.reserve(1000);
  const std::size_t cap = v.capacity();
  v.push_back(mesh::Particle{});
  sa.release_particles(std::move(v));
  std::vector<mesh::Particle> w = sa.acquire_particles();
  EXPECT_TRUE(w.empty());
  EXPECT_GE(w.capacity(), cap);
}

// ---- regrid storm ---------------------------------------------------------------

namespace {

/// Flag a fixed global sphere of parent cells around (cx, 0.5, 0.5)
/// (position-based, so the same boxes come back on every rebuild — the
/// steady state of a long run).
Hierarchy::FlagFn sphere_flagger(double cx = 0.5) {
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

Hierarchy storm_hierarchy() {
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  p.max_level = 2;
  Hierarchy h(p);
  h.build_root();
  for (Grid* g : h.grids(0)) {
    for (Field f : g->field_list()) g->field(f).fill(1.0);
    g->store_old_fields();
  }
  return h;
}

/// Heap allocations recorded by AllocStats over `reps` steady-state
/// rebuilds cycling through `flags` (pools primed by a warm-up pass over
/// the cycle first).
std::uint64_t heap_allocs_for_rebuilds(
    const std::vector<Hierarchy::FlagFn>& flags, int reps) {
  Hierarchy h = storm_hierarchy();
  for (int i = 0; i < 3 * static_cast<int>(flags.size()); ++i)
    h.rebuild(1, flags[static_cast<std::size_t>(i) % flags.size()]);
  EXPECT_GE(h.deepest_level(), 1);
  const std::uint64_t a0 = util::AllocStats::global().allocations();
  for (int i = 0; i < reps; ++i)
    h.rebuild(1, flags[static_cast<std::size_t>(i) % flags.size()]);
  h.check_invariants();
  return util::AllocStats::global().allocations() - a0;
}

}  // namespace

TEST(RegridStorm, ArenaDropsSteadyStateHeapAllocsTenfold) {
  constexpr int kReps = 8;
  // Identical flags rebuild the same boxes: every new grid draws the blocks
  // the generation it replaces returned, so the storm touches the heap not
  // at all.
  EXPECT_EQ(heap_allocs_for_rebuilds({sphere_flagger()}, kReps), 0u);
  // Flags alternating between two spheres rebuild every moved grid fresh:
  // the new grids draw recycled blocks from the generation they replace.
  EXPECT_EQ(heap_allocs_for_rebuilds(
                {sphere_flagger(0.4), sphere_flagger(0.6)}, kReps),
            0u);
}

// ---- checkpoint round trip between fresh and recycled storage ---------------

namespace {

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

TEST(ArenaCheckpoint, RoundTripAcrossStorageModesIsBitwiseStable) {
  const std::string deck_path =
      std::string(ENZO_SOURCE_DIR) + "/decks/cosmology_box.enzo";
  const std::string dir = ::testing::TempDir();
  const std::string ckpt_run = dir + "arena_roundtrip_run.ckpt";
  const std::string ckpt_restored = dir + "arena_roundtrip_restored.ckpt";

  // Evolve far enough to refine and regrid: by now the per-level pools hand
  // out recycled blocks holding stale data from earlier generations.
  core::ParameterDeck deck = core::parse_parameter_file(deck_path);
  core::Simulation run(deck.config);
  core::setup_from_deck(run, deck);
  for (int s = 0; s < 2; ++s) run.advance_root_step();
  ASSERT_GE(run.hierarchy().deepest_level(), 1);
  const analysis::AuditReport before = run.run_audit();
  io::write_checkpoint(run, ckpt_run);

  // Restore into a new Simulation, whose every block is fresh from the heap:
  // the bytes in a checkpoint must not depend on where the source grids kept
  // them, so writing the restored state reproduces the file exactly.
  core::ParameterDeck deck2 = core::parse_parameter_file(deck_path);
  core::Simulation restored(deck2.config);
  core::configure_from_deck(restored, deck2);
  io::read_checkpoint(restored, ckpt_run);
  const analysis::AuditReport after = restored.run_audit();
  EXPECT_EQ(after.mass_total, before.mass_total);
  EXPECT_EQ(after.energy_total, before.energy_total);
  EXPECT_EQ(after.violations.size(), before.violations.size());
  io::write_checkpoint(restored, ckpt_restored);
  EXPECT_TRUE(file_bytes(ckpt_restored) == file_bytes(ckpt_run));

  // Both continue: the original run keeps drawing on its long-dirtied pools,
  // the restored one starts recycling its own.  The states stay identical.
  for (int s = 0; s < 2; ++s) {
    run.advance_root_step();
    restored.advance_root_step();
  }
  io::write_checkpoint(run, ckpt_run);
  io::write_checkpoint(restored, ckpt_restored);
  EXPECT_TRUE(file_bytes(ckpt_restored) == file_bytes(ckpt_run));
  EXPECT_EQ(restored.run_audit().energy_total, run.run_audit().energy_total);
  std::filesystem::remove(ckpt_run);
  std::filesystem::remove(ckpt_restored);
}
