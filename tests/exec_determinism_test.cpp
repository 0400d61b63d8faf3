// End-to-end determinism of the parallel level-execution engine: the
// cosmology_box deck run on the serial backend and on an 8-lane thread pool
// must produce byte-identical per-step diagnostics and identical audit
// conservation sums.  This is the contract the executor's ordered phases
// and reduce_ordered combining exist to keep.  The oracle runs below check
// the topology cache and the pooled regrid against their test-only
// references at every generation of a deck run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/auditor.hpp"
#include "core/parameter_file.hpp"
#include "core/simulation.hpp"
#include "exec/exec_config.hpp"
#include "mesh/boundary.hpp"
#include "mesh/hierarchy.hpp"
#include "mesh/topology.hpp"
#include "perf/diagnostics.hpp"
#include "perf/metrics.hpp"

#include "support/oracles.hpp"

using namespace enzo;
namespace oracle = enzo::oracle;

namespace {

constexpr int kSteps = 2;

struct RunResult {
  std::vector<std::string> records;  // normalized JSONL lines
  double audit_mass = 0.0;
  double audit_energy = 0.0;
  std::size_t audit_violations = 0;
};

// Re-serialize each record with the machine/process-dependent fields zeroed:
// wall_seconds is timing, peak_bytes and flops read process-global counters
// that accumulate across the two runs sharing this test binary.  Everything
// physical (t, dt + limiter, z, level populations, conservation sums and
// residuals) must match to the last bit.
std::vector<std::string> normalized_records(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    perf::StepRecord rec;
    EXPECT_TRUE(perf::parse_step_record(line, &rec)) << "bad record: " << line;
    rec.wall_seconds = 0.0;
    rec.peak_bytes = 0;
    rec.flops = 0;
    out.push_back(perf::step_record_json(rec));
  }
  return out;
}

RunResult run_cosmology_box(exec::Backend backend, int threads,
                            const std::string& diag_path) {
  const std::string deck_path =
      std::string(ENZO_SOURCE_DIR) + "/decks/cosmology_box.enzo";
  core::ParameterDeck deck = core::parse_parameter_file(deck_path);
  deck.config.exec.backend = backend;
  deck.config.exec.threads = threads;
  core::Simulation sim(deck.config);
  core::setup_from_deck(sim, deck);
  {
    perf::DiagnosticsSink sink(diag_path);
    EXPECT_TRUE(sink.ok()) << "cannot open " << diag_path;
    sim.set_diagnostics_sink(&sink);
    for (int s = 0; s < kSteps; ++s) sim.advance_root_step();
    sim.set_diagnostics_sink(nullptr);
  }
  const analysis::AuditReport& rep = sim.run_audit();
  RunResult r;
  r.records = normalized_records(diag_path);
  r.audit_mass = rep.mass_total;
  r.audit_energy = rep.energy_total;
  r.audit_violations = rep.total_violations;
  std::remove(diag_path.c_str());
  return r;
}

}  // namespace

TEST(ExecDeterminismTest, SerialAndThreadPool8AreByteIdentical) {
  const std::string dir = ::testing::TempDir();
  const RunResult serial = run_cosmology_box(exec::Backend::kSerial, 1,
                                             dir + "exec_det_serial.jsonl");
  const RunResult pool = run_cosmology_box(exec::Backend::kThreadPool, 8,
                                           dir + "exec_det_pool.jsonl");

  ASSERT_EQ(serial.records.size(), static_cast<std::size_t>(kSteps));
  ASSERT_EQ(pool.records.size(), serial.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i)
    EXPECT_EQ(serial.records[i], pool.records[i]) << "step " << i;

  // Audit conservation sums are serial root-level reductions in both runs;
  // they must agree bitwise, and neither run may violate an AMR invariant.
  EXPECT_EQ(serial.audit_mass, pool.audit_mass);
  EXPECT_EQ(serial.audit_energy, pool.audit_energy);
  EXPECT_EQ(serial.audit_violations, 0u);
  EXPECT_EQ(pool.audit_violations, 0u);
}

TEST(ExecDeterminismTest, ThreadPoolIsRepeatable) {
  const std::string dir = ::testing::TempDir();
  const RunResult a = run_cosmology_box(exec::Backend::kThreadPool, 8,
                                        dir + "exec_det_rep_a.jsonl");
  const RunResult b = run_cosmology_box(exec::Backend::kThreadPool, 8,
                                        dir + "exec_det_rep_b.jsonl");
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i)
    EXPECT_EQ(a.records[i], b.records[i]) << "step " << i;
  EXPECT_EQ(a.audit_mass, b.audit_mass);
  EXPECT_EQ(a.audit_energy, b.audit_energy);
}

// ---- Per-generation oracles ---------------------------------------------------
//
// Production has one path for overlap queries (the regrid-cached topology)
// and one for regrid (the incremental rebuild that keeps grids whose box
// survives).  The runs below check them against the test-only references in
// tests/support/oracles.hpp at every hierarchy generation of a deck run.
// The test performs each regrid itself — the deck's RebuildInterval is
// raised out of reach and rebuild(1) runs after every root step, where a
// run regrids anyway — so it can snapshot the levels a rebuild reads
// before calling it.  For sedov.enzo (MaximumRefinementLevel 1) that is
// exactly the deck's own regrid schedule; cosmology_box.enzo additionally
// skips the level-2 regrids between level-1 substeps.  Clustered boxes
// rarely repeat exactly from one root step to the next, so on sedov each
// regrid is followed by a boundary fill (so the ghosts hold data, as they
// do whenever a run regrids) and a second regrid on the unchanged state.
// That repeated regrid must meet the oracle too, and must reproduce the
// same boxes and active field bytes: the run itself is unaffected, since
// every ghost is refilled before use.  cosmology_box gets no repeat: its
// dark-matter criterion counts only the particles a grid owns, so a second
// regrid flips the level-1 box.

namespace {

enum class Oracle { kTopology, kFullRebuild };

struct OracleRun {
  int generations = 0;     ///< generations checked
  std::uint64_t made = 0;  ///< grids built by a rebuild
  std::size_t max_grids = 0;
};

/// Boxes and active-cell field values of every refined grid, level by level.
struct RefinedState {
  std::vector<mesh::IndexBox> boxes;
  std::vector<double> active;
};

RefinedState refined_state(const mesh::Hierarchy& h) {
  RefinedState st;
  for (int l = 1; l <= h.deepest_level(); ++l)
    for (const mesh::Grid* g : h.grids(l)) {
      st.boxes.push_back(g->box());
      for (mesh::Field f : g->field_list()) {
        const mesh::ConstFieldView a = g->field(f);
        for (int k = 0; k < g->nx(2); ++k)
          for (int j = 0; j < g->nx(1); ++j)
            for (int i = 0; i < g->nx(0); ++i)
              st.active.push_back(
                  a(i + g->ng(0), j + g->ng(1), k + g->ng(2)));
      }
    }
  return st;
}

/// Empty when both states hold the same boxes and active bytes.
std::string refined_state_mismatch(const RefinedState& a,
                                   const RefinedState& b) {
  if (a.boxes != b.boxes) return "grid boxes differ";
  if (a.active.size() != b.active.size() ||
      (!a.active.empty() &&
       std::memcmp(a.active.data(), b.active.data(),
                   a.active.size() * sizeof(double)) != 0))
    return "active field bytes differ";
  return "";
}

OracleRun run_with_oracle(const std::string& deck_name, int steps,
                          bool repeat, Oracle which) {
  core::ParameterDeck deck = core::parse_parameter_file(
      std::string(ENZO_SOURCE_DIR) + "/decks/" + deck_name);
  deck.config.exec.backend = exec::Backend::kThreadPool;
  deck.config.exec.threads = 4;
  deck.config.rebuild_interval = 1 << 30;
  core::Simulation sim(deck.config);
  core::setup_from_deck(sim, deck);
  EXPECT_EQ(sim.config().rebuild_interval, 1 << 30);
  mesh::Hierarchy& h = sim.hierarchy();
  perf::Counter& made =
      perf::Registry::global().counter("arena.regrid_new_grids");
  const std::uint64_t made0 = made.value();
  const mesh::Hierarchy::FlagFn flag = sim.flagger();
  OracleRun run;
  // Check the current generation; false (with a recorded failure) on a
  // mismatch.
  auto check = [&](const std::string& where,
                   oracle::RebuildSnapshot* before) {
    const std::string mismatch =
        which == Oracle::kTopology
            ? oracle::topology_mismatch(h)
            : oracle::full_rebuild_mismatch(h, std::move(*before));
    ++run.generations;
    run.max_grids = std::max(run.max_grids, h.total_grids());
    run.made = made.value() - made0;
    EXPECT_EQ(mismatch, "") << deck_name << ", " << where;
    return mismatch.empty();
  };
  if (which == Oracle::kTopology && !check("after setup", nullptr))
    return run;
  for (int s = 1; s <= steps; ++s) {
    sim.advance_root_step();
    for (int pass = 0; pass < (repeat ? 2 : 1); ++pass) {
      if (pass == 1)
        for (int l = 0; l <= h.deepest_level(); ++l)
          mesh::set_boundary_values(h, l, &sim.executor());
      const RefinedState prior = pass == 1 ? refined_state(h) : RefinedState{};
      oracle::RebuildSnapshot before = oracle::snapshot_before_rebuild(h, 1);
      h.rebuild(1, flag);
      if (pass == 1) {
        EXPECT_EQ(refined_state_mismatch(prior, refined_state(h)), "")
            << deck_name << ": repeated regrid after root step " << s;
      }
      if (!check(std::string(pass == 0 ? "regrid" : "repeated regrid") +
                     " after root step " + std::to_string(s),
                 &before))
        return run;
      // Simulation's own post-rebuild clock sync.
      const ext::pos_t t = h.grids(0).front()->time();
      for (int l = 1; l <= h.deepest_level(); ++l)
        for (mesh::Grid* g : h.grids(l))
          if (!(g->time() == t)) g->set_time(t);
    }
  }
  return run;
}

/// cosmology_box: random-field ICs, dark-matter particles (finest-owner
/// re-homing, particle order across rebuilds), a static nested level, and
/// dynamic refinement from root step 9 on — its full 10-step deck.  sedov:
/// dynamic AMR chasing the shock; the deck first refines at root step 13,
/// so 18 steps cover several regrids.
void check_every_generation(Oracle which) {
  const OracleRun cosmo =
      run_with_oracle("cosmology_box.enzo", 10, /*repeat=*/false, which);
  EXPECT_GE(cosmo.generations, 10);
  EXPECT_GT(cosmo.max_grids, 2u) << "cosmology_box never refined dynamically";
  EXPECT_GT(cosmo.made, 0u);
  const OracleRun sedov =
      run_with_oracle("sedov.enzo", 18, /*repeat=*/true, which);
  EXPECT_GE(sedov.generations, 36);
  EXPECT_GT(sedov.max_grids, 2u) << "sedov never refined";
  EXPECT_GT(sedov.made, 0u) << "no sedov rebuild built a grid";
}

}  // namespace

// The cached overlap topology must answer every query exactly as the
// all-pairs scans do — sibling links, parent groups, grid_at, finest-owner,
// exchange plans — at every generation, serially and on the pool alike
// (its consumers then reproduce the all-pairs sweeps byte for byte).
TEST(ExecDeterminismTest, TopologyCacheIsByteIdenticalToAllPairs) {
  check_every_generation(Oracle::kTopology);
}

// Pooled storage and the rebuild's release-before-snapshot order must be
// invisible to the physics: after every rebuild, each grid's field and
// old-field bytes, clock, parent and particle order equal a full rebuild's
// (with heap-fresh grids) from the same pre-rebuild state.
TEST(ExecDeterminismTest, PooledRegridIsByteIdenticalToFullRebuild) {
  check_every_generation(Oracle::kFullRebuild);
}
