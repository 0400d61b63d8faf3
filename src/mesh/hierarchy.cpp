#include "mesh/hierarchy.hpp"

#include <algorithm>
#include <unordered_set>

#include "exec/executor.hpp"
#include "mesh/interpolate.hpp"
#include "mesh/topology.hpp"
#include "perf/metrics.hpp"
#include "perf/trace.hpp"
#include "util/error.hpp"

namespace enzo::mesh {

namespace {
/// Cells of padding added around flagged regions before clustering.
constexpr int kFlagBuffer = 1;

/// Pack an Index3 into a hashable key (coordinates fit easily in 21 bits at
/// any depth we can afford to store flags for).
std::uint64_t key_of(const Index3& p) {
  auto enc = [](std::int64_t v) {
    return static_cast<std::uint64_t>(v & 0x1FFFFF);
  };
  return enc(p[0]) | (enc(p[1]) << 21) | (enc(p[2]) << 42);
}
}  // namespace

Hierarchy::Hierarchy(HierarchyParams params) : params_(std::move(params)) {
  ENZO_REQUIRE(params_.refine_factor >= 2, "refine factor must be >= 2");
  for (int d = 0; d < 3; ++d)
    ENZO_REQUIRE(params_.root_dims[d] >= 1, "bad root dims");
  ENZO_REQUIRE(!params_.fields.empty(), "hierarchy needs a field list");
}

// Out of line because OverlapTopology is incomplete in the header; the move
// operations transfer the topology cache (grid addresses are stable across
// a move of the owning vectors) but each object keeps its own mutex.
Hierarchy::~Hierarchy() = default;

Hierarchy::Hierarchy(Hierarchy&& other) noexcept
    : params_(std::move(other.params_)),
      arenas_(std::move(other.arenas_)),
      levels_(std::move(other.levels_)),
      descriptors_(std::move(other.descriptors_)),
      generation_(other.generation_),
      topology_(std::move(other.topology_)),
      topology_generation_(other.topology_generation_.load()) {
  other.topology_generation_.store(kNoTopology);
}

Hierarchy& Hierarchy::operator=(Hierarchy&& other) noexcept {
  if (this != &other) {
    params_ = std::move(other.params_);
    arenas_ = std::move(other.arenas_);
    levels_ = std::move(other.levels_);
    descriptors_ = std::move(other.descriptors_);
    generation_ = other.generation_;
    topology_ = std::move(other.topology_);
    topology_generation_.store(other.topology_generation_.load());
    other.topology_generation_.store(kNoTopology);
  }
  return *this;
}

std::shared_ptr<StorageArena> Hierarchy::arena_for_level(int level) {
  ENZO_REQUIRE(level >= 0, "negative level");
  while (static_cast<int>(arenas_.size()) <= level)
    arenas_.push_back(std::make_shared<StorageArena>());
  return arenas_[level];
}

std::unique_ptr<Grid> Hierarchy::make_grid(int level, const IndexBox& box) {
  return std::make_unique<Grid>(make_spec(level, box), params_.fields,
                                arena_for_level(level));
}

const OverlapTopology& Hierarchy::topology() const {
  // Fast path: the acquire pairs with the release below, so observing our
  // generation guarantees the built topology is visible.
  if (topology_generation_.load(std::memory_order_acquire) == generation_)
    return *topology_;
  std::lock_guard<std::mutex> lock(topology_mu_);
  if (topology_generation_.load(std::memory_order_relaxed) != generation_) {
    topology_ = std::make_unique<OverlapTopology>(*this);
    topology_generation_.store(generation_, std::memory_order_release);
  }
  return *topology_;
}

std::optional<std::uint64_t> Hierarchy::topology_cache_generation() const {
  const std::uint64_t g =
      topology_generation_.load(std::memory_order_acquire);
  if (g == kNoTopology) return std::nullopt;
  return g;
}

Index3 Hierarchy::level_dims(int level) const {
  Index3 dims;
  for (int d = 0; d < 3; ++d) {
    if (params_.root_dims[d] == 1) {
      dims[d] = 1;
    } else {
      std::int64_t n = params_.root_dims[d];
      for (int l = 0; l < level; ++l) n *= params_.refine_factor;
      dims[d] = n;
    }
  }
  return dims;
}

GridSpec Hierarchy::make_spec(int level, const IndexBox& box) const {
  GridSpec s;
  s.level = level;
  s.box = box;
  s.level_dims = level_dims(level);
  s.refine_factor = params_.refine_factor;
  s.nghost = params_.nghost;
  s.periodic = params_.periodic;
  return s;
}

void Hierarchy::build_root(int tiles_per_axis) {
  ENZO_REQUIRE(!exec::in_phase(),
               "hierarchy mutation inside an executor phase");
  ENZO_REQUIRE(levels_.empty(), "root already built");
  ENZO_REQUIRE(tiles_per_axis >= 1, "bad tile count");
  ++generation_;
  levels_.emplace_back();
  const Index3 dims = level_dims(0);
  for (int d = 0; d < 3; ++d)
    ENZO_REQUIRE(dims[d] == 1 || dims[d] % tiles_per_axis == 0,
                 "root dims not divisible into tiles");
  auto tiles_on = [&](int d) { return dims[d] == 1 ? 1 : tiles_per_axis; };
  for (int tk = 0; tk < tiles_on(2); ++tk)
    for (int tj = 0; tj < tiles_on(1); ++tj)
      for (int ti = 0; ti < tiles_on(0); ++ti) {
        IndexBox box;
        const int t[3] = {ti, tj, tk};
        for (int d = 0; d < 3; ++d) {
          const std::int64_t w = dims[d] / tiles_on(d);
          box.lo[d] = t[d] * w;
          box.hi[d] = box.lo[d] + w;
        }
        levels_[0].push_back(make_grid(0, box));
      }
  descriptors_.clear();
  descriptors_.emplace_back();
  refresh_descriptors(0);
}

std::vector<Grid*> Hierarchy::grids(int level) {
  std::vector<Grid*> out;
  if (level < 0 || level >= static_cast<int>(levels_.size())) return out;
  out.reserve(levels_[level].size());
  for (auto& g : levels_[level]) out.push_back(g.get());
  return out;
}

std::vector<const Grid*> Hierarchy::grids(int level) const {
  std::vector<const Grid*> out;
  if (level < 0 || level >= static_cast<int>(levels_.size())) return out;
  out.reserve(levels_[level].size());
  for (auto& g : levels_[level]) out.push_back(g.get());
  return out;
}

std::size_t Hierarchy::num_grids(int level) const {
  if (level < 0 || level >= static_cast<int>(levels_.size())) return 0;
  return levels_[level].size();
}

std::size_t Hierarchy::total_grids() const {
  std::size_t n = 0;
  for (auto& lv : levels_) n += lv.size();
  return n;
}

std::int64_t Hierarchy::total_cells() const {
  std::int64_t n = 0;
  for (auto& lv : levels_)
    for (auto& g : lv) n += g->box().volume();
  return n;
}

Grid* Hierarchy::insert_grid(std::unique_ptr<Grid> g) {
  ENZO_REQUIRE(!exec::in_phase(),
               "hierarchy mutation inside an executor phase");
  ++generation_;
  const int level = g->level();
  ENZO_REQUIRE(level >= 0, "negative level");
  ENZO_REQUIRE(level == 0 || g->parent() != nullptr,
               "refined grid inserted without parent");
  while (static_cast<int>(levels_.size()) <= level) {
    levels_.emplace_back();
    descriptors_.emplace_back();
  }
  levels_[level].push_back(std::move(g));
  refresh_descriptors(level);
  return levels_[level].back().get();
}

void Hierarchy::refresh_descriptors(int level) {
  while (static_cast<int>(descriptors_.size()) < static_cast<int>(levels_.size()))
    descriptors_.emplace_back();
  auto& list = descriptors_[level];
  list.clear();
  for (auto& g : levels_[level])
    list.push_back({g->id(), level, g->box(), /*owner_rank=*/0});
}

const std::vector<GridDescriptor>& Hierarchy::descriptors(int level) const {
  static const std::vector<GridDescriptor> empty;
  if (level < 0 || level >= static_cast<int>(descriptors_.size())) return empty;
  return descriptors_[level];
}

void Hierarchy::rebuild(int level, const FlagFn& flag) {
  ENZO_REQUIRE(!exec::in_phase(),
               "hierarchy mutation inside an executor phase");
  ++generation_;
  ENZO_REQUIRE(level >= 1, "cannot rebuild the root level");
  ENZO_REQUIRE(level < static_cast<int>(levels_.size()) + 1,
               "rebuild level beyond deepest+1");
  perf::TraceScope scope("rebuild", perf::component::kRebuild, level);
  static perf::Counter& rebuilds =
      perf::Registry::global().counter("mesh.rebuilds");
  rebuilds.add(1);
  const std::size_t grids_before = total_grids();
  const int r = params_.refine_factor;

  for (int l = level; l <= params_.max_level; ++l) {
    // ---- 1. refinement test on the (possibly just-rebuilt) parent level ----
    std::vector<Index3> flags;
    for (Grid* parent : grids(l - 1)) flag(*parent, flags);

    // Nesting guarantee: any cell under a current level l+1 grid must stay
    // refined, so flag its (l-1)-level footprint with one cell of padding.
    for (const Grid* gc : grids(l + 1)) {
      IndexBox foot = gc->box();
      for (int rr = 0; rr < 2; ++rr) foot = foot.coarsened(r);
      foot = foot.grown(1);
      const Index3 pdims = level_dims(l - 1);
      for (std::int64_t k = foot.lo[2]; k < foot.hi[2]; ++k)
        for (std::int64_t j = foot.lo[1]; j < foot.hi[1]; ++j)
          for (std::int64_t i = foot.lo[0]; i < foot.hi[0]; ++i) {
            Index3 p{i, j, k};
            bool ok = true;
            for (int d = 0; d < 3; ++d) {
              if (pdims[d] == 1) {
                p[d] = 0;
              } else if (params_.periodic) {
                p[d] = ((p[d] % pdims[d]) + pdims[d]) % pdims[d];
              } else if (p[d] < 0 || p[d] >= pdims[d]) {
                ok = false;
              }
            }
            if (ok) flags.push_back(p);
          }
    }

    // ---- buffer + dedupe ----------------------------------------------------
    if (!flags.empty()) {
      const Index3 pdims = level_dims(l - 1);
      const int b = kFlagBuffer;
      std::vector<Index3> grown;
      grown.reserve(flags.size() * 8);
      for (const Index3& p : flags)
        for (int dk = (pdims[2] > 1 ? -b : 0); dk <= (pdims[2] > 1 ? b : 0); ++dk)
          for (int dj = (pdims[1] > 1 ? -b : 0); dj <= (pdims[1] > 1 ? b : 0); ++dj)
            for (int di = (pdims[0] > 1 ? -b : 0); di <= (pdims[0] > 1 ? b : 0);
                 ++di) {
              Index3 q{p[0] + di, p[1] + dj, p[2] + dk};
              bool ok = true;
              for (int d = 0; d < 3; ++d) {
                if (pdims[d] == 1) continue;
                if (params_.periodic)
                  q[d] = ((q[d] % pdims[d]) + pdims[d]) % pdims[d];
                else if (q[d] < 0 || q[d] >= pdims[d])
                  ok = false;
              }
              if (ok) grown.push_back(q);
            }
      flags.swap(grown);
    }
    {
      std::unordered_set<std::uint64_t> seen;
      seen.reserve(flags.size());
      std::vector<Index3> unique;
      unique.reserve(flags.size());
      for (const Index3& p : flags)
        if (seen.insert(key_of(p)).second) unique.push_back(p);
      flags.swap(unique);
    }
    // Keep only flags actually covered by a parent grid (buffering can push
    // them off the refined region of level l-1).
    if (l - 1 > 0) {
      std::vector<Index3> covered;
      covered.reserve(flags.size());
      for (const Index3& p : flags)
        for (const Grid* parent : grids(l - 1))
          if (parent->box().contains(p)) {
            covered.push_back(p);
            break;
          }
      flags.swap(covered);
    }

    // ---- 2. cluster into rectangular regions --------------------------------
    std::vector<IndexBox> boxes = cluster_flags(flags, params_.cluster);

    // ---- 3. create the new grids, fill, and swap ----------------------------
    // Every canonical (cluster box × parent) piece becomes a fresh grid;
    // storage comes from the level's arena pool, so a steady rebuild
    // recycles the blocks the previous generation returned.
    if (static_cast<int>(levels_.size()) <= l) {
      levels_.emplace_back();
      descriptors_.emplace_back();
    }
    const auto& old = levels_[l];  // pre-rebuild grids, in level order
    std::vector<std::unique_ptr<Grid>> fresh;
    {
      perf::TraceScope arena_scope("arena", perf::component::kRebuild, l);
      for (const IndexBox& b : boxes) {
        // Subgrids must be rectangular and completely contained within a
        // single parent (§3.1): split cluster boxes along parent boundaries.
        for (Grid* parent : grids(l - 1)) {
          const IndexBox piece = b.intersect(parent->box());
          if (piece.empty()) continue;
          // Refine to level-l index space (degenerate axes stay width 1).
          IndexBox fine;
          const Index3 cdims = level_dims(l);
          const Index3 pdims = level_dims(l - 1);
          for (int d = 0; d < 3; ++d) {
            const int rd = static_cast<int>(cdims[d] / pdims[d]);
            fine.lo[d] = piece.lo[d] * rd;
            fine.hi[d] = piece.hi[d] * rd;
          }
          if (fine.volume() < params_.min_grid_cells) {
            // Too small to be worth a grid — but nesting flags guarantee any
            // such sliver has no grandchildren, so dropping it is safe.
            continue;
          }
          auto g = make_grid(l, fine);
          g->set_parent(parent);
          g->set_time(parent->time());
          g->set_old_time(parent->time());
          fill_active_from_parent(*g, *parent);
          fresh.push_back(std::move(g));
        }
      }
    }
    static perf::Counter& new_grids =
        perf::Registry::global().counter("arena.regrid_new_grids");
    new_grids.add(fresh.size());

    // Copy overlapping data from the old grids of this level (better than
    // interpolated parent data), then migrate particles.
    for (auto& g : fresh)
      for (auto& o : old) g->copy_active_from(*o, {0, 0, 0});

    // Particles: pull down from parents into new grids; push old-grid
    // particles either into the new grids or back up to the parent.  Each
    // new grid thus holds [parent pulls in parent order] + [old-grid
    // particles in old order].
    auto grid_for = [&](const Particle& p) -> Grid* {
      for (auto& g : fresh)
        if (g->contains_position(p.x)) return g.get();
      return nullptr;
    };
    for (Grid* parent : grids(l - 1)) {
      auto pp = parent->particles();
      std::vector<Particle> keep;
      keep.reserve(pp.size());
      for (Particle& p : pp) {
        if (Grid* g = grid_for(p))
          g->particles().push_back(p);
        else
          keep.push_back(p);
      }
      pp.swap(keep);
    }
    for (auto& o : old) {
      for (Particle& p : o->particles()) {
        if (Grid* g = grid_for(p)) {
          g->particles().push_back(p);
        } else {
          // Region no longer refined: hand the particle to the parent that
          // contains it.
          Grid* dest = nullptr;
          for (Grid* parent : grids(l - 1))
            if (parent->contains_position(p.x)) {
              dest = parent;
              break;
            }
          ENZO_REQUIRE(dest != nullptr, "particle fell outside the hierarchy");
          dest->particles().push_back(p);
        }
      }
    }

    // Swap in the new level.  Children of the old grids (level l+1) are
    // re-parented when their own rebuild iteration runs next; nothing
    // touches their parent pointers in between.
    levels_[l].swap(fresh);
    fresh.clear();

    // New grids snapshot their state for their future children's boundary
    // time interpolation.  This runs only after the old level is freed, so
    // the old-field buffers draw the blocks it just returned to the pool
    // rather than growing the pool by a level's worth of fields.  It is
    // byte-safe: store_old_fields reads only the grid's own fields, and
    // every particle is already placed.
    for (auto& g : levels_[l]) g->store_old_fields();
    refresh_descriptors(l);

    if (levels_[l].empty()) {
      // Nothing refined at this level: delete all deeper levels (their
      // particles must first be pushed up).
      for (int dl = static_cast<int>(levels_.size()) - 1; dl > l; --dl) {
        for (auto& g : levels_[dl])
          for (Particle& p : g->particles()) {
            Grid* dest = nullptr;
            for (Grid* parent : grids(l - 1))
              if (parent->contains_position(p.x)) {
                dest = parent;
                break;
              }
            ENZO_REQUIRE(dest != nullptr,
                         "particle fell outside the hierarchy");
            dest->particles().push_back(p);
          }
        levels_.pop_back();
        descriptors_.pop_back();
      }
      levels_.pop_back();
      descriptors_.pop_back();
      break;
    }
  }
  check_invariants();
  // Grid-churn statistics (§5: the hierarchy is rebuilt thousands of times).
  static perf::Gauge& grids_current =
      perf::Registry::global().gauge("mesh.grids_after_rebuild");
  static perf::Histogram& churn =
      perf::Registry::global().histogram("mesh.grids_per_rebuild");
  const std::size_t grids_after = total_grids();
  grids_current.set(static_cast<double>(grids_after));
  churn.observe(grids_after >= grids_before ? grids_after - grids_before
                                            : grids_before - grids_after);
}

void Hierarchy::check_invariants() const {
  for (int l = 0; l < static_cast<int>(levels_.size()); ++l) {
    const Index3 dims = level_dims(l);
    const auto& lv = levels_[l];
    ENZO_REQUIRE(l == 0 || !levels_[l - 1].empty(),
                 "level " + std::to_string(l) + " has grids but parent level is empty");
    for (std::size_t a = 0; a < lv.size(); ++a) {
      const Grid& g = *lv[a];
      ENZO_REQUIRE(g.level() == l, "grid level mismatch");
      for (int d = 0; d < 3; ++d) {
        ENZO_REQUIRE(g.box().lo[d] >= 0 && g.box().hi[d] <= dims[d],
                     "grid outside domain: " + g.box().str());
      }
      if (l > 0) {
        const Grid* parent = g.parent();
        ENZO_REQUIRE(parent != nullptr, "refined grid without parent");
        // Alignment and containment within the single parent.
        const Index3 pdims = level_dims(l - 1);
        IndexBox in_parent;
        for (int d = 0; d < 3; ++d) {
          const std::int64_t rd = dims[d] / pdims[d];
          ENZO_REQUIRE(g.box().lo[d] % rd == 0 && g.box().hi[d] % rd == 0,
                       "grid not aligned to parent cells: " + g.box().str());
          in_parent.lo[d] = g.box().lo[d] / rd;
          in_parent.hi[d] = g.box().hi[d] / rd;
        }
        ENZO_REQUIRE(parent->box().contains(in_parent),
                     "grid " + g.box().str() + " not contained in parent " +
                         parent->box().str());
        // Parent must actually live on the previous level.
        bool found = false;
        for (const auto& p : levels_[l - 1])
          if (p.get() == parent) found = true;
        ENZO_REQUIRE(found, "stale parent pointer");
      }
      // Non-overlap with same-level grids.
      for (std::size_t b = a + 1; b < lv.size(); ++b) {
        ENZO_REQUIRE(g.box().intersect(lv[b]->box()).empty(),
                     "overlapping grids at level " + std::to_string(l) + ": " +
                         g.box().str() + " and " + lv[b]->box().str());
      }
      // Particle ownership.
      for (const Particle& p : g.particles()) {
        ENZO_REQUIRE(g.contains_position(p.x),
                     "particle outside its owning grid");
      }
    }
  }
}

std::vector<std::size_t> Hierarchy::grids_per_level() const {
  std::vector<std::size_t> out;
  for (auto& lv : levels_) out.push_back(lv.size());
  return out;
}

std::vector<double> Hierarchy::work_per_level() const {
  // Work ≈ cells × number of (sub)timesteps the level takes per root step.
  std::vector<double> out;
  double steps = 1.0;
  for (auto& lv : levels_) {
    std::int64_t cells = 0;
    for (auto& g : lv) cells += g->box().volume();
    out.push_back(static_cast<double>(cells) * steps);
    steps *= params_.refine_factor;
  }
  return out;
}

}  // namespace enzo::mesh
