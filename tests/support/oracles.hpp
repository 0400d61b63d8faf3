#pragma once
// Test-only reference implementations ("oracles") for the mesh layer's
// production fast paths.
//
// The production code has exactly one path for each of these mechanisms:
// overlap queries go through the regrid-cached mesh::OverlapTopology, grid
// storage comes from the per-level arenas, and RebuildHierarchy keeps grids
// whose box survives a regrid.  The straightforward algorithms those paths
// must reproduce byte for byte live here, where the equivalence tests (and
// bench/overlap_topology) can run them side by side with production:
//
//   * all-pairs sibling/periodic-shift enumeration, the all-pairs exchange
//     plan, find_if parent grouping, and linear grid_at / finest-owner
//     scans — the references for OverlapTopology and its consumers;
//   * the full-rebuild fill — every grid of a rebuilt level freshly made,
//     interpolated from its parent, overwritten by every old same-level
//     grid in old order, then snapshotted, with particles appended in the
//     rebuild's order, on heap-fresh grids — the reference for the pooled
//     regrid.
//
// Header-only and free of gtest so benches can include it too.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mesh/grid.hpp"
#include "mesh/hierarchy.hpp"
#include "mesh/interpolate.hpp"
#include "mesh/topology.hpp"
#include "parallel/distributed_hierarchy.hpp"

namespace enzo::oracle {

// ---- overlap queries --------------------------------------------------------

/// All-pairs sibling enumeration for grid `i` of `level`, in the canonical
/// order (sources in level order, shifts nested kz/ky/kx over
/// {0, +dims, -dims}): every shifted source box touching the grid's "wide"
/// box (ghost-grown, by at least one cell on non-degenerate axes), with the
/// overlap against the ghost-grown box.
inline std::vector<mesh::SiblingLink> sibling_links(const mesh::Hierarchy& h,
                                                    int level,
                                                    std::size_t i) {
  const auto lv = h.grids(level);
  const mesh::Index3 dims = h.level_dims(level);
  const auto shifts = mesh::periodic_image_shifts(dims, h.params().periodic);
  const mesh::Grid* g = lv[i];
  mesh::IndexBox ghost = g->box(), wide = g->box();
  for (int d = 0; d < 3; ++d) {
    const std::int64_t ng = g->ng(d);
    const std::int64_t w = std::max<std::int64_t>(ng, dims[d] > 1 ? 1 : 0);
    ghost.lo[d] -= ng;
    ghost.hi[d] += ng;
    wide.lo[d] -= w;
    wide.hi[d] += w;
  }
  std::vector<mesh::SiblingLink> out;
  for (std::size_t j = 0; j < lv.size(); ++j)
    for (std::int64_t kz : shifts[2])
      for (std::int64_t ky : shifts[1])
        for (std::int64_t kx : shifts[0]) {
          if (j == i && kx == 0 && ky == 0 && kz == 0) continue;
          const mesh::IndexBox sb = lv[j]->box().shifted({kx, ky, kz});
          if (wide.intersect(sb).empty()) continue;
          out.push_back({static_cast<std::uint32_t>(j), {kx, ky, kz},
                         ghost.intersect(sb)});
        }
  return out;
}

/// All-pairs sibling-exchange plan: every nonempty (ghost-grown box ∩
/// shifted sibling) overlap, destinations in level order.
inline std::vector<parallel::ExchangeBlock> exchange_plan(
    const mesh::Hierarchy& h, int level) {
  const auto grids = h.grids(level);
  const auto shifts = mesh::periodic_image_shifts(h.level_dims(level),
                                                  h.params().periodic);
  std::vector<parallel::ExchangeBlock> plan;
  for (const mesh::Grid* g : grids) {
    mesh::IndexBox total = g->box();
    for (int d = 0; d < 3; ++d) {
      total.lo[d] -= g->ng(d);
      total.hi[d] += g->ng(d);
    }
    for (const mesh::Grid* s : grids)
      for (std::int64_t kz : shifts[2])
        for (std::int64_t ky : shifts[1])
          for (std::int64_t kx : shifts[0]) {
            if (s == g && kx == 0 && ky == 0 && kz == 0) continue;
            const mesh::IndexBox ov =
                total.intersect(s->box().shifted({kx, ky, kz}));
            if (!ov.empty())
              plan.push_back({s->id(), g->id(), ov, {kx, ky, kz}});
          }
  }
  return plan;
}

/// Children of one parent, in first-seen child order.
using ConstParentGroup =
    std::pair<const mesh::Grid*, std::vector<const mesh::Grid*>>;

/// The level's grids grouped by parent in first-seen order (linear find_if
/// per child).
inline std::vector<ConstParentGroup> children_by_parent(
    const mesh::Hierarchy& h, int level) {
  std::vector<ConstParentGroup> out;
  if (level < 1) return out;
  for (const mesh::Grid* c : h.grids(level)) {
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& gp) {
      return gp.first == c->parent();
    });
    if (it == out.end())
      out.emplace_back(c->parent(), std::vector<const mesh::Grid*>{c});
    else
      it->second.push_back(c);
  }
  return out;
}

/// Element-wise equality of a cached grouping and the find_if reference.
inline bool same_groups(const std::vector<mesh::ParentGroup>& got,
                        const std::vector<ConstParentGroup>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t n = 0; n < got.size(); ++n) {
    if (got[n].first != want[n].first ||
        got[n].second.size() != want[n].second.size())
      return false;
    for (std::size_t k = 0; k < want[n].second.size(); ++k)
      if (got[n].second[k] != want[n].second[k]) return false;
  }
  return true;
}

/// First grid of `level`, in level order, whose active box contains p.
inline const mesh::Grid* grid_at(const mesh::Hierarchy& h, int level,
                                 const mesh::Index3& p) {
  for (const mesh::Grid* g : h.grids(level))
    if (g->box().contains(p)) return g;
  return nullptr;
}

/// Deepest-first linear search for the grid containing position x.
inline const mesh::Grid* finest_owner(const mesh::Hierarchy& h,
                                      const ext::PosVec& x) {
  for (int l = h.deepest_level(); l >= 0; --l)
    for (const mesh::Grid* g : h.grids(l))
      if (g->contains_position(x)) return g;
  return nullptr;
}

/// Compare every query the topology cache answers against the scans above:
/// sibling links (src, shift, overlap, order), parent groups, grid_at for
/// every cell of every level, finest_owner for every particle, and
/// plan_sibling_exchange.  Returns "" on agreement, else the first mismatch.
inline std::string topology_mismatch(const mesh::Hierarchy& h) {
  std::ostringstream err;
  const mesh::OverlapTopology& topo = h.topology();
  if (topo.generation() != h.generation()) return "stale topology";
  for (int l = 0; l <= h.deepest_level(); ++l) {
    const auto lv = h.grids(l);
    if (topo.level_grids(l).size() != lv.size()) {
      err << "level " << l << ": topology holds " << topo.level_grids(l).size()
          << " grids, hierarchy " << lv.size();
      return err.str();
    }
    for (std::size_t i = 0; i < lv.size(); ++i) {
      if (topo.level_grids(l)[i] != lv[i]) {
        err << "level " << l << " grid " << i << ": grid order differs";
        return err.str();
      }
      const auto ref = sibling_links(h, l, i);
      const auto range = topo.siblings(l, i);
      if (range.size() != ref.size()) {
        err << "level " << l << " grid " << i << ": " << range.size()
            << " links, all-pairs finds " << ref.size();
        return err.str();
      }
      std::size_t k = 0;
      for (const mesh::SiblingLink& ln : range) {
        if (ln.src != ref[k].src || ln.shift != ref[k].shift ||
            ln.overlap != ref[k].overlap) {
          err << "level " << l << " grid " << i << " link " << k
              << ": src " << ln.src << " vs " << ref[k].src << ", overlap "
              << ln.overlap.str() << " vs " << ref[k].overlap.str();
          return err.str();
        }
        ++k;
      }
    }
    if (!same_groups(topo.children_by_parent(l), children_by_parent(h, l))) {
      err << "level " << l << ": parent groups differ";
      return err.str();
    }
    const mesh::Index3 dims = h.level_dims(l);
    for (std::int64_t k = 0; k < dims[2]; ++k)
      for (std::int64_t j = 0; j < dims[1]; ++j)
        for (std::int64_t i = 0; i < dims[0]; ++i) {
          const mesh::Index3 p{i, j, k};
          if (topo.grid_at(l, p) != grid_at(h, l, p)) {
            err << "level " << l << ": grid_at(" << i << "," << j << "," << k
                << ") differs";
            return err.str();
          }
        }
    const auto plan = parallel::plan_sibling_exchange(h, l);
    const auto ref_plan = exchange_plan(h, l);
    if (plan.size() != ref_plan.size()) {
      err << "level " << l << ": exchange plan has " << plan.size()
          << " blocks, all-pairs " << ref_plan.size();
      return err.str();
    }
    for (std::size_t b = 0; b < plan.size(); ++b)
      if (plan[b].src_id != ref_plan[b].src_id ||
          plan[b].dst_id != ref_plan[b].dst_id ||
          plan[b].region != ref_plan[b].region ||
          plan[b].shift != ref_plan[b].shift) {
        err << "level " << l << ": exchange block " << b << " differs";
        return err.str();
      }
  }
  for (int l = 0; l <= h.deepest_level(); ++l)
    for (const mesh::Grid* g : h.grids(l))
      for (const mesh::Particle& p : g->particles())
        if (topo.finest_owner(p.x) != finest_owner(h, p.x)) {
          err << "finest_owner differs for particle " << p.id;
          return err.str();
        }
  return "";
}

// ---- full rebuild -----------------------------------------------------------

using Level = std::vector<std::unique_ptr<mesh::Grid>>;

/// A heap-backed copy of a grid's active state: spec, every field byte
/// (ghosts included), particles, and clock.  No parent, no old fields.
inline std::unique_ptr<mesh::Grid> clone_grid(const mesh::Grid& g) {
  auto c = std::make_unique<mesh::Grid>(g.spec(), g.field_list());
  for (mesh::Field f : g.field_list()) {
    const mesh::ConstFieldView src = g.field(f);
    std::copy(src.data(), src.data() + src.size(), c->field(f).data());
  }
  for (const mesh::Particle& p : g.particles()) c->particles().push_back(p);
  c->set_time(g.time());
  c->set_old_time(g.old_time());
  return c;
}

/// What rebuild(level) reads: copies of levels level-1 and deeper, taken
/// before the call.
struct RebuildSnapshot {
  int level = 1;
  std::vector<Level> levels;  ///< levels[k] holds level (level - 1 + k)
};

inline RebuildSnapshot snapshot_before_rebuild(const mesh::Hierarchy& h,
                                               int level) {
  RebuildSnapshot s;
  s.level = level;
  for (int l = level - 1; l <= h.deepest_level(); ++l) {
    Level copies;
    for (const mesh::Grid* g : h.grids(l)) copies.push_back(clone_grid(*g));
    s.levels.push_back(std::move(copies));
  }
  return s;
}

/// Replay rebuild(snap.level) as a full rebuild onto the structure (boxes
/// and parents) the production rebuild chose, which `after` now holds:
/// for each rebuilt level, a fresh grid per box, interpolated from its
/// parent, overwritten by every old same-level grid in old order; parent
/// particles pulled down in parent order, then old-grid particles in old
/// order (pushed up to the first containing parent when no new grid takes
/// them); store_old_fields.  A level that comes out empty pushes every
/// deeper old level's particles up, deepest first.  Returns the expected
/// levels snap.level - 1, snap.level, ... in order.
inline std::vector<Level> full_rebuild(const mesh::Hierarchy& after,
                                       RebuildSnapshot snap) {
  const int first = snap.level;
  const auto old_level = [&](int l) -> Level& {
    return snap.levels[static_cast<std::size_t>(l - first + 1)];
  };
  const int old_deepest = first - 2 + static_cast<int>(snap.levels.size());
  std::vector<Level> out;
  Level parents = std::move(snap.levels[0]);
  auto push_up = [&](const mesh::Particle& p) {
    for (auto& par : parents)
      if (par->contains_position(p.x)) {
        par->particles().push_back(p);
        return;
      }
  };
  for (int l = first; l <= after.params().max_level; ++l) {
    Level old;
    if (l <= old_deepest) old = std::move(old_level(l));
    const auto made_parents = after.grids(l - 1);
    Level fresh;
    for (const mesh::Grid* m : after.grids(l)) {
      const auto pit =
          std::find(made_parents.begin(), made_parents.end(), m->parent());
      mesh::Grid* parent = pit == made_parents.end()
                               ? nullptr
                               : parents[static_cast<std::size_t>(
                                             pit - made_parents.begin())]
                                     .get();
      if (parent == nullptr) return {};
      auto g = std::make_unique<mesh::Grid>(after.make_spec(l, m->box()),
                                            after.params().fields);
      g->set_parent(parent);
      g->set_time(parent->time());
      g->set_old_time(parent->time());
      mesh::fill_active_from_parent(*g, *parent);
      fresh.push_back(std::move(g));
    }
    for (auto& g : fresh)
      for (auto& o : old) g->copy_active_from(*o, {0, 0, 0});

    auto ordinal_for = [&](const mesh::Particle& p) -> std::ptrdiff_t {
      for (std::size_t i = 0; i < fresh.size(); ++i)
        if (fresh[i]->contains_position(p.x))
          return static_cast<std::ptrdiff_t>(i);
      return -1;
    };
    std::vector<std::vector<mesh::Particle>> staged(fresh.size());
    for (auto& par : parents) {
      std::vector<mesh::Particle> keep;
      for (const mesh::Particle& p : par->particles()) {
        const std::ptrdiff_t i = ordinal_for(p);
        if (i >= 0)
          staged[static_cast<std::size_t>(i)].push_back(p);
        else
          keep.push_back(p);
      }
      par->particles().swap(keep);
    }
    for (auto& o : old)
      for (const mesh::Particle& p : o->particles()) {
        const std::ptrdiff_t i = ordinal_for(p);
        if (i >= 0)
          staged[static_cast<std::size_t>(i)].push_back(p);
        else
          push_up(p);
      }
    for (std::size_t i = 0; i < fresh.size(); ++i)
      fresh[i]->particles().swap(staged[i]);
    for (auto& g : fresh) g->store_old_fields();

    if (fresh.empty()) {
      for (int dl = old_deepest; dl > l; --dl)
        for (auto& g : old_level(dl))
          for (const mesh::Particle& p : g->particles()) push_up(p);
      out.push_back(std::move(parents));
      return out;
    }
    out.push_back(std::move(parents));
    parents = std::move(fresh);
  }
  out.push_back(std::move(parents));
  return out;
}

/// Compare the hierarchy after rebuild(snap.level) with the full-rebuild
/// replay: per grid of level snap.level - 1 and deeper, the box, parent
/// ordinal, clock, every field byte, every old-field byte (rebuilt levels)
/// and the particle-id order.  Returns "" on agreement, else the first
/// mismatch.
inline std::string full_rebuild_mismatch(const mesh::Hierarchy& h,
                                         RebuildSnapshot snap) {
  const int first = snap.level;
  const std::vector<Level> expect = full_rebuild(h, std::move(snap));
  if (expect.empty())
    return "a rebuilt grid's parent is not on its parent level";
  const int levels = h.deepest_level() - first + 2;
  if (static_cast<int>(expect.size()) != levels)
    return "full rebuild yields " + std::to_string(expect.size()) +
           " levels from " + std::to_string(first - 1) + ", production " +
           std::to_string(levels);
  auto bytes_equal = [](mesh::ConstFieldView a, mesh::ConstFieldView b) {
    return a.size() == b.size() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  };
  for (int k = 0; k < levels; ++k) {
    const int l = first - 1 + k;
    const auto got = h.grids(l);
    const Level& want = expect[static_cast<std::size_t>(k)];
    if (got.size() != want.size())
      return "level " + std::to_string(l) + ": " +
             std::to_string(got.size()) + " grids, full rebuild " +
             std::to_string(want.size());
    const auto got_parents = h.grids(l - 1);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const mesh::Grid& g = *got[i];
      const mesh::Grid& w = *want[i];
      const std::string where = "level " + std::to_string(l) + " grid " +
                                std::to_string(i) + " " + g.box().str() + ": ";
      if (g.box() != w.box()) return where + "box differs";
      if (g.time() != w.time() || g.old_time() != w.old_time())
        return where + "clock differs";
      if (l >= first) {
        const auto pit =
            std::find(got_parents.begin(), got_parents.end(), g.parent());
        if (pit == got_parents.end() ||
            expect[static_cast<std::size_t>(k - 1)]
                    [static_cast<std::size_t>(pit - got_parents.begin())]
                        .get() != w.parent())
          return where + "parent differs";
      }
      for (mesh::Field f : g.field_list()) {
        if (!bytes_equal(g.field(f), w.field(f)))
          return where + "field " + std::string(mesh::field_name(f)) +
                 " bytes differ";
        if (l >= first && !bytes_equal(g.old_field(f), w.old_field(f)))
          return where + "old field " + std::string(mesh::field_name(f)) +
                 " bytes differ";
      }
      const auto gp = g.particles();
      const auto wp = w.particles();
      if (gp.size() != wp.size()) return where + "particle count differs";
      for (std::size_t n = 0; n < gp.size(); ++n)
        if (gp[n].id != wp[n].id) return where + "particle order differs";
    }
  }
  return "";
}

}  // namespace enzo::oracle
