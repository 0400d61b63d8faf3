#include "parallel/distributed_hierarchy.hpp"

#include <map>

#include "mesh/topology.hpp"
#include "util/error.hpp"

namespace enzo::parallel {

using mesh::Grid;

std::vector<ExchangeBlock> plan_sibling_exchange(const mesh::Hierarchy& h,
                                                 int level) {
  // Mirrors the serial sibling pass of mesh::set_boundary_values exactly —
  // same grid order, same shift order — so that applying blocks in plan
  // order reproduces its overwrite semantics bit for bit.
  std::vector<ExchangeBlock> plan;
  const auto grids = h.grids(level);
  if (grids.empty()) return plan;
  const mesh::OverlapTopology& topo = h.topology();
  for (std::size_t n = 0; n < grids.size(); ++n) {
    for (const mesh::SiblingLink& ln : topo.siblings(level, n)) {
      if (ln.overlap.empty()) continue;
      plan.push_back({grids[ln.src]->id(), grids[n]->id(), ln.overlap,
                      ln.shift});
    }
  }
  return plan;
}

namespace {

/// Pack the (global, unshifted-destination) region from the source grid.
std::vector<double> pack_block(const Grid& src, const ExchangeBlock& b) {
  std::vector<double> out;
  const auto& ov = b.region;
  out.reserve(static_cast<std::size_t>(ov.volume()) *
              src.field_list().size());
  for (mesh::Field f : src.field_list()) {
    const auto& a = src.field(f);
    for (std::int64_t gk = ov.lo[2]; gk < ov.hi[2]; ++gk)
      for (std::int64_t gj = ov.lo[1]; gj < ov.hi[1]; ++gj)
        for (std::int64_t gi = ov.lo[0]; gi < ov.hi[0]; ++gi) {
          const int si =
              static_cast<int>(gi - b.shift[0] - src.box().lo[0]) + src.ng(0);
          const int sj =
              static_cast<int>(gj - b.shift[1] - src.box().lo[1]) + src.ng(1);
          const int sk =
              static_cast<int>(gk - b.shift[2] - src.box().lo[2]) + src.ng(2);
          out.push_back(a(si, sj, sk));
        }
  }
  return out;
}

void unpack_block(Grid& dst, const ExchangeBlock& b,
                  const std::vector<double>& payload) {
  const auto& ov = b.region;
  std::size_t c = 0;
  for (mesh::Field f : dst.field_list()) {
    const mesh::FieldView a = dst.field(f);
    for (std::int64_t gk = ov.lo[2]; gk < ov.hi[2]; ++gk)
      for (std::int64_t gj = ov.lo[1]; gj < ov.hi[1]; ++gj)
        for (std::int64_t gi = ov.lo[0]; gi < ov.hi[0]; ++gi) {
          const int di = static_cast<int>(gi - dst.box().lo[0]) + dst.ng(0);
          const int dj = static_cast<int>(gj - dst.box().lo[1]) + dst.ng(1);
          const int dk = static_cast<int>(gk - dst.box().lo[2]) + dst.ng(2);
          a(di, dj, dk) = payload[c++];
        }
  }
  ENZO_REQUIRE(c == payload.size(), "exchange payload size mismatch");
}

}  // namespace

CommStats distributed_sibling_exchange(mesh::Hierarchy& h, int level,
                                       const std::vector<int>& owner,
                                       int nranks) {
  auto grids = h.grids(level);
  ENZO_REQUIRE(owner.size() == grids.size(),
               "owner list does not match grid count");
  std::map<std::uint64_t, Grid*> by_id;
  std::map<std::uint64_t, int> owner_of;
  for (std::size_t i = 0; i < grids.size(); ++i) {
    by_id[grids[i]->id()] = grids[i];
    ENZO_REQUIRE(owner[i] >= 0 && owner[i] < nranks, "owner rank out of range");
    owner_of[grids[i]->id()] = owner[i];
  }
  const auto plan = plan_sibling_exchange(h, level);
  Transport transport(nranks);

  run_ranks(transport, [&](int rank) {
    // Phase 1: post every send for blocks whose source this rank owns.
    for (std::size_t bi = 0; bi < plan.size(); ++bi) {
      const ExchangeBlock& b = plan[bi];
      if (owner_of.at(b.src_id) != rank) continue;
      Message m;
      m.src = rank;
      m.dst = owner_of.at(b.dst_id);
      m.tag = static_cast<int>(bi);
      m.object_id = b.dst_id;
      m.payload = pack_block(*by_id.at(b.src_id), b);
      transport.send(std::move(m));
    }
    // Phase 2: receive and apply, in plan order, for destinations this rank
    // owns (direct source-addressed receives: the sterile metadata told us
    // exactly who sends what — no probes).
    for (std::size_t bi = 0; bi < plan.size(); ++bi) {
      const ExchangeBlock& b = plan[bi];
      if (owner_of.at(b.dst_id) != rank) continue;
      Message m = transport.receive(rank, owner_of.at(b.src_id),
                                    static_cast<int>(bi), b.dst_id);
      unpack_block(*by_id.at(b.dst_id), b, m.payload);
    }
    transport.barrier();
  });
  return transport.stats();
}

}  // namespace enzo::parallel
