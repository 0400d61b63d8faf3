#pragma once
// Grid storage layer: arena-backed buffers and the view/handle API.
//
// Grids no longer expose util::Array3 members — every accessor returns a
// FieldView / ParticleView handle, so callers never observe where the bytes
// live (heap, per-level arena block, scratch pool).  Buffer3 is the owning
// side: a shaped block on loan from a util::Arena (or the aligned heap
// fallback when unattached), released back to the pool on destruction so
// regrids recycle storage instead of churning the allocator (§5).
//
// StorageArena bundles the per-level double arena with a particle-vector
// pool; Hierarchy owns one per level (shared_ptr — grids keep a reference
// so teardown order is never a hazard).

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ext/position.hpp"
#include "util/arena.hpp"
#include "util/array3.hpp"

namespace enzo::mesh {

/// Dark-matter particle (kept in mesh to avoid a module cycle; the nbody
/// module provides the solvers that act on these).
struct Particle {
  ext::PosVec x{};                 ///< absolute position, code units [0,1)
  std::array<double, 3> v{};       ///< peculiar velocity, code units
  double mass = 0.0;               ///< code mass (density × root-cell volume)
  std::uint64_t id = 0;
};

/// Span-like handles over grid field storage (see util::ArrayView3 for the
/// shallow-const semantics).
using FieldView = util::ArrayView3<double>;
using ConstFieldView = util::ArrayView3<const double>;

/// An owning, shaped 3-d double buffer whose storage is on loan from a
/// util::Arena (or the aligned heap fallback when no arena is attached).
/// Move-only; resize always writes every element (matching Array3::resize's
/// assign semantics) so recycled blocks are bitwise indistinguishable from
/// fresh ones.
class Buffer3 {
 public:
  Buffer3() = default;
  ~Buffer3() { release(); }
  Buffer3(Buffer3&& o) noexcept { move_from(o); }
  Buffer3& operator=(Buffer3&& o) noexcept {
    if (this != &o) {
      release();
      move_from(o);
    }
    return *this;
  }
  Buffer3(const Buffer3&) = delete;
  Buffer3& operator=(const Buffer3&) = delete;

  /// Attach to an arena; must be called while empty (before first resize).
  void set_arena(util::Arena* a);

  /// Shape to (nx,ny,nz) and set every element to `fill`, acquiring a
  /// (possibly recycled) block when capacity is insufficient.
  void resize(int nx, int ny, int nz, double fill = 0.0);

  /// Return the block to its arena/heap and go empty (0×0×0).
  void release();

  void fill(double v) { view().fill(v); }

  /// Become a same-shaped copy of `o` (contents included).
  void copy_from(const Buffer3& o);

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] int nz() const { return nz_; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(nx_) * ny_ * nz_;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Rounded capacity of the held block in doubles (0 when empty).  Lets
  /// owners of long-lived scratch decide when a shrinking shape should
  /// release the block back to its size class instead of squatting on it.
  [[nodiscard]] std::size_t capacity() const { return block_.capacity; }

  [[nodiscard]] FieldView view() { return {block_.ptr, nx_, ny_, nz_}; }
  [[nodiscard]] ConstFieldView view() const {
    return {block_.ptr, nx_, ny_, nz_};
  }

  double* data() { return block_.ptr; }
  const double* data() const { return block_.ptr; }

 private:
  void move_from(Buffer3& o) {
    arena_ = o.arena_;
    block_ = o.block_;
    nx_ = o.nx_;
    ny_ = o.ny_;
    nz_ = o.nz_;
    o.block_ = {};
    o.nx_ = o.ny_ = o.nz_ = 0;
  }

  util::Arena* arena_ = nullptr;  // nullptr -> aligned heap fallback
  util::ArenaBlock block_;
  int nx_ = 0, ny_ = 0, nz_ = 0;
};

/// Forwarding handle over a grid's particle list.  Like FieldView it is a
/// shallow-const span-style handle: copying the view aliases the same
/// underlying vector.
class ParticleView {
 public:
  explicit ParticleView(std::vector<Particle>& v) : v_(&v) {}

  [[nodiscard]] std::size_t size() const { return v_->size(); }
  [[nodiscard]] bool empty() const { return v_->empty(); }
  Particle& operator[](std::size_t i) const { return (*v_)[i]; }
  Particle* begin() const { return v_->data(); }
  Particle* end() const { return v_->data() + v_->size(); }
  Particle* data() const { return v_->data(); }
  void push_back(const Particle& p) const { v_->push_back(p); }
  void reserve(std::size_t n) const { v_->reserve(n); }
  void resize(std::size_t n) const { v_->resize(n); }
  void clear() const { v_->clear(); }
  void swap(std::vector<Particle>& other) const { v_->swap(other); }

 private:
  std::vector<Particle>* v_;
};

class ConstParticleView {
 public:
  explicit ConstParticleView(const std::vector<Particle>& v) : v_(&v) {}

  [[nodiscard]] std::size_t size() const { return v_->size(); }
  [[nodiscard]] bool empty() const { return v_->empty(); }
  const Particle& operator[](std::size_t i) const { return (*v_)[i]; }
  const Particle* begin() const { return v_->data(); }
  const Particle* end() const { return v_->data() + v_->size(); }
  const Particle* data() const { return v_->data(); }

 private:
  const std::vector<Particle>* v_;
};

/// Per-level storage pool: the double arena for field blocks plus a
/// capacity-preserving particle-vector pool, so a rebuilt level reuses both
/// kinds of storage from the generation it replaced.
class StorageArena {
 public:
  [[nodiscard]] util::Arena& doubles() { return arena_; }

  /// An empty particle vector, recycled (capacity intact) when one is
  /// available.
  [[nodiscard]] std::vector<Particle> acquire_particles();
  void release_particles(std::vector<Particle>&& v);

 private:
  util::Arena arena_;
  std::mutex mu_;
  std::vector<std::vector<Particle>> particle_pool_;
};

}  // namespace enzo::mesh
