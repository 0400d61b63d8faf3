#include "mesh/field_storage.hpp"

#include <cstring>

#include "util/error.hpp"

namespace enzo::mesh {

void Buffer3::set_arena(util::Arena* a) {
  ENZO_REQUIRE(block_.ptr == nullptr,
               "Buffer3::set_arena on a non-empty buffer");
  arena_ = a;
}

void Buffer3::resize(int nx, int ny, int nz, double fill) {
  ENZO_REQUIRE(nx >= 0 && ny >= 0 && nz >= 0, "negative Buffer3 extent");
  const std::size_t n =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
      static_cast<std::size_t>(nz);
  if (n > block_.capacity) {
    release();
    block_ = arena_ != nullptr ? arena_->acquire(n)
                               : util::Arena::heap_acquire(n);
  }
  nx_ = nx;
  ny_ = ny;
  nz_ = nz;
  if (n > 0) std::fill(block_.ptr, block_.ptr + n, fill);
}

void Buffer3::release() {
  if (block_.ptr != nullptr) {
    if (arena_ != nullptr)
      arena_->release(std::move(block_));
    else
      util::Arena::heap_release(std::move(block_));
  }
  nx_ = ny_ = nz_ = 0;
}

void Buffer3::copy_from(const Buffer3& o) {
  const std::size_t n = o.size();
  if (n > block_.capacity) {
    release();
    block_ = arena_ != nullptr ? arena_->acquire(n)
                               : util::Arena::heap_acquire(n);
  }
  nx_ = o.nx_;
  ny_ = o.ny_;
  nz_ = o.nz_;
  if (n > 0) std::memcpy(block_.ptr, o.block_.ptr, n * sizeof(double));
}

std::vector<Particle> StorageArena::acquire_particles() {
  std::lock_guard<std::mutex> lock(mu_);
  if (particle_pool_.empty()) return {};
  std::vector<Particle> v = std::move(particle_pool_.back());
  particle_pool_.pop_back();
  return v;
}

void StorageArena::release_particles(std::vector<Particle>&& v) {
  if (v.capacity() == 0) return;
  v.clear();
  std::lock_guard<std::mutex> lock(mu_);
  particle_pool_.push_back(std::move(v));
}

}  // namespace enzo::mesh
