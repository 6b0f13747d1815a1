#include "tensor/arena.hpp"

#include <algorithm>

namespace chainnn {

TensorArena::~TensorArena() {
  // Allocator clients hold the arena by shared_ptr, so reaching the
  // destructor means no live blocks remain — only the freelist.
  trim();
}

void* TensorArena::allocate(std::size_t bytes) {
  {
    MutexLock lock(mu_);
    ++stats_.allocations;
    stats_.bytes_in_use += static_cast<std::int64_t>(bytes);
    stats_.high_water_bytes =
        std::max(stats_.high_water_bytes, stats_.bytes_in_use);
    auto it = freelist_.find(bytes);
    if (it != freelist_.end() && !it->second.empty()) {
      void* block = it->second.back();
      it->second.pop_back();
      ++stats_.reuses;
      stats_.freelist_bytes -= static_cast<std::int64_t>(bytes);
      return block;
    }
  }
  // The OS call happens outside the lock: concurrent requests allocating
  // fresh blocks should not serialize on each other.
  return ::operator new(bytes);
}

void TensorArena::release(void* block, std::size_t bytes) {
  MutexLock lock(mu_);
  freelist_[bytes].push_back(block);
  stats_.bytes_in_use -= static_cast<std::int64_t>(bytes);
  stats_.freelist_bytes += static_cast<std::int64_t>(bytes);
}

void TensorArena::trim() {
  std::unordered_map<std::size_t, std::vector<void*>> drained;
  {
    MutexLock lock(mu_);
    drained.swap(freelist_);
    stats_.freelist_bytes = 0;
  }
  for (auto& [bytes, blocks] : drained)
    for (void* block : blocks) ::operator delete(block);
}

ArenaStats TensorArena::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace chainnn
