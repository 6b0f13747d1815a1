// TensorArena — a pooled allocator for the serving hot path's tensors.
//
// Every layer of every request allocates the same handful of buffer
// sizes (a VGG-16 request allocates the same 13 ofmap surfaces as the
// previous one), but the default allocator hands each of them to the OS
// and back. A TensorArena keeps released blocks on an exact-size
// freelist instead: the first request of a shape pays the OS, every
// later identical allocation is a pop. Blocks come from ::operator new
// (so alignment suits any tensor element type) and return to the OS only
// when the arena dies or trim() is called. So the freelist keeps a block
// of every size it ever served: surfaces that live for one layer (the
// int64 accumulators, the MAC kernel's scratch) come from the heap
// instead, where malloc recycles one region across sizes.
//
// Lifetime: ArenaAllocator holds the arena by shared_ptr, so a tensor
// allocated from an arena keeps the arena alive however far it escapes
// (per-layer results outlive the request that produced them — a
// raw-pointer arena would dangle). "Request-scoped" therefore means the
// request's working tensors return to the freelist as they are
// destroyed during and at the end of the request, ready for the next
// one — not that the arena frees memory mid-flight.
//
// Thread safety: all arena operations lock a single mutex, so runs on
// several threads may share one arena; the annotations below let
// clang's -Wthread-safety prove the locking. The serving fleet's chips
// keep no arena: a freelist that holds a block of every ofmap size a
// chip ever served grows with the mix of models, while malloc recycles
// one region across sizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace chainnn {

struct ArenaStats {
  std::int64_t bytes_in_use = 0;      // held by live tensors right now
  std::int64_t high_water_bytes = 0;  // peak bytes_in_use over the life
  std::int64_t freelist_bytes = 0;    // retained, awaiting reuse
  std::int64_t allocations = 0;       // total allocate() calls served
  std::int64_t reuses = 0;            // subset served from the freelist

  [[nodiscard]] double reuse_rate() const {
    return allocations > 0
               ? static_cast<double>(reuses) / static_cast<double>(allocations)
               : 0.0;
  }
};

class TensorArena {
 public:
  TensorArena() = default;
  ~TensorArena();

  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;

  // A block of at least `bytes`, aligned for any fundamental type:
  // popped from the freelist when an identically-sized block was
  // released before, fresh from ::operator new otherwise.
  [[nodiscard]] void* allocate(std::size_t bytes);
  // Returns a block to the freelist. `bytes` must be the size it was
  // allocated with (the allocator contract already guarantees this).
  void release(void* block, std::size_t bytes);

  // Hands every freelist block back to the OS (live blocks are
  // untouched). Stats other than freelist_bytes are preserved.
  void trim();

  [[nodiscard]] ArenaStats stats() const;

 private:
  mutable Mutex mu_;
  // Exact-size buckets: tensor shapes repeat across layers/requests, so
  // exact matching reuses aggressively without the waste of rounding.
  std::unordered_map<std::size_t, std::vector<void*>> freelist_
      CHAINNN_GUARDED_BY(mu_);
  ArenaStats stats_ CHAINNN_GUARDED_BY(mu_);
};

// std-compatible allocator over an optional TensorArena. Three
// deliberate choices:
//   * construct() with no arguments default-initializes instead of
//     value-initializing, which is what makes Tensor's Uninit tag skip
//     the zero-fill for outputs every element of which is overwritten;
//     explicit fills (Tensor's zeroing and fill constructors pass a
//     value) are unaffected.
//   * a null arena falls back to ::operator new/delete, so default
//     Tensors behave exactly as before.
//   * all propagate_on_* are true and copies keep the source allocator:
//     the allocator must travel with (and outlive decisions about) the
//     memory it manages, and the shared_ptr makes that safe.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  ArenaAllocator() = default;
  explicit ArenaAllocator(std::shared_ptr<TensorArena> arena)
      : arena_(std::move(arena)) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other)  // NOLINT(runtime/explicit)
      : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (arena_) return static_cast<T*>(arena_->allocate(bytes));
    return static_cast<T*>(::operator new(bytes));
  }
  void deallocate(T* p, std::size_t n) {
    if (arena_)
      arena_->release(p, n * sizeof(T));
    else
      ::operator delete(p);
  }

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0)
      ::new (static_cast<void*>(p)) U;  // default-init: Uninit support
    else
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  [[nodiscard]] const std::shared_ptr<TensorArena>& arena() const {
    return arena_;
  }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }

 private:
  std::shared_ptr<TensorArena> arena_;
};

}  // namespace chainnn
