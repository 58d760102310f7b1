// Bump/region allocator for per-cell simulation state (DESIGN.md §17).
//
// The scheduler's memo-miss path builds a FRESH Node (or SmpNode) + BMC per
// cell: ~5 MB of cache line arrays, TLB entries and DRAM row buffers that
// live for exactly one chunk simulation and are then torn down. Under the
// `--jobs` fan-out every worker hammers the global allocator with the same
// alloc/free pattern — glibc answers the large L3 vector with mmap/munmap,
// so every cell pays page faults on top of malloc metadata. The arena keeps
// one geometrically-grown region per worker thread, hands out aligned bumps,
// and recycles the whole region with a pointer reset between cells.
//
// Bit-identity: allocation placement is host-side bookkeeping only — no
// simulated quantity ever depends on where the host put a vector — so the
// arena is a pure performance knob. The differential tests assert it
// (tests/test_memo_store.cpp, tests/test_scheduler.cpp digest grids).
//
// Usage contract:
//  * CellArenaScope installs this thread's arena as the ambient allocation
//    target and resets it; containers built under the scope draw from it.
//  * Everything allocated under a scope must be destroyed before the scope
//    exits (the Node/SmpNode graph is function-local in simulate_chunk /
//    simulate_corun_cell, so the contract holds by construction).
//  * CellAllocator captures the ambient arena AT CONSTRUCTION: containers
//    created outside any scope (long-lived slot nodes, benchmarks with the
//    arena disabled) get a null arena and fall back to the heap.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace pcap::util {

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Aligned bump allocation. Falls back to a fresh (geometrically larger)
  /// block when the current one is exhausted.
  void* allocate(std::size_t bytes, std::size_t align) {
    void* p = try_bump(bytes, align);
    return p != nullptr ? p : allocate_slow(bytes, align);
  }

  /// Recycles every block: the memory stays reserved (and, crucially, the
  /// pages stay mapped and warm), only the bump pointers rewind.
  void reset() {
    block_ = 0;
    if (!blocks_.empty()) {
      ptr_ = blocks_[0].data.get();
      end_ = ptr_ + blocks_[0].size;
    } else {
      ptr_ = end_ = nullptr;
    }
  }

  /// Total bytes reserved across blocks (tests / telemetry).
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* try_bump(std::size_t bytes, std::size_t align) {
    std::uintptr_t p = reinterpret_cast<std::uintptr_t>(ptr_);
    p = (p + (align - 1)) & ~static_cast<std::uintptr_t>(align - 1);
    if (p == 0 || p + bytes > reinterpret_cast<std::uintptr_t>(end_)) {
      return nullptr;
    }
    ptr_ = reinterpret_cast<std::byte*>(p + bytes);
    return reinterpret_cast<void*>(p);
  }

  void* allocate_slow(std::size_t bytes, std::size_t align);

  std::vector<Block> blocks_;
  std::size_t block_ = 0;  // index of the block ptr_/end_ bump through
  std::byte* ptr_ = nullptr;
  std::byte* end_ = nullptr;
};

/// Global switch (default on). Off makes CellArenaScope a no-op so the
/// heap baseline stays measurable (BM_ChunkMissHeap) and bisectable.
void set_cell_arena_enabled(bool enabled);
bool cell_arena_enabled();

/// The ambient arena CellAllocator captures, or nullptr outside any scope.
Arena* current_cell_arena();

/// RAII: installs this thread's recycled arena as the ambient target for
/// the duration of one cell simulation. Nesting is not supported (the
/// inner scope would reset memory the outer scope's containers live in);
/// the constructor keeps the outer arena in place in that case.
class CellArenaScope {
 public:
  CellArenaScope();
  ~CellArenaScope();
  CellArenaScope(const CellArenaScope&) = delete;
  CellArenaScope& operator=(const CellArenaScope&) = delete;

 private:
  bool installed_ = false;
};

/// Minimal STL allocator over the ambient arena. The arena pointer is
/// captured at construction: a container built under a CellArenaScope bump-
/// allocates (deallocate is a no-op — the scope reset reclaims wholesale),
/// one built outside uses the heap. Equality compares the captured arena,
/// so the container machinery never mixes freelists across sources.
template <typename T>
class CellAllocator {
 public:
  using value_type = T;

  CellAllocator() : arena_(current_cell_arena()) {}
  explicit CellAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  CellAllocator(const CellAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(bytes, alignof(T)));
    }
    if constexpr (kOverAligned) {
      // Align by hand inside a plain allocation, keeping the raw pointer
      // just below the aligned block. The aligned operator new would go
      // through glibc's memalign, whose chunk splitting left a node study
      // that rebuilds its caches per cell ~2 MiB higher in peak RSS.
      void* raw = ::operator new(bytes + sizeof(void*) + alignof(T));
      const std::uintptr_t first =
          reinterpret_cast<std::uintptr_t>(raw) + sizeof(void*);
      const std::uintptr_t p = (first + alignof(T) - 1) &
                               ~static_cast<std::uintptr_t>(alignof(T) - 1);
      reinterpret_cast<void**>(p)[-1] = raw;
      return reinterpret_cast<T*>(p);
    } else {
      return static_cast<T*>(::operator new(bytes));
    }
  }
  void deallocate(T* p, std::size_t) {
    if (arena_ != nullptr) return;
    if constexpr (kOverAligned) {
      ::operator delete(reinterpret_cast<void**>(p)[-1]);
    } else {
      ::operator delete(p);
    }
  }

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const CellAllocator<U>& other) const {
    return arena_ == other.arena();
  }

 private:
  // Cache-line-aligned element types need more than operator new's
  // alignment on the heap path.
  static constexpr bool kOverAligned =
      alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__;
  Arena* arena_;
};

/// CellAllocator variant whose default-insertion under an arena is
/// default-initialisation: `resize(n)` on a vector of trivial elements
/// leaves the new storage uninitialised instead of zeroing it. Its one user
/// is the cache's full-tag array, whose every read is gated by a valid bit
/// in the separately-zeroed per-set control lines. Zero-filling the L3's
/// 2.6 MB of tags would be pure construction cost on the per-cell path: on
/// a 4-vCPU Xeon VM (gcc 12, Release) it takes BM_ChunkMissArena from 29 us
/// to 176 us, level with the heap path. Owners that want the conservative
/// zero-fill off-arena (long-lived machines, tools, the heap baseline —
/// built once, and zeroed metadata stays friendly to memory checkers and
/// post-mortem inspection) std::fill after resize when no arena is
/// ambient; the Cache constructor does exactly that. Either way the
/// simulated state is bit-identical — uninitialised entries are
/// unobservable by construction.
/// Value construction (`assign(n, v)`, `push_back`) is unaffected: the
/// zero-argument overload below is only viable for default-insertion, so
/// allocator_traits falls back to placement value-init everywhere else.
template <typename T>
class UninitCellAllocator : public CellAllocator<T> {
 public:
  using CellAllocator<T>::CellAllocator;
  UninitCellAllocator() = default;
  template <typename U>
  UninitCellAllocator(const UninitCellAllocator<U>& other)
      : CellAllocator<T>(other.arena()) {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};

}  // namespace pcap::util
