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
//    The scheduler's cell nodes (simulate_chunk / simulate_corun_cell) and
//    the class nodes of characterize_job_classes are built under one.
//  * Everything allocated under a scope must be destroyed before the scope
//    exits (each of those nodes is local to the scoped block, so the
//    contract holds by construction).
//  * CellAllocator captures the ambient arena AT CONSTRUCTION: containers
//    created outside any scope (long-lived slot nodes, the cells of
//    run_power_cap_study, nodes a driver or example builds, benchmarks with
//    the arena disabled) get a null arena and fall back to the heap. There
//    the cache arrays (ZeroPageCellAllocator) cost host memory only for the
//    pages a simulation writes.
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
    // The heap path relies on operator new's alignment; the cache's
    // 64-byte control lines go through ZeroPageCellAllocator instead.
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    const std::size_t bytes = n * sizeof(T);
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(bytes, alignof(T)));
    }
    return static_cast<T*>(::operator new(bytes));
  }
  void deallocate(T* p, std::size_t) {
    if (arena_ == nullptr) ::operator delete(p);
  }

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const CellAllocator<U>& other) const {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

/// Off-arena storage that reads as zero and stays unbacked until written:
/// an anonymous mmap of base pages (huge pages declined), so the kernel maps
/// a page only when the simulation first writes it. mmap, not calloc: once
/// a large mmapped block is freed, glibc's dynamic threshold serves the next
/// blocks of that size from the heap, where calloc clears reused memory and
/// makes every page resident again.
void* allocate_zero_pages(std::size_t bytes);
void free_zero_pages(void* p, std::size_t bytes);

/// CellAllocator variant for the cache's control-line and tag arrays.
/// Default-insertion is default-initialisation: `resize(n)` on a vector of
/// trivial elements writes nothing. Off the arena the storage comes from
/// allocate_zero_pages, so a fresh array reads as all zeros and a
/// long-lived cache (a scheduler slot that only idles and answers IPMI)
/// costs host memory only for the sets it touches. Under an arena the
/// storage is recycled from earlier cells and holds their bytes: the owner
/// clears what it reads unconditionally (the cache memsets its control
/// lines) and leaves the rest, the valid-gated tags, as they are.
/// Value construction (`assign(n, v)`, `push_back`) is unaffected: the
/// zero-argument overload below is only viable for default-insertion, so
/// allocator_traits falls back to placement value-init everywhere else.
template <typename T>
class ZeroPageCellAllocator : public CellAllocator<T> {
  static_assert(alignof(T) <= 64);

 public:
  using CellAllocator<T>::CellAllocator;
  ZeroPageCellAllocator() = default;
  template <typename U>
  ZeroPageCellAllocator(const ZeroPageCellAllocator<U>& other)
      : CellAllocator<T>(other.arena()) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (this->arena() != nullptr) {
      return static_cast<T*>(this->arena()->allocate(bytes, alignof(T)));
    }
    return static_cast<T*>(allocate_zero_pages(bytes));
  }
  void deallocate(T* p, std::size_t n) {
    if (this->arena() == nullptr) free_zero_pages(p, n * sizeof(T));
  }

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};

}  // namespace pcap::util
