#include "util/arena.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>

namespace pcap::util {

namespace {

// 8 MB first block covers a full single-core Node (the 20 MB L3's 2.6 MB
// of tags and 1 MB of set control lines dominate) without growth; SmpNode
// cells grow into a second block once and then recycle it.
constexpr std::size_t kFirstBlockBytes = 8u << 20;

std::atomic<bool> g_arena_enabled{true};

thread_local Arena t_cell_arena;
thread_local Arena* t_current = nullptr;

}  // namespace

void* Arena::allocate_slow(std::size_t bytes, std::size_t align) {
  // Advance through already-reserved blocks before growing.
  while (block_ + 1 < blocks_.size()) {
    ++block_;
    ptr_ = blocks_[block_].data.get();
    end_ = ptr_ + blocks_[block_].size;
    void* p = try_bump(bytes, align);
    if (p != nullptr) return p;
  }
  std::size_t size = blocks_.empty() ? kFirstBlockBytes : blocks_.back().size * 2;
  size = std::max(size, bytes + align);
  Block block;
  block.data = std::unique_ptr<std::byte[]>(new std::byte[size]);
  block.size = size;
  blocks_.push_back(std::move(block));
  block_ = blocks_.size() - 1;
  ptr_ = blocks_[block_].data.get();
  end_ = ptr_ + size;
  return try_bump(bytes, align);
}

void* allocate_zero_pages(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  // Base pages only: with transparent huge pages set to "always", the first
  // write into a 2 MiB-aligned stretch would make all of it resident.
  madvise(p, bytes, MADV_NOHUGEPAGE);
  return p;
}

void free_zero_pages(void* p, std::size_t bytes) { munmap(p, bytes); }

void set_cell_arena_enabled(bool enabled) {
  g_arena_enabled.store(enabled, std::memory_order_relaxed);
}

bool cell_arena_enabled() {
  return g_arena_enabled.load(std::memory_order_relaxed);
}

Arena* current_cell_arena() { return t_current; }

CellArenaScope::CellArenaScope() {
  if (!cell_arena_enabled() || t_current != nullptr) return;
  t_cell_arena.reset();
  t_current = &t_cell_arena;
  installed_ = true;
}

CellArenaScope::~CellArenaScope() {
  if (installed_) t_current = nullptr;
}

}  // namespace pcap::util
