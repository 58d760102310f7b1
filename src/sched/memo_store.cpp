#include "sched/memo_store.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <span>
#include <vector>

#include "util/hash.hpp"

namespace pcap::sched {

namespace {

// On-disk layout (all integers little-endian):
//   "PCMS"                       4-byte magic
//   u32 version                  kFormatVersion
//   u64 payload_hash             FNV-1a of every byte after this field
//   u64 entry_count
//   entry_count cells, oldest-first (a solo chunk is a one-member cell):
//     u64 cap_bits, u64 thermal_bits, u32 member_count >= 1,
//     member_count x (u8 cls, u64 identity, u64 seed, u32 chunk_index),
//     member_count x (u64 elapsed_ps, u64 energy_bits, u64 power_bits)
constexpr char kMagic[4] = {'P', 'C', 'M', 'S'};
// Smallest encodings, which bound any count field by the bytes left: a
// count the payload cannot hold is rejected before anything is sized by it.
constexpr std::size_t kMemberBytes = (1 + 8 + 8 + 4) + 3 * 8;
constexpr std::size_t kCellBytes = 8 + 8 + 4 + kMemberBytes;
constexpr std::uint32_t kFormatVersion = 2;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

void put_result(std::vector<std::uint8_t>& out, const ChunkResult& r) {
  put_u64(out, static_cast<std::uint64_t>(r.elapsed));
  put_u64(out, std::bit_cast<std::uint64_t>(r.energy_j));
  put_u64(out, std::bit_cast<std::uint64_t>(r.avg_power_w));
}

/// Bounds-checked little-endian reader over the loaded file image.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > size_) return false;
    v = data_[pos_++];
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > size_) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > size_) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool result(ChunkResult& r) {
    std::uint64_t elapsed = 0, energy = 0, power = 0;
    if (!u64(elapsed) || !u64(energy) || !u64(power)) return false;
    r.elapsed = elapsed;
    r.energy_j = std::bit_cast<double>(energy);
    r.avg_power_w = std::bit_cast<double>(power);
    return true;
  }
  std::size_t pos() const { return pos_; }
  std::size_t size() const { return size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

bool valid_class(std::uint8_t cls) { return cls < kJobClassCount; }

}  // namespace

bool save_memo_store(const std::string& path, const ChunkCache& cache,
                     std::string* error) {
  std::vector<std::uint8_t> payload;
  const auto& entries = cache.lru_entries();
  put_u64(payload, static_cast<std::uint64_t>(entries.size()));
  // Oldest-first: sequential re-insertion reproduces the recency order.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    const ChunkCache::Entry& entry = *it;
    put_u64(payload, entry.key.cap_bits);
    put_u64(payload, entry.key.thermal_bits);
    put_u32(payload, static_cast<std::uint32_t>(entry.key.members.size()));
    for (const CoRunMember& m : entry.key.members) {
      payload.push_back(static_cast<std::uint8_t>(m.cls));
      put_u64(payload, m.identity);
      put_u64(payload, m.seed);
      put_u32(payload, static_cast<std::uint32_t>(m.chunk_index));
    }
    for (const ChunkResult& r : entry.results) put_result(payload, r);
  }

  std::vector<std::uint8_t> file;
  file.reserve(payload.size() + 16);
  file.insert(file.end(), kMagic, kMagic + 4);
  put_u32(file, kFormatVersion);
  put_u64(file, util::fnv1a(payload));
  file.insert(file.end(), payload.begin(), payload.end());

  // Write-then-rename so a crash mid-save never leaves a torn store a
  // later run could half-trust (the loader would reject it anyway, but an
  // atomic publish keeps the previous good store alive).
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + tmp + " for writing";
    return false;
  }
  const std::size_t written = std::fwrite(file.data(), 1, file.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != file.size() || !closed) {
    if (error != nullptr) *error = "short write to " + tmp;
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = "cannot rename " + tmp + " to " + path;
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

MemoStoreLoadResult load_memo_store(const std::string& path,
                                    ChunkCache& cache) {
  MemoStoreLoadResult result;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return result;  // cold start, not an error
  result.file_present = true;

  std::vector<std::uint8_t> file;
  {
    std::uint8_t buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
      file.insert(file.end(), buf, buf + n);
    }
    std::fclose(f);
  }

  auto reject = [&](const std::string& why) {
    result.rejected = true;
    result.error = path + ": " + why;
    return result;
  };

  if (file.size() < 16) return reject("truncated header");
  if (!std::equal(kMagic, kMagic + 4, file.begin())) {
    return reject("bad magic");
  }
  Reader header(file.data() + 4, file.size() - 4);
  std::uint32_t version = 0;
  std::uint64_t stored_hash = 0;
  header.u32(version);
  header.u64(stored_hash);
  if (version != kFormatVersion) {
    return reject("unsupported format version " + std::to_string(version));
  }
  const std::span<const std::uint8_t> payload(file.begin() + 16, file.end());
  if (util::fnv1a(payload) != stored_hash) {
    return reject("payload hash mismatch (corrupt store)");
  }

  // Parse the WHOLE payload into staging entries before touching the
  // cache: a malformed store must never be partially trusted.
  Reader r(payload.data(), payload.size());
  std::uint64_t count = 0;
  if (!r.u64(count)) return reject("truncated entry count");
  if (count > r.remaining() / kCellBytes) {
    return reject("entry count exceeds payload");
  }
  std::vector<ChunkCache::Entry> staged(static_cast<std::size_t>(count));
  for (ChunkCache::Entry& entry : staged) {
    std::uint32_t members = 0;
    if (!r.u64(entry.key.cap_bits) || !r.u64(entry.key.thermal_bits) ||
        !r.u32(members)) {
      return reject("truncated cell entry");
    }
    if (members == 0) return reject("empty cell member list");
    if (members > r.remaining() / kMemberBytes) {
      return reject("cell member count exceeds payload");
    }
    entry.key.members.resize(members);
    for (CoRunMember& m : entry.key.members) {
      std::uint8_t cls = 0;
      std::uint32_t chunk_index = 0;
      if (!r.u8(cls) || !r.u64(m.identity) || !r.u64(m.seed) ||
          !r.u32(chunk_index)) {
        return reject("truncated cell member");
      }
      if (!valid_class(cls)) return reject("invalid job class byte");
      m.cls = static_cast<JobClass>(cls);
      m.chunk_index = static_cast<int>(chunk_index);
    }
    entry.results.resize(members);
    for (ChunkResult& cr : entry.results) {
      if (!r.result(cr)) return reject("truncated cell results");
    }
  }
  if (r.pos() != r.size()) return reject("trailing bytes after entries");

  for (ChunkCache::Entry& entry : staged) {
    cache.insert(std::move(entry.key), std::move(entry.results));
  }
  result.entries_loaded = staged.size();
  return result;
}

}  // namespace pcap::sched
