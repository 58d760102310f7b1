#include "sched/memo_store.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <vector>

namespace pcap::sched {

namespace {

// On-disk layout (all integers little-endian):
//   "PCMS"                       4-byte magic
//   u32 version                  kFormatVersion
//   u64 payload_hash             FNV-1a of every byte after this field
//   u64 entry_count
//   entry_count entries, oldest-first:
//     u8 kind                    0 = solo chunk, 1 = co-run cell
//     solo: u8 cls, u64 identity, u64 cap_bits, u64 thermal_bits,
//           u64 elapsed_ps, u64 energy_bits, u64 power_bits
//     cell: u64 cap_bits, u64 thermal_bits, u32 member_count,
//           member_count x (u8 cls, u64 identity, u64 seed, u32 chunk_index),
//           member_count x (u64 elapsed_ps, u64 energy_bits, u64 power_bits)
constexpr char kMagic[4] = {'P', 'C', 'M', 'S'};
// Smallest encodings, which bound any count field by the bytes left: a
// count the payload cannot hold is rejected before anything is sized by it.
constexpr std::size_t kSoloEntryBytes = 1 + 1 + 3 * 8 + 3 * 8;
constexpr std::size_t kCellMemberBytes = (1 + 8 + 8 + 4) + 3 * 8;
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

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
    if (!entry.is_cell) {
      put_u8(payload, 0);
      put_u8(payload, static_cast<std::uint8_t>(entry.key.cls));
      put_u64(payload, entry.key.identity);
      put_u64(payload, entry.key.cap_bits);
      put_u64(payload, entry.key.thermal_bits);
      put_result(payload, entry.solo);
    } else {
      put_u8(payload, 1);
      put_u64(payload, entry.cell_key.cap_bits);
      put_u64(payload, entry.cell_key.thermal_bits);
      put_u32(payload,
              static_cast<std::uint32_t>(entry.cell_key.members.size()));
      for (const CoRunMember& m : entry.cell_key.members) {
        put_u8(payload, static_cast<std::uint8_t>(m.cls));
        put_u64(payload, m.identity);
        put_u64(payload, m.seed);
        put_u32(payload, static_cast<std::uint32_t>(m.chunk_index));
      }
      for (const ChunkResult& r : entry.cell) put_result(payload, r);
    }
  }

  std::vector<std::uint8_t> file;
  file.reserve(payload.size() + 16);
  file.insert(file.end(), kMagic, kMagic + 4);
  put_u32(file, kFormatVersion);
  put_u64(file, fnv1a(payload.data(), payload.size()));
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
  const std::uint8_t* payload = file.data() + 16;
  const std::size_t payload_size = file.size() - 16;
  if (fnv1a(payload, payload_size) != stored_hash) {
    return reject("payload hash mismatch (corrupt store)");
  }

  // Parse the WHOLE payload into staging structures before touching the
  // cache: a malformed store must never be partially trusted.
  struct Staged {
    bool is_cell = false;
    ChunkKey key;
    CoRunKey cell_key;
    ChunkResult solo;
    std::vector<ChunkResult> cell;
  };
  Reader r(payload, payload_size);
  std::uint64_t count = 0;
  if (!r.u64(count)) return reject("truncated entry count");
  if (count > r.remaining() / kSoloEntryBytes) {
    return reject("entry count exceeds payload");
  }
  std::vector<Staged> staged;
  staged.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t e = 0; e < count; ++e) {
    std::uint8_t kind = 0;
    if (!r.u8(kind)) return reject("truncated entry");
    Staged s;
    if (kind == 0) {
      std::uint8_t cls = 0;
      if (!r.u8(cls) || !r.u64(s.key.identity) || !r.u64(s.key.cap_bits) ||
          !r.u64(s.key.thermal_bits) || !r.result(s.solo)) {
        return reject("truncated solo entry");
      }
      if (!valid_class(cls)) return reject("invalid job class byte");
      s.key.cls = static_cast<JobClass>(cls);
    } else if (kind == 1) {
      s.is_cell = true;
      std::uint32_t members = 0;
      if (!r.u64(s.cell_key.cap_bits) || !r.u64(s.cell_key.thermal_bits) ||
          !r.u32(members)) {
        return reject("truncated cell entry");
      }
      if (members == 0) return reject("empty cell member list");
      if (members > r.remaining() / kCellMemberBytes) {
        return reject("cell member count exceeds payload");
      }
      s.cell_key.members.resize(members);
      for (CoRunMember& m : s.cell_key.members) {
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
      s.cell.resize(members);
      for (ChunkResult& cr : s.cell) {
        if (!r.result(cr)) return reject("truncated cell results");
      }
    } else {
      return reject("unknown entry kind");
    }
    staged.push_back(std::move(s));
  }
  if (r.pos() != r.size()) return reject("trailing bytes after entries");

  for (Staged& s : staged) {
    if (s.is_cell) {
      cache.insert_cell(s.cell_key, std::move(s.cell));
    } else {
      cache.insert(s.key, s.solo);
    }
    ++result.entries_loaded;
  }
  return result;
}

}  // namespace pcap::sched
