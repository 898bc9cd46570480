#include "store/checkpoint.hpp"

#include <bit>
#include <cstring>
#include <limits>

namespace clouds::store::wal {

void DirtyTable::stage(const ra::PageKey& key, ByteSpan data, std::uint64_t lsn) {
  DirtyPage& p = pages_[key];
  p.data.assign(data.begin(), data.end());
  p.lsn = lsn;
}

const DirtyPage* DirtyTable::find(const ra::PageKey& key) const {
  auto it = pages_.find(key);
  return it == pages_.end() ? nullptr : &it->second;
}

std::uint64_t DirtyTable::minLsn() const {
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  for (const auto& [key, p] : pages_) {
    if (p.lsn < min) min = p.lsn;
  }
  return min;
}

std::vector<std::pair<ra::PageKey, DirtyPage>> DirtyTable::pickBatch(
    std::uint64_t durable_lsn, std::size_t max_pages) const {
  std::vector<std::pair<ra::PageKey, DirtyPage>> out;
  for (const auto& [key, p] : pages_) {
    if (out.size() >= max_pages) break;
    if (p.lsn <= durable_lsn) out.emplace_back(key, p);
  }
  return out;
}

void DirtyTable::applied(const ra::PageKey& key, std::uint64_t lsn) {
  auto it = pages_.find(key);
  if (it != pages_.end() && it->second.lsn == lsn) pages_.erase(it);
}

void DirtyTable::purgeSegment(const Sysname& segment) {
  for (auto it = pages_.begin(); it != pages_.end();) {
    it = it->first.segment == segment ? pages_.erase(it) : std::next(it);
  }
}

void DirtyTable::purgeBeyond(const Sysname& segment, ra::PageIndex page_count) {
  for (auto it = pages_.begin(); it != pages_.end();) {
    const bool drop = it->first.segment == segment && it->first.page >= page_count;
    it = drop ? pages_.erase(it) : std::next(it);
  }
}

namespace {

// XXH64's primes and lane round.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

constexpr std::uint64_t rotl(std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }
constexpr std::uint64_t xxRound(std::uint64_t acc, std::uint64_t in) {
  return rotl(acc + in * kP2, 31) * kP1;
}
constexpr std::uint64_t xxMerge(std::uint64_t h, std::uint64_t lane) {
  return (h ^ xxRound(0, lane)) * kP1 + kP4;
}

std::uint64_t loadLe(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

}  // namespace

// XXH64 seeded with prev over a 32-byte header stripe (segment hi/lo, page,
// image length) followed by the image: four independent multiply-rotate
// lanes take one 8-byte word each per step, then merge and avalanche.
std::uint64_t chainHash(std::uint64_t prev, const ra::PageKey& key, ByteSpan data) {
  std::uint64_t v[4] = {prev + kP1 + kP2, prev + kP2, prev, prev - kP1};
  v[0] = xxRound(v[0], key.segment.hi());
  v[1] = xxRound(v[1], key.segment.lo());
  v[2] = xxRound(v[2], key.page);
  v[3] = xxRound(v[3], data.size());
  const std::byte* p = data.data();
  const std::byte* const end = p + data.size();
  for (; end - p >= 32; p += 32) {
    for (int i = 0; i < 4; ++i) v[i] = xxRound(v[i], loadLe(p + 8 * i));
  }
  std::uint64_t h = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18);
  for (const std::uint64_t lane : v) h = xxMerge(h, lane);
  h += 32 + data.size();
  for (; end - p >= 8; p += 8) h = rotl(h ^ xxRound(0, loadLe(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    std::uint32_t w;
    std::memcpy(&w, p, sizeof w);
    if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap32(w);
    h = rotl(h ^ (std::uint64_t{w} * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = rotl(h ^ (static_cast<std::uint64_t>(*p) * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace clouds::store::wal
