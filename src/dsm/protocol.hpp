// Wire protocol of the DSM subsystem (paper §3.2 box "Distributed Shared
// Memory" and §4.2 "DSM Clients and Servers").
//
// Three RaTP services per data server:
//  * kPortDsm    — page coherence (read/write/writeback) + segment ops;
//                  the same port on *compute* servers receives the server's
//                  invalidate/degrade callbacks.
//  * kPortLock   — segment locks and distributed semaphores ("the data
//                  servers also provide support for distributed
//                  synchronization").
//  * kPortCommit — two-phase-commit participant.
#pragma once

#include <cstdint>
#include <vector>

#include "common/codec.hpp"
#include "ra/types.hpp"
#include "store/wal.hpp"

namespace clouds::dsm {

enum class Op : std::uint8_t {
  // kPortDsm, client -> data server
  read_page = 1,
  write_page = 2,
  write_back = 3,
  create_segment = 4,
  adopt_segment = 5,
  stat_segment = 6,
  destroy_segment = 7,
  write_back_batch = 8,  // many dirty pages of one segment in one exchange
  // kPortDsm, data server -> client (coherence callbacks)
  invalidate = 20,
  degrade = 21,
  // kPortLock
  lock = 30,
  unlock_all = 31,
  sem_create = 32,
  sem_p = 33,
  sem_v = 34,
  // kPortCommit
  tx_prepare = 40,
  tx_commit = 41,
  tx_abort = 42,
};

enum class LockMode : std::uint8_t { shared = 0, exclusive = 1 };

inline void encodePageKey(Encoder& e, const ra::PageKey& k) {
  e.sysname(k.segment);
  e.u32(k.page);
}

inline Result<ra::PageKey> decodePageKey(Decoder& d) {
  CLOUDS_TRY_ASSIGN(seg, d.sysname());
  CLOUDS_TRY_ASSIGN(page, d.u32());
  return ra::PageKey{seg, page};
}

// A page-update list: u32 count, then count x (PageKey, page bytes). The
// body of write_back_batch (after its drop flag) and of tx_prepare (after
// its txid).
inline void encodeUpdates(Encoder& e, const std::vector<store::PageUpdate>& updates) {
  e.u32(static_cast<std::uint32_t>(updates.size()));
  for (const store::PageUpdate& u : updates) {
    encodePageKey(e, u.key);
    e.bytes(u.data);
  }
}

// Fails when fewer pages follow than the count announces.
inline Result<std::vector<store::PageUpdate>> decodeUpdates(Decoder& d) {
  CLOUDS_TRY_ASSIGN(count, d.u32());
  std::vector<store::PageUpdate> updates;
  for (std::uint32_t i = 0; i < count; ++i) {
    CLOUDS_TRY_ASSIGN(key, decodePageKey(d));
    CLOUDS_TRY_ASSIGN(data, d.bytes());
    updates.push_back(store::PageUpdate{key, std::move(data)});
  }
  return updates;
}

// A page grant flowing data server -> client.
struct PageGrant {
  std::uint64_t version = 0;
  bool zero_fill = false;  // true: no bytes follow; client zero-fills
  Bytes data;
};

inline void encodeGrant(Encoder& e, const PageGrant& g) {
  e.u64(g.version);
  e.boolean(g.zero_fill);
  if (!g.zero_fill) e.bytes(g.data);
}

inline Result<PageGrant> decodeGrant(Decoder& d) {
  PageGrant g;
  CLOUDS_TRY_ASSIGN(version, d.u64());
  g.version = version;
  CLOUDS_TRY_ASSIGN(zf, d.boolean());
  g.zero_fill = zf;
  if (!g.zero_fill) {
    CLOUDS_TRY_ASSIGN(data, d.bytes());
    g.data = std::move(data);
  }
  return g;
}

}  // namespace clouds::dsm
