// Partition interface (paper §4.1).
//
// "A partition is an entity that provides non-volatile data storage for
//  segments. ... In order to access a segment, the partition containing the
//  segment has to be contacted. ... Note that Ra only defines the interface
//  to the partitions. The partitions themselves are implemented as system
//  objects."
//
// Two system objects implement it: store::LocalPartition (segments on this
// node's own disk) and dsm::DsmClientPartition (segments homed on remote
// data servers, accessed through the DSM coherence protocol). The MMU is
// the only caller.
#pragma once

#include "common/error.hpp"
#include "ra/types.hpp"
#include "sim/process.hpp"

namespace clouds::ra {

// Grants direct access to a resident page frame. The pointer stays valid
// until the calling process next blocks (a frame may be stolen by eviction
// or coherence traffic afterwards), which is exactly the guarantee hardware
// gives between two faults.
struct PageHandle {
  std::byte* data = nullptr;
  bool writable = false;
};

class Partition {
 public:
  virtual ~Partition() = default;

  // True when this partition is responsible for the given segment.
  virtual bool serves(const Sysname& segment) const = 0;

  // Make the page resident with at least the requested access and return a
  // handle to the frame. Charges all fault costs. Called with the fault
  // already trapped (the MMU pays the trap cost).
  virtual Result<PageHandle> resolvePage(sim::Process& self, const PageKey& key,
                                         Access access) = 0;

  virtual Result<SegmentInfo> stat(sim::Process& self, const Sysname& segment) = 0;

  // Push dirty pages of the segment back to stable storage (and demote
  // coherence rights where applicable). Used at object deactivation and by
  // s-thread durability points.
  virtual Result<void> flushSegment(sim::Process& self, const Sysname& segment) = 0;

  // Drop every resident page of this segment (without writing back). Used
  // by consistency aborts.
  virtual void dropSegment(const Sysname& segment) = 0;
};

}  // namespace clouds::ra
