/**
 * @file
 * Umbrella header for the HyperHammer reproduction library.
 *
 * The library is layered bottom-up (see DESIGN.md):
 *   hh::base     -- clock, RNG, status, stats
 *   hh::fault    -- deterministic fault-injection plans/sites
 *   hh::dram     -- DIMM model with the Rowhammer fault model
 *   hh::mm       -- Linux-style buddy allocator
 *   hh::kvm      -- EPT MMU with the NX-hugepage countermeasure
 *   hh::iommu    -- vIOMMU / VFIO / IOPT
 *   hh::virtio   -- virtio-mem device, driver and quarantine
 *   hh::vm       -- a guest VM and its guest-facing operations
 *   hh::sys      -- host assembly and the S1/S2/S3 presets
 *   hh::mitigate -- pluggable defenses and the evaluation matrix
 *   hh::attack   -- profiling, Page Steering, exploitation, and the
 *                   range record: checkpoint policy, resume, shard
 *                   merge
 *   hh::analysis -- DRAMDig, TRRespass, report formatting
 *
 * Typical use: build a host from a preset, create a VM, and drive the
 * attack stages (see examples/quickstart.cc).
 */

#ifndef HYPERHAMMER_HYPERHAMMER_H
#define HYPERHAMMER_HYPERHAMMER_H

#include "analysis/dramdig.h"
#include "analysis/report.h"
#include "analysis/trrespass.h"
#include "attack/exploit.h"
#include "attack/orchestrator.h"
#include "attack/page_steering.h"
#include "attack/profiler.h"
#include "attack/types.h"
#include "base/bitops.h"
#include "base/log.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/sim_clock.h"
#include "base/stats.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "base/types.h"
#include "dram/address_mapping.h"
#include "dram/dram_system.h"
#include "dram/ecc.h"
#include "dram/fault_model.h"
#include "dram/memory_backend.h"
#include "dram/trr.h"
#include "fault/fault.h"
#include "iommu/viommu.h"
#include "kvm/ept.h"
#include "kvm/mmu.h"
#include "mitigate/defense.h"
#include "mitigate/matrix.h"
#include "mm/buddy_allocator.h"
#include "mm/page.h"
#include "sys/host_system.h"
#include "sys/ksm.h"
#include "virtio/virtio_mem.h"
#include "vm/virtual_machine.h"
#include "xen/pv_domain.h"

#endif // HYPERHAMMER_HYPERHAMMER_H
