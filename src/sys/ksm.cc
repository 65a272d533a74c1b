#include "ksm.h"

#include "base/container_util.h"
#include "base/log.h"
#include "base/rng.h"

namespace hh::sys {

Ksm::Ksm(dram::DramSystem &dram, mm::BuddyAllocator &buddy, bool enabled,
         fault::FaultInjector *fault_injector)
    : dram(dram), buddy(buddy), on(enabled), faultInjector(fault_injector)
{}

Ksm::~Ksm()
{
    // Reclaim frames whose owning VMs are gone (VMs must be torn
    // down first, see the class comment). A COW replacement can land
    // inside a VM's own backing block -- the allocator recycles freed
    // guest frames -- in which case the VM's teardown already freed
    // it; only reclaim frames still carrying their guest tags.
    const auto reclaim = [this](Pfn frame) {
        const mm::PageFrame &meta = buddy.frame(frame);
        if (meta.free || meta.use != mm::PageUse::GuestMemory)
            return;
        dram.backend().clearPage(frame);
        buddy.freePages(frame, 0);
    };
    // Hash-map order is implementation-defined; reclaim in frame order
    // so the allocator's free lists end up in a reproducible state.
    for (Pfn frame : base::sortedKeys(frameToHash))
        reclaim(frame);
    for (Pfn frame : cowFrames)
        reclaim(frame);
}

void
Ksm::attach(vm::VirtualMachine &machine)
{
    if (!on)
        return;
    machine.setWriteFaultHandler(
        [this](vm::VirtualMachine &vm_ref, GuestPhysAddr gpa) {
            return breakCow(vm_ref, gpa);
        });
}

uint64_t
Ksm::hashPage(Pfn frame) const
{
    // FNV-ish fold over the 512 words; zero pages hash too (KSM's
    // favourite merge candidate).
    uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned word = 0; word < kPageSize / 8; ++word) {
        const uint64_t value = dram.backend().read64(
            HostPhysAddr(frame * kPageSize + word * 8ull));
        hash = base::mix64(hash, value + word);
    }
    return hash;
}

bool
Ksm::samePageContent(Pfn a, Pfn b) const
{
    for (unsigned word = 0; word < kPageSize / 8; ++word) {
        const uint64_t va = dram.backend().read64(
            HostPhysAddr(a * kPageSize + word * 8ull));
        const uint64_t vb = dram.backend().read64(
            HostPhysAddr(b * kPageSize + word * 8ull));
        if (va != vb)
            return false;
    }
    return true;
}

uint64_t
Ksm::scanRange(vm::VirtualMachine &machine, GuestPhysAddr start,
               uint64_t pages)
{
    if (!on)
        return 0;
    uint64_t merged = 0;
    for (uint64_t i = 0; i < pages; ++i) {
        const GuestPhysAddr gpa = start.pageBase() + i * kPageSize;

        // KSM needs 4 KB granularity: split THP-backed ranges first.
        auto leaf = machine.mmu().leafEntry(gpa);
        if (!leaf)
            continue;
        if (leaf->largePage()) {
            if (!machine.mmu().splitHugePage(gpa.hugePageBase()).ok())
                continue;
            leaf = machine.mmu().leafEntry(gpa);
            if (!leaf)
                continue;
        }
        const Pfn frame = leaf->frame();
        if (frame >= dram.pageCount())
            continue;
        // DMA-pinned pages are never merged (KSM and VFIO exclude
        // each other on real systems too).
        if (buddy.frame(frame).pinned)
            continue;
        // Scan race: a guest write dirties the page mid-scan, so the
        // scanner skips it this pass (real KSM rechecks the checksum).
        if (const fault::FaultEntry *f = HH_FAULT_POINT(
                faultInjector, fault::FaultSite::KsmScan)) {
            if (f->kind == fault::FaultKind::ScanRace) {
                ++ksmStats.raced;
                continue;
            }
        }
        ++ksmStats.pagesScanned;

        if (frameToHash.count(frame))
            continue; // already a stable (merged) frame

        const uint64_t hash = hashPage(frame);
        auto node = stableTree.find(hash);
        if (node == stableTree.end()) {
            // First sighting: make it a stable-tree candidate backed
            // by its current frame, write-protected so later guest
            // writes unshare it. Detach the frame from the VM's
            // accounting (it now belongs to KSM).
            if (!machine.mmu().setLeafWritable(gpa, false).ok())
                continue;
            buddy.setUse(frame, mm::PageUse::GuestMemory, 0);
            stableTree[hash] = {frame, 1};
            frameToHash[frame] = hash;
            continue;
        }
        // Hash match: verify content, then merge.
        if (!samePageContent(frame, node->second.frame)) {
            continue; // hash collision; real KSM walks a tree instead
        }
        if (!machine.mmu()
                 .remapLeaf4k(gpa, node->second.frame,
                              /*writable=*/false)
                 .ok()) {
            continue;
        }
        ++node->second.refs;
        ++ksmStats.pagesMerged;
        ++merged;
        if (node->second.refs == 2)
            ++ksmStats.sharedFrames;
        // The duplicate's old frame goes back to the host -- this is
        // the memory KSM exists to save.
        dram.backend().clearPage(frame);
        buddy.setUse(frame, mm::PageUse::GuestMemory, 0);
        buddy.freePages(frame, 0);
    }
    return merged;
}

bool
Ksm::isShared(vm::VirtualMachine &machine, GuestPhysAddr gpa) const
{
    auto leaf = machine.mmu().leafEntry(gpa);
    if (!leaf || leaf->largePage())
        return false;
    const auto it = frameToHash.find(leaf->frame());
    if (it == frameToHash.end())
        return false;
    const auto node = stableTree.find(it->second);
    return node != stableTree.end() && node->second.refs >= 2;
}

base::Status
Ksm::breakCow(vm::VirtualMachine &machine, GuestPhysAddr gpa)
{
    auto leaf = machine.mmu().leafEntry(gpa);
    if (!leaf)
        return base::Status(leaf.error());
    const Pfn shared = leaf->frame();
    const auto hash_it = frameToHash.find(shared);
    if (hash_it == frameToHash.end()) {
        // Not a KSM page: some other write-protection we don't own.
        return base::ErrorCode::Denied;
    }

    // Unshare: fresh frame, copy, remap writable.
    auto fresh = buddy.allocPages(0, mm::MigrateType::Movable,
                                  mm::PageUse::GuestMemory,
                                  machine.id());
    if (!fresh)
        return fresh.error();
    for (unsigned word = 0; word < kPageSize / 8; ++word) {
        const uint64_t value = dram.read64(
            HostPhysAddr(shared * kPageSize + word * 8ull));
        dram.write64(HostPhysAddr(*fresh * kPageSize + word * 8ull),
                     value);
    }
    const base::Status remapped = machine.mmu().remapLeaf4k(
        gpa.pageBase(), *fresh, /*writable=*/true);
    if (!remapped.ok()) {
        buddy.freePages(*fresh, 0);
        return remapped;
    }
    cowFrames.push_back(*fresh);
    ++ksmStats.cowBreaks;

    auto node = stableTree.find(hash_it->second);
    HH_ASSERT(node != stableTree.end());
    HH_ASSERT(node->second.refs > 0);
    --node->second.refs;
    if (node->second.refs == 1)
        --ksmStats.sharedFrames;
    if (node->second.refs == 0) {
        // Last mapping gone: the stable frame returns to the host.
        dram.backend().clearPage(shared);
        buddy.freePages(shared, 0);
        stableTree.erase(node);
        frameToHash.erase(hash_it);
    }
    return base::Status::success();
}

} // namespace hh::sys
