#include "mmu.h"

#include "base/log.h"

namespace hh::kvm {

namespace {

/**
 * Kernel metadata pages allocated per hugepage split: the
 * kvm_mmu_page descriptor, the 512-entry rmap array (4 KB by
 * itself), parent-PTE tracking and slab overhead. These unmovable
 * allocations interleave with the EPT pages and compete for the
 * same released blocks -- Table 2's R_E stays well below 100 %
 * because of them.
 */
constexpr unsigned kSplitMetadataPages = 3;

} // namespace

Mmu::Mmu(dram::DramSystem &dram, mm::BuddyAllocator &buddy,
         MmuConfig config, uint16_t owner_id)
    : dram(dram),
      buddy(buddy),
      cfg(config),
      owner(owner_id),
      rng(base::mix64(dram.config().seed, owner_id))
{
    auto page = allocTablePage();
    // An injected AllocFail can land on the root allocation; retry a
    // few occurrences. A genuine OOM fails every retry identically and
    // still reaches the fatal, so the fault-free path is unchanged.
    for (unsigned r = 0; !page && r < 16; ++r)
        page = allocTablePage();
    if (!page)
        base::fatal("cannot allocate EPT root: host out of memory");
    root = *page;
}

Mmu::~Mmu()
{
    for (Pfn pfn : tablePages) {
        dram.backend().clearPage(pfn);
        buddy.freePages(pfn, 0);
    }
    for (Pfn pfn : metadataPages)
        buddy.freePages(pfn, 0);
}

base::Expected<Pfn>
Mmu::allocTablePage()
{
    auto page = cfg.tableAlloc == TableAllocPolicy::AnyList
        ? buddy.allocPagesAnyType(0, mm::PageUse::EptPage, owner)
        : buddy.allocPages(0, mm::MigrateType::Unmovable,
                           mm::PageUse::EptPage, owner);
    if (!page)
        return page;
    dram.fillPage(*page, 0);
    tablePages.push_back(*page);
    return page;
}

base::Expected<Mmu::Slot>
Mmu::walk(GuestPhysAddr gpa, unsigned stop) const
{
    Pfn table = root;
    for (unsigned level = kEptLevels;; --level) {
        const unsigned index = eptIndex(gpa, level);
        const EptEntry entry = readEntry(table, index);
        if (!entry.present())
            return base::ErrorCode::NotFound;
        if (level == stop || (level == 2 && entry.largePage()))
            return Slot{table, index, level, entry};
        table = entry.frame();
    }
}

base::Status
Mmu::map2m(GuestPhysAddr gpa, HostPhysAddr hpa)
{
    if (!gpa.hugePageAligned() || !hpa.hugePageAligned())
        return base::ErrorCode::InvalidArgument;
    // The one allocating walk: allocate the tables missing above the
    // PD entry that takes the leaf.
    Pfn table = root;
    for (unsigned level = kEptLevels; level > 2; --level) {
        const unsigned index = eptIndex(gpa, level);
        EptEntry entry = readEntry(table, index);
        if (!entry.present()) {
            auto next = allocTablePage();
            if (!next)
                return next.error();
            entry = EptEntry::table(*next);
            writeEntry(table, index, entry);
        }
        table = entry.frame();
    }
    const unsigned index = eptIndex(gpa, 2);
    if (readEntry(table, index).present())
        return base::ErrorCode::Exists;
    // Under the iTLB-Multihit countermeasure every hugepage mapping is
    // created non-executable (Section 4.2.3, "Countermeasure").
    writeEntry(table, index,
               EptEntry::leaf2m(hpa.pfn(), !cfg.nxHugePages));
    return base::Status::success();
}

base::Status
Mmu::unmapHugeRange(GuestPhysAddr gpa)
{
    if (!gpa.hugePageAligned())
        return base::ErrorCode::InvalidArgument;
    auto pd = walk(gpa, 2);
    if (!pd)
        return base::Status(pd.error());
    if (pd->entry.largePage()) {
        writeEntry(pd->table, pd->index, EptEntry());
        return base::Status::success();
    }
    for (unsigned i = 0; i < kEntriesPerTable; ++i)
        writeEntry(pd->entry.frame(), i, EptEntry());
    return base::Status::success();
}

base::Expected<HostPhysAddr>
Mmu::translate(GuestPhysAddr gpa) const
{
    auto leaf = walk(gpa);
    if (!leaf)
        return leaf.error();
    return HostPhysAddr(
        (leaf->entry.frame() << kPageShift)
        + (leaf->level == 2 ? gpa.hugePageOffset() : gpa.pageOffset()));
}

base::Expected<EptEntry>
Mmu::leafEntry(GuestPhysAddr gpa) const
{
    auto leaf = walk(gpa);
    if (!leaf)
        return leaf.error();
    return leaf->entry;
}

void
Mmu::leafFrames(GuestPhysAddr base, LeafFrames &frames) const
{
    HH_ASSERT(base.hugePageAligned());
    frames.fill(kInvalidPfn);
    const auto pd = walk(base, 2);
    if (!pd)
        return;
    const EptEntry pde = pd->entry;
    if (pde.largePage()) {
        for (unsigned i = 0; i < kEntriesPerTable; ++i)
            frames[i] = pde.frame() + i;
        return;
    }
    for (unsigned i = 0; i < kEntriesPerTable; ++i) {
        const EptEntry pte = readEntry(pde.frame(), i);
        if (pte.present())
            frames[i] = pte.frame();
    }
}

base::Status
Mmu::demote(const Slot &pd)
{
    // The countermeasure splits the hugepage: a fresh EPT page is
    // allocated (this is the primitive Page Steering harvests) and
    // filled with 512 executable 4 KB entries covering the same range.
    auto pt = allocTablePage();
    if (!pt)
        return pt.error();
    const Pfn base_frame = pd.entry.frame();
    for (unsigned i = 0; i < kEntriesPerTable; ++i)
        writeEntry(*pt, i, EptEntry::leaf4k(base_frame + i, true));
    writeEntry(pd.table, pd.index, EptEntry::table(*pt));
    ++demotionCount;

    // Split bookkeeping: rmap array, kvm_mmu_page, page tracking --
    // ordinary unmovable kernel allocations that interleave with the
    // table pages and dilute the attacker's placement (Table 2). The
    // count varies around kSplitMetadataPages: slab pages are shared
    // between splits, so the per-split demand is batchy, not fixed.
    const auto metadata = static_cast<unsigned>(rng.between(
        kSplitMetadataPages - 1, kSplitMetadataPages + 1));
    for (unsigned i = 0; i < metadata; ++i) {
        auto meta = cfg.tableAlloc == TableAllocPolicy::AnyList
            ? buddy.allocPagesAnyType(0, mm::PageUse::KernelData, owner)
            : buddy.allocPages(0, mm::MigrateType::Unmovable,
                               mm::PageUse::KernelData, owner);
        if (meta)
            metadataPages.push_back(*meta);
    }
    return base::Status::success();
}

base::Status
Mmu::execDuringPageSizeChange(GuestPhysAddr gpa)
{
    auto entry = leafEntry(gpa);
    if (!entry)
        return base::Status(entry.error());
    if (entry->largePage() && entry->executable()) {
        // Executable hugepage + concurrent resize + erratum: the CPU
        // can hit both iTLB entries and raises a machine check. This
        // is the DoS the NX-hugepage countermeasure exists to prevent.
        ++machineCheckCount;
        return base::ErrorCode::Fault;
    }
    return access(gpa, Access::Exec).status;
}

base::Status
Mmu::splitHugePage(GuestPhysAddr gpa)
{
    auto pd = walk(gpa, 2);
    if (!pd)
        return base::Status(pd.error());
    if (!pd->entry.largePage())
        return base::Status::success(); // already 4 KB granular
    return demote(*pd);
}

base::Status
Mmu::setLeafWritable(GuestPhysAddr gpa, bool writable)
{
    auto leaf = walk(gpa);
    if (!leaf || leaf->level != 1)
        return base::ErrorCode::NotFound;
    const uint64_t raw = writable ? leaf->entry.raw() | kEptWrite
                                  : leaf->entry.raw() & ~uint64_t{kEptWrite};
    writeEntry(leaf->table, leaf->index, EptEntry(raw));
    return base::Status::success();
}

base::Status
Mmu::remapLeaf4k(GuestPhysAddr gpa, Pfn frame, bool writable)
{
    auto leaf = walk(gpa);
    if (!leaf || leaf->level != 1)
        return base::ErrorCode::NotFound;
    EptEntry fresh = EptEntry::leaf4k(frame, leaf->entry.executable());
    if (!writable)
        fresh = EptEntry(fresh.raw() & ~uint64_t{kEptWrite});
    writeEntry(leaf->table, leaf->index, fresh);
    return base::Status::success();
}

AccessResult
Mmu::access(GuestPhysAddr gpa, Access type)
{
    AccessResult result;
    auto leaf = walk(gpa);
    if (!leaf) {
        result.status = leaf.error();
        return result;
    }
    const EptEntry entry = leaf->entry;
    if (type == Access::Write && !entry.writable()) {
        result.status = base::ErrorCode::Denied;
        return result;
    }
    if (type == Access::Exec && !entry.executable()) {
        if (leaf->level != 2 || !cfg.nxHugePages) {
            result.status = base::ErrorCode::Denied;
            return result;
        }
        // iTLB-Multihit countermeasure: demote and retry.
        result.status = demote(*leaf);
        if (!result.status.ok())
            return result;
        result.demotedHugePage = true;
        auto hpa = translate(gpa);
        if (!hpa) {
            result.status = hpa.error();
            return result;
        }
        result.hpa = *hpa;
        return result;
    }
    result.status = base::Status::success();
    result.hpa = HostPhysAddr(
        (entry.frame() << kPageShift)
        + (leaf->level == 2 ? gpa.hugePageOffset() : gpa.pageOffset()));
    return result;
}

void
Mmu::saveState(base::ArchiveWriter &w) const
{
    w.u64(root);
    w.u64vec(tablePages);
    w.u64vec(metadataPages);
    w.u64(demotionCount);
    w.u64(machineCheckCount);
    w.rngState(rng.saveState());
}

} // namespace hh::kvm
