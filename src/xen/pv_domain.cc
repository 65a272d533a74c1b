#include "pv_domain.h"

#include "base/bitops.h"
#include "base/log.h"

namespace hh::xen {

namespace {

constexpr Pfn
frameOf(uint64_t entry)
{
    return base::bits(entry, 47, 12);
}

} // namespace

PvDomain::PvDomain(dram::DramSystem &dram, mm::BuddyAllocator &buddy,
                   uint64_t frame_count, uint16_t domain_id)
    : dram(dram), buddy(buddy), domainId(domain_id)
{
    frames.reserve(frame_count);
    for (uint64_t i = 0; i < frame_count; ++i) {
        // alloc_domheap_pages: no migrate-type separation (Section 6).
        auto frame = buddy.allocPagesAnyType(0, mm::PageUse::GuestMemory,
                                             domainId);
        if (!frame)
            base::fatal("PV domain %u: out of domheap memory",
                        domainId);
        frames.push_back(*frame);
        owned.insert(*frame);
    }
}

PvDomain::~PvDomain()
{
    for (Pfn frame : frames) {
        if (!owned.count(frame))
            continue; // released via decreaseReservation
        dram.backend().clearPage(frame);
        buddy.freePages(frame, 0);
    }
}

base::Status
PvDomain::decreaseReservation(Pfn frame)
{
    if (!owned.count(frame))
        return base::ErrorCode::InvalidArgument;
    if (pinnedTables.count(frame))
        return base::ErrorCode::Busy;
    owned.erase(frame);
    dram.backend().clearPage(frame);
    buddy.freePages(frame, 0);
    return base::Status::success();
}

bool
PvDomain::entryValid(uint64_t entry, PtLevel level) const
{
    if (!(entry & kPvPresent))
        return true; // non-present entries are harmless
    const Pfn target = frameOf(entry);
    if (!owned.count(target))
        return false;
    if (level == PtLevel::Pmd) {
        // A PMD entry must reference a pinned page table.
        const auto it = pinnedTables.find(target);
        return it != pinnedTables.end() && it->second == PtLevel::Pt;
    }
    return true;
}

base::Status
PvDomain::pinPageTable(Pfn frame, PtLevel level)
{
    if (!owned.count(frame))
        return base::ErrorCode::InvalidArgument;
    if (pinnedTables.count(frame))
        return base::ErrorCode::Exists;
    // Validate the frame's current contents before trusting it.
    for (unsigned index = 0; index < kEntriesPerTable; ++index) {
        const uint64_t entry = dram.backend().read64(
            HostPhysAddr(frame * kPageSize + index * 8ull));
        if (!entryValid(entry, level)) {
            ++rejected;
            return base::ErrorCode::Denied;
        }
    }
    // Write-protect (we model the protection as bookkeeping; guest
    // writes must go through mmuUpdate from here on).
    pinnedTables[frame] = level;
    return base::Status::success();
}

base::Status
PvDomain::mmuUpdate(Pfn table, unsigned index, uint64_t entry)
{
    const auto it = pinnedTables.find(table);
    if (it == pinnedTables.end() || index >= kEntriesPerTable)
        return base::ErrorCode::InvalidArgument;
    if (!entryValid(entry, it->second)) {
        ++rejected;
        return base::ErrorCode::Denied;
    }
    dram.writeEntry(table, index, entry);
    return base::Status::success();
}

base::Expected<Pfn>
PvDomain::resolve(Pfn pmd, unsigned pmd_index, unsigned pt_index) const
{
    // Hardware walk: no ownership or pinning re-checks -- exactly why
    // a flipped PMD entry is game over.
    const uint64_t pmde = dram.backend().read64(
        HostPhysAddr(pmd * kPageSize + pmd_index * 8ull));
    if (!(pmde & kPvPresent))
        return base::ErrorCode::NotFound;
    const Pfn pt = frameOf(pmde);
    if (pt >= dram.pageCount())
        return base::ErrorCode::Fault;
    const uint64_t pte = dram.backend().read64(
        HostPhysAddr(pt * kPageSize + pt_index * 8ull));
    if (!(pte & kPvPresent))
        return base::ErrorCode::NotFound;
    return frameOf(pte);
}

} // namespace hh::xen
