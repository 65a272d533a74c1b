#include "buddy_allocator.h"

#include <algorithm>

#include "base/bitops.h"
#include "base/log.h"

namespace hh::mm {

const char *
migrateTypeName(MigrateType mt)
{
    switch (mt) {
      case MigrateType::Unmovable:   return "Unmovable";
      case MigrateType::Movable:     return "Movable";
      case MigrateType::Reclaimable: return "Reclaimable";
    }
    return "?";
}

const char *
pageUseName(PageUse use)
{
    switch (use) {
      case PageUse::Free:        return "Free";
      case PageUse::KernelData:  return "KernelData";
      case PageUse::PageCache:   return "PageCache";
      case PageUse::GuestMemory: return "GuestMemory";
      case PageUse::EptPage:     return "EptPage";
      case PageUse::IoptPage:    return "IoptPage";
      case PageUse::DmaBuffer:   return "DmaBuffer";
      case PageUse::GuardRow:    return "GuardRow";
    }
    return "?";
}

const char *
domainClassName(DomainClass cls)
{
    switch (cls) {
      case DomainClass::General:   return "General";
      case DomainClass::Kernel:    return "Kernel";
      case DomainClass::User:      return "User";
      case DomainClass::Ept:       return "Ept";
      case DomainClass::Guest:     return "Guest";
      case DomainClass::KernelDma: return "KernelDma";
    }
    return "?";
}

uint64_t
PageTypeInfo::pagesBelowOrder(MigrateType mt, unsigned below_order) const
{
    uint64_t pages = 0;
    for (unsigned order = 0; order < below_order && order < kMaxOrder;
         ++order) {
        pages += blockCount(mt, order) << order;
    }
    return pages;
}

uint64_t
PageTypeInfo::totalPages(MigrateType mt) const
{
    return pagesBelowOrder(mt, kMaxOrder);
}

BuddyAllocator::BuddyAllocator(BuddyConfig config)
    : frames(config.totalPages), pcpCfg(config.pcp)
{
    HH_ASSERT(config.totalPages > 0);
    // Carve the domain table. The undefended layout is one General
    // domain spanning everything; a partitioned layout takes its specs
    // in order and absorbs any uncovered tail into a trailing General
    // domain so the whole PFN range is always owned by exactly one
    // domain.
    if (config.layout.empty()) {
        Domain dom;
        dom.start = 0;
        dom.end = dom.usableEnd = frames.size();
        domains.push_back(std::move(dom));
    } else {
        Pfn start = 0;
        for (size_t i = 0; i < config.layout.domains.size(); ++i) {
            const DomainSpec &spec = config.layout.domains[i];
            uint64_t pages = spec.pages;
            if (pages == 0) {
                HH_ASSERT(i + 1 == config.layout.domains.size());
                HH_ASSERT(start < frames.size());
                pages = frames.size() - start;
            }
            HH_ASSERT(pages > spec.guardPages);
            HH_ASSERT(start + pages <= frames.size());
            Domain dom;
            dom.start = start;
            dom.end = start + pages;
            dom.usableEnd = dom.end - spec.guardPages;
            dom.cls = spec.cls;
            domains.push_back(std::move(dom));
            start += pages;
        }
        if (start < frames.size()) {
            Domain dom;
            dom.start = start;
            dom.end = dom.usableEnd = frames.size();
            domains.push_back(std::move(dom));
        }
    }

    // Seed each domain's free lists with maximal aligned blocks, all
    // Movable: on a freshly booted host the vast majority of
    // pageblocks are MIGRATE_MOVABLE; unmovable blocks appear through
    // fallback. Guard-band frames are born permanently allocated --
    // never free, so no buddy merge (and no allocation) can ever
    // reach across them.
    const unsigned top = kMaxOrder - 1;
    for (Domain &dom : domains) {
        Pfn pfn = dom.start;
        while (pfn < dom.usableEnd) {
            unsigned order = top;
            while (order > 0
                   && ((pfn & ((1ull << order) - 1)) != 0
                       || pfn + (1ull << order) > dom.usableEnd)) {
                --order;
            }
            for (uint64_t i = 0; i < (1ull << order); ++i) {
                PageFrame &frame = frames.mut(pfn + i);
                frame.free = true;
                frame.migrateType = MigrateType::Movable;
            }
            listPush(dom, MigrateType::Movable, order, pfn);
            freeCount += 1ull << order;
            pfn += 1ull << order;
        }
        for (Pfn guard = dom.usableEnd; guard < dom.end; ++guard) {
            PageFrame &frame = frames.mut(guard);
            frame.free = false;
            frame.freeHead = false;
            frame.migrateType = MigrateType::Unmovable;
            frame.use = PageUse::GuardRow;
            frame.pinned = true;
            frame.owner = 0;
        }
    }
}

BuddyAllocator::BuddyAllocator(ForkTag, const BuddyAllocator &src)
    : frames(src.frames.fork()), domains(src.domains),
      freeCount(src.freeCount), pcpCfg(src.pcpCfg)
{}

const PageFrame &
BuddyAllocator::frame(Pfn pfn) const
{
    HH_ASSERT(pfn < frames.size());
    return frames[pfn];
}

BuddyAllocator::Domain &
BuddyAllocator::domainOf(Pfn pfn)
{
    HH_ASSERT(pfn < frames.size());
    // Domains are few and sorted by start; upper_bound finds the first
    // domain starting *after* pfn, so its predecessor contains it.
    auto it = std::upper_bound(
        domains.begin(), domains.end(), pfn,
        [](Pfn p, const Domain &d) { return p < d.start; });
    HH_ASSERT(it != domains.begin());
    return *(it - 1);
}

const BuddyAllocator::Domain &
BuddyAllocator::domainOf(Pfn pfn) const
{
    return const_cast<BuddyAllocator *>(this)->domainOf(pfn);
}

size_t
BuddyAllocator::domainIndexOf(Pfn pfn) const
{
    return static_cast<size_t>(&domainOf(pfn) - domains.data());
}

DomainInfo
BuddyAllocator::domainInfo(size_t idx) const
{
    HH_ASSERT(idx < domains.size());
    const Domain &dom = domains[idx];
    return DomainInfo{dom.start, dom.end, dom.usableEnd, dom.cls};
}

uint64_t
BuddyAllocator::guardPageCount() const
{
    uint64_t guards = 0;
    for (const Domain &dom : domains)
        guards += dom.end - dom.usableEnd;
    return guards;
}

bool
BuddyAllocator::domainOnPass(const Domain &dom, PageUse use, int pass)
{
    // Pass 0: dedicated domains that admit this use, in layout order
    // (Siloz lists its EPT domain before the host domain, so EPT pages
    // prefer it). Pass 1: General domains.
    const bool specific = dom.cls != DomainClass::General;
    return pass == 0 ? specific && classAdmits(dom.cls, use) : !specific;
}

void
BuddyAllocator::listPush(Domain &dom, MigrateType mt, unsigned order,
                         Pfn pfn)
{
    FreeList &list = dom.lists[static_cast<unsigned>(mt)][order];
    PageFrame &frame = frames.mut(pfn);
    frame.freeHead = true;
    frame.order = static_cast<uint8_t>(order);
    frame.prevFree = kInvalidPfn;
    frame.nextFree = list.head;
    if (list.head != kInvalidPfn)
        frames.mut(list.head).prevFree = pfn;
    list.head = pfn;
    ++list.count;
}

void
BuddyAllocator::listRemove(Domain &dom, MigrateType mt, unsigned order,
                           Pfn pfn)
{
    FreeList &list = dom.lists[static_cast<unsigned>(mt)][order];
    // mut(pfn) unshares pfn's chunk first, so the later muts (which can
    // only copy *other* chunks) never invalidate this reference.
    PageFrame &frame = frames.mut(pfn);
    HH_ASSERT(frame.freeHead && frame.order == order);
    if (frame.prevFree != kInvalidPfn)
        frames.mut(frame.prevFree).nextFree = frame.nextFree;
    else
        list.head = frame.nextFree;
    if (frame.nextFree != kInvalidPfn)
        frames.mut(frame.nextFree).prevFree = frame.prevFree;
    frame.freeHead = false;
    frame.prevFree = frame.nextFree = kInvalidPfn;
    HH_ASSERT(list.count > 0);
    --list.count;
}

Pfn
BuddyAllocator::listPop(Domain &dom, MigrateType mt, unsigned order)
{
    FreeList &list = dom.lists[static_cast<unsigned>(mt)][order];
    HH_ASSERT(list.head != kInvalidPfn);
    const Pfn pfn = list.head;
    listRemove(dom, mt, order, pfn);
    return pfn;
}

void
BuddyAllocator::markAllocated(Pfn pfn, unsigned order, MigrateType mt,
                              PageUse use, uint16_t owner)
{
    for (uint64_t i = 0; i < (1ull << order); ++i) {
        PageFrame &frame = frames.mut(pfn + i);
        frame.free = false;
        frame.freeHead = false;
        frame.migrateType = mt;
        frame.use = use;
        frame.owner = owner;
    }
}

base::Expected<Pfn>
BuddyAllocator::allocCore(Domain &dom, unsigned order, MigrateType mt)
{
    // Smallest sufficient order first: this is the policy that makes
    // noise-page exhaustion necessary (Section 4.2.1).
    for (unsigned o = order; o < kMaxOrder; ++o) {
        if (dom.lists[static_cast<unsigned>(mt)][o].head == kInvalidPfn)
            continue;
        Pfn pfn = listPop(dom, mt, o);
        freeCount -= 1ull << o;
        // Split the block down, returning the upper halves.
        while (o > order) {
            --o;
            const Pfn buddy = pfn + (1ull << o);
            for (uint64_t i = 0; i < (1ull << o); ++i)
                frames.mut(buddy + i).migrateType = mt;
            listPush(dom, mt, o, buddy);
            freeCount += 1ull << o;
        }
        return pfn;
    }
    return stealFallback(dom, order, mt);
}

base::Expected<Pfn>
BuddyAllocator::stealFallback(Domain &dom, unsigned order,
                              MigrateType mt)
{
    // Fallback preference order, after mm/page_alloc.c fallbacks[].
    static constexpr MigrateType kFallbacks[kMigrateTypes][2] = {
        /* Unmovable  -> */ {MigrateType::Reclaimable, MigrateType::Movable},
        /* Movable    -> */ {MigrateType::Reclaimable,
                             MigrateType::Unmovable},
        /* Reclaimable-> */ {MigrateType::Unmovable, MigrateType::Movable},
    };
    const auto &fallbacks = kFallbacks[static_cast<unsigned>(mt)];

    // Steal the *largest* available block so future same-type
    // allocations stay local (kernel behaviour).
    for (int o = kMaxOrder - 1; o >= static_cast<int>(order); --o) {
        for (MigrateType ft : fallbacks) {
            if (dom.lists[static_cast<unsigned>(ft)][o].head
                == kInvalidPfn) {
                continue;
            }
            Pfn pfn = listPop(dom, ft, o);
            freeCount -= 1ull << o;
            // Convert the whole block to the desired type.
            for (uint64_t i = 0; i < (1ull << o); ++i)
                frames.mut(pfn + i).migrateType = mt;
            unsigned cur = static_cast<unsigned>(o);
            while (cur > order) {
                --cur;
                const Pfn buddy = pfn + (1ull << cur);
                listPush(dom, mt, cur, buddy);
                freeCount += 1ull << cur;
            }
            return pfn;
        }
    }
    return base::ErrorCode::NoMemory;
}

base::Expected<Pfn>
BuddyAllocator::allocPages(unsigned order, MigrateType mt, PageUse use,
                           uint16_t owner)
{
    HH_ASSERT(order < kMaxOrder);
    HH_ASSERT(use != PageUse::GuardRow);
    // Allocation failure under pressure: param selects a PageUse to
    // starve (0 = every class).
    if (const fault::FaultEntry *f =
            HH_FAULT_POINT(faultInjector, fault::FaultSite::MmAlloc)) {
        if (f->kind == fault::FaultKind::AllocFail
            && (f->param == 0
                || f->param == static_cast<uint64_t>(use)))
            return base::ErrorCode::NoMemory;
    }
    for (int pass = 0; pass < 2; ++pass) {
        for (Domain &dom : domains) {
            if (!domainOnPass(dom, use, pass))
                continue;
            if (order == 0 && pcpCfg.highWatermark > 0) {
                auto &cache = dom.pcp[static_cast<unsigned>(mt)];
                if (cache.empty()) {
                    // Refill a batch from the buddy lists
                    // (rmqueue_bulk).
                    for (unsigned i = 0; i < pcpCfg.batch; ++i) {
                        auto page = allocCore(dom, 0, mt);
                        if (!page)
                            break;
                        // PCP pages are off the buddy lists but not
                        // yet handed out; they are not "free" in the
                        // buddy sense.
                        PageFrame &frame = frames.mut(*page);
                        frame.free = false;
                        frame.freeHead = false;
                        frame.use = PageUse::Free;
                        frame.migrateType = mt;
                        cache.push_back(*page);
                    }
                }
                if (!cache.empty()) {
                    const Pfn pfn = cache.back();
                    cache.pop_back();
                    markAllocated(pfn, 0, mt, use, owner);
                    return pfn;
                }
                continue; // domain exhausted; try the next candidate
            }

            auto pfn = allocCore(dom, order, mt);
            if (!pfn) {
                // Allocation pressure: drain the per-CPU pagesets so
                // parked order-0 pages can coalesce, then retry
                // (Linux's drain_all_pages() on the slow path).
                drainPcpDomain(dom);
                pfn = allocCore(dom, order, mt);
            }
            if (!pfn)
                continue;
            markAllocated(*pfn, order, mt, use, owner);
            return pfn;
        }
    }
    return base::ErrorCode::NoMemory;
}

base::Expected<Pfn>
BuddyAllocator::allocPagesAnyType(unsigned order, PageUse use,
                                  uint16_t owner)
{
    HH_ASSERT(order < kMaxOrder);
    HH_ASSERT(use != PageUse::GuardRow);
    for (int pass = 0; pass < 2; ++pass) {
        for (Domain &dom : domains) {
            if (!domainOnPass(dom, use, pass))
                continue;
            for (int attempt = 0; attempt < 2; ++attempt) {
                for (unsigned o = order; o < kMaxOrder; ++o) {
                    for (unsigned mt = 0; mt < kMigrateTypes; ++mt) {
                        if (dom.lists[mt][o].head == kInvalidPfn)
                            continue;
                        const auto type = static_cast<MigrateType>(mt);
                        Pfn pfn = listPop(dom, type, o);
                        freeCount -= 1ull << o;
                        unsigned cur = o;
                        while (cur > order) {
                            --cur;
                            listPush(dom, type, cur,
                                     pfn + (1ull << cur));
                            freeCount += 1ull << cur;
                        }
                        markAllocated(pfn, order, type, use, owner);
                        return pfn;
                    }
                }
                // slow path: reclaim parked PCP pages and retry
                drainPcpDomain(dom);
            }
        }
    }
    return base::ErrorCode::NoMemory;
}

void
BuddyAllocator::freeCore(Domain &dom, Pfn pfn, unsigned order,
                         MigrateType mt)
{
    HH_ASSERT(pfn >= dom.start);
    HH_ASSERT(pfn + (1ull << order) <= dom.usableEnd);
    for (uint64_t i = 0; i < (1ull << order); ++i) {
        PageFrame &frame = frames.mut(pfn + i);
        HH_ASSERT(!frame.free);
        HH_ASSERT(!frame.pinned);
        frame.free = true;
        frame.freeHead = false;
        frame.use = PageUse::Free;
        frame.owner = 0;
        frame.migrateType = mt;
    }
    freeCount += 1ull << order;

    // Coalesce with the buddy while possible. Linux only merges blocks
    // of the same migrate type (they live on the same list), and a
    // merge never crosses a domain boundary: the buddy must lie fully
    // inside this domain's usable range.
    while (order < kMaxOrder - 1) {
        const Pfn buddy = pfn ^ (1ull << order);
        if (buddy < dom.start
            || buddy + (1ull << order) > dom.usableEnd) {
            break;
        }
        const PageFrame &bframe = frames[buddy];
        if (!bframe.free || !bframe.freeHead || bframe.order != order
            || bframe.migrateType != mt) {
            break;
        }
        listRemove(dom, mt, order, buddy);
        pfn = std::min(pfn, buddy);
        ++order;
        for (uint64_t i = 0; i < (1ull << order); ++i)
            frames.mut(pfn + i).migrateType = mt;
    }
    listPush(dom, mt, order, pfn);
}

void
BuddyAllocator::freePages(Pfn pfn, unsigned order)
{
    freePagesAs(pfn, order, frames[pfn].migrateType);
}

void
BuddyAllocator::freePagesAs(Pfn pfn, unsigned order, MigrateType mt)
{
    HH_ASSERT(order < kMaxOrder);
    HH_ASSERT(!frames[pfn].pinned);
    Domain &dom = domainOf(pfn);
    if (order == 0 && pcpCfg.highWatermark > 0) {
        // Order-0 frees park in the home domain's PCP and drain in
        // batches (a shared cache would leak pages across domains).
        PageFrame &frame = frames.mut(pfn);
        HH_ASSERT(!frame.free);
        frame.use = PageUse::Free;
        frame.owner = 0;
        frame.migrateType = mt;
        auto &cache = dom.pcp[static_cast<unsigned>(mt)];
        cache.push_back(pfn);
        if (cache.size() > pcpCfg.highWatermark) {
            for (unsigned i = 0; i < pcpCfg.batch && !cache.empty();
                 ++i) {
                const Pfn drained = cache.front();
                cache.erase(cache.begin());
                freeCore(dom, drained, 0,
                         frames[drained].migrateType);
            }
        }
        return;
    }
    freeCore(dom, pfn, order, mt);
}

void
BuddyAllocator::setPinned(Pfn pfn, bool pinned)
{
    HH_ASSERT(pfn < frames.size());
    HH_ASSERT(!frames[pfn].free);
    frames.mut(pfn).pinned = pinned;
}

void
BuddyAllocator::setUse(Pfn pfn, PageUse use, uint16_t owner)
{
    HH_ASSERT(pfn < frames.size());
    HH_ASSERT(!frames[pfn].free);
    PageFrame &frame = frames.mut(pfn);
    frame.use = use;
    frame.owner = owner;
}

void
BuddyAllocator::pinRange(Pfn first, uint64_t count, PageUse use,
                         uint16_t owner)
{
    HH_ASSERT(first + count <= frames.size());
    for (Pfn pfn = first; pfn < first + count; ++pfn) {
        PageFrame &frame = frames.mut(pfn);
        HH_ASSERT(!frame.free);
        frame.pinned = true;
        // Pinned pages cannot be migrated: Linux marks them unmovable
        // so compaction and NUMA balancing skip them (Section 2.6).
        frame.migrateType = MigrateType::Unmovable;
        frame.use = use;
        frame.owner = owner;
    }
}

void
BuddyAllocator::unpinRange(Pfn first, uint64_t count)
{
    HH_ASSERT(first + count <= frames.size());
    for (Pfn pfn = first; pfn < first + count; ++pfn) {
        PageFrame &frame = frames.mut(pfn);
        HH_ASSERT(!frame.free);
        frame.pinned = false;
    }
}

bool
BuddyAllocator::blockUniformlyOwned(Pfn pfn, unsigned order,
                                    PageUse use, uint16_t owner) const
{
    HH_ASSERT(pfn + (1ull << order) <= frames.size());
    for (uint64_t i = 0; i < (1ull << order); ++i) {
        const PageFrame &frame = frames[pfn + i];
        if (frame.free || frame.use != use || frame.owner != owner)
            return false;
    }
    return true;
}

PageTypeInfo
BuddyAllocator::pageTypeInfo() const
{
    PageTypeInfo info;
    for (const Domain &dom : domains)
        for (unsigned mt = 0; mt < kMigrateTypes; ++mt)
            for (unsigned order = 0; order < kMaxOrder; ++order)
                info.blocks[mt][order] += dom.lists[mt][order].count;
    return info;
}

uint64_t
BuddyAllocator::pcpCount() const
{
    uint64_t count = 0;
    for (const Domain &dom : domains)
        for (const auto &cache : dom.pcp)
            count += cache.size();
    return count;
}

void
BuddyAllocator::drainPcpDomain(Domain &dom)
{
    for (auto &cache : dom.pcp) {
        for (Pfn pfn : cache)
            freeCore(dom, pfn, 0, frames[pfn].migrateType);
        cache.clear();
    }
}

void
BuddyAllocator::drainPcp()
{
    for (Domain &dom : domains)
        drainPcpDomain(dom);
}

void
BuddyAllocator::saveState(base::ArchiveWriter &w) const
{
    w.u64(frames.size());
    for (Pfn pfn = 0; pfn < frames.size(); ++pfn) {
        const PageFrame &frame = frames[pfn];
        w.u64(frame.nextFree);
        w.u64(frame.prevFree);
        w.u8(frame.order);
        w.boolean(frame.free);
        w.boolean(frame.freeHead);
        w.u8(static_cast<uint8_t>(frame.migrateType));
        w.u8(static_cast<uint8_t>(frame.use));
        w.boolean(frame.pinned);
        w.u16(frame.owner);
    }
    // Domain geometry travels via the config fingerprint; only the
    // per-domain mutable state (free lists, PCP stacks) is payload.
    w.u64(domains.size());
    for (const Domain &dom : domains) {
        for (unsigned mt = 0; mt < kMigrateTypes; ++mt) {
            for (unsigned order = 0; order < kMaxOrder; ++order) {
                w.u64(dom.lists[mt][order].head);
                w.u64(dom.lists[mt][order].count);
            }
        }
    }
    w.u64(freeCount);
    for (const Domain &dom : domains)
        for (const auto &cache : dom.pcp)
            w.u64vec(cache);
}

void
BuddyAllocator::checkConsistency() const
{
    // 1. Every list entry is a free head of the right order/type inside
    //    its domain's usable range, and the doubly-linked structure is
    //    intact.
    uint64_t listed_pages = 0;
    for (const Domain &dom : domains) {
        for (unsigned mt = 0; mt < kMigrateTypes; ++mt) {
            for (unsigned order = 0; order < kMaxOrder; ++order) {
                const FreeList &list = dom.lists[mt][order];
                uint64_t walked = 0;
                Pfn prev = kInvalidPfn;
                for (Pfn pfn = list.head; pfn != kInvalidPfn;
                     pfn = frames[pfn].nextFree) {
                    const PageFrame &frame = frames[pfn];
                    HH_ASSERT(frame.free && frame.freeHead);
                    HH_ASSERT(frame.order == order);
                    HH_ASSERT(frame.migrateType
                              == static_cast<MigrateType>(mt));
                    HH_ASSERT(frame.prevFree == prev);
                    HH_ASSERT((pfn & ((1ull << order) - 1)) == 0);
                    HH_ASSERT(pfn >= dom.start);
                    HH_ASSERT(pfn + (1ull << order) <= dom.usableEnd);
                    // Tail frames of the block are free but not heads.
                    for (uint64_t i = 1; i < (1ull << order); ++i) {
                        HH_ASSERT(frames[pfn + i].free);
                        HH_ASSERT(!frames[pfn + i].freeHead);
                    }
                    prev = pfn;
                    ++walked;
                    listed_pages += 1ull << order;
                }
                HH_ASSERT(walked == list.count);
            }
        }
        // 2. Guard bands stay permanently reserved.
        for (Pfn guard = dom.usableEnd; guard < dom.end; ++guard) {
            HH_ASSERT(!frames[guard].free);
            HH_ASSERT(frames[guard].use == PageUse::GuardRow);
            HH_ASSERT(frames[guard].pinned);
        }
    }
    HH_ASSERT(listed_pages == freeCount);

    // 3. Every frame marked free belongs to exactly one listed block.
    uint64_t free_frames = 0;
    for (Pfn pfn = 0; pfn < frames.size(); ++pfn)
        free_frames += frames[pfn].free ? 1 : 0;
    HH_ASSERT(free_frames == freeCount);
}

} // namespace hh::mm
