/**
 * @file
 * Micro-benchmarks (google-benchmark) for the hot substrate
 * operations: DRAM accesses, hammer bursts, buddy allocation, EPT
 * walks and IOPT mapping. These guard the simulator's own wall-clock
 * performance -- the table benches iterate these paths millions of
 * times.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "hyperhammer/hyperhammer.h"

using namespace hh;

namespace {

struct World
{
    base::SimClock clock;
    std::unique_ptr<dram::DramSystem> dram;
    std::unique_ptr<mm::BuddyAllocator> buddy;

    World()
    {
        dram::DramConfig cfg;
        cfg.totalBytes = 1_GiB;
        cfg.fault.weakCellsPerRow = 0.001;
        dram = std::make_unique<dram::DramSystem>(cfg, clock);
        mm::BuddyConfig buddy_cfg;
        buddy_cfg.totalPages = 1_GiB / kPageSize;
        buddy = std::make_unique<mm::BuddyAllocator>(buddy_cfg);
    }
};

void
BM_DramRead64(benchmark::State &state)
{
    World world;
    world.dram->fillPage(100, 0xff);
    uint64_t addr = 100 * kPageSize;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            world.dram->read64(HostPhysAddr(addr)));
        addr = 100 * kPageSize + ((addr + 8) & (kPageSize - 1));
    }
}
BENCHMARK(BM_DramRead64);

void
BM_DramWrite64(benchmark::State &state)
{
    World world;
    uint64_t i = 0;
    for (auto _ : state) {
        world.dram->write64(
            HostPhysAddr(200 * kPageSize + (i % 512) * 8), i);
        ++i;
    }
}
BENCHMARK(BM_DramWrite64);

void
BM_DramTimedAccess(benchmark::State &state)
{
    World world;
    uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(world.dram->timedAccess(
            HostPhysAddr((i * 64) & (1_GiB - 64))));
        ++i;
    }
}
BENCHMARK(BM_DramTimedAccess);

void
BM_HammerBurst(benchmark::State &state)
{
    World world;
    const dram::AddressMapping &map = world.dram->mapping();
    const HostPhysAddr a = map.address(3, 100);
    const HostPhysAddr b(a.value() + map.rowStripeBytes());
    const std::vector<HostPhysAddr> aggressors{a, b};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            world.dram->hammer(aggressors, 250'000));
    }
}
BENCHMARK(BM_HammerBurst);

void
BM_BuddyAllocFreeOrder0(benchmark::State &state)
{
    World world;
    for (auto _ : state) {
        auto page = world.buddy->allocPages(
            0, mm::MigrateType::Unmovable, mm::PageUse::KernelData);
        world.buddy->freePages(*page, 0);
    }
}
BENCHMARK(BM_BuddyAllocFreeOrder0);

void
BM_BuddyAllocFreeOrder9(benchmark::State &state)
{
    World world;
    for (auto _ : state) {
        auto block = world.buddy->allocPages(
            9, mm::MigrateType::Movable, mm::PageUse::GuestMemory);
        world.buddy->freePages(*block, 9);
    }
}
BENCHMARK(BM_BuddyAllocFreeOrder9);

void
BM_EptTranslate(benchmark::State &state)
{
    World world;
    kvm::Mmu mmu(*world.dram, *world.buddy, kvm::MmuConfig{}, 1);
    auto block = world.buddy->allocPages(9, mm::MigrateType::Movable,
                                         mm::PageUse::GuestMemory);
    const base::Status mapped = mmu.map2m(GuestPhysAddr(0),
                                          HostPhysAddr(*block * kPageSize));
    HH_ASSERT(mapped.ok());
    uint64_t off = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mmu.translate(GuestPhysAddr(off)));
        off = (off + kPageSize) & (kHugePageSize - 1);
    }
}
BENCHMARK(BM_EptTranslate);

void
BM_EptDemotion(benchmark::State &state)
{
    World world;
    std::unique_ptr<kvm::Mmu> mmu = std::make_unique<kvm::Mmu>(
        *world.dram, *world.buddy, kvm::MmuConfig{}, 1);
    uint64_t gpa = 0;
    std::vector<Pfn> blocks;
    for (auto _ : state) {
        state.PauseTiming();
        if (gpa > 128_MiB) {
            // Recycle the world: demotion is irreversible.
            mmu.reset();
            for (Pfn block : blocks)
                world.buddy->freePages(block, 9);
            blocks.clear();
            mmu = std::make_unique<kvm::Mmu>(
                *world.dram, *world.buddy, kvm::MmuConfig{}, 1);
            gpa = 0;
        }
        auto block = world.buddy->allocPages(
            9, mm::MigrateType::Movable, mm::PageUse::GuestMemory);
        blocks.push_back(*block);
        const base::Status mapped = mmu->map2m(
            GuestPhysAddr(gpa), HostPhysAddr(*block * kPageSize));
        HH_ASSERT(mapped.ok());
        state.ResumeTiming();
        benchmark::DoNotOptimize(
            mmu->access(GuestPhysAddr(gpa), kvm::Access::Exec));
        gpa += kHugePageSize;
    }
}
BENCHMARK(BM_EptDemotion);

void
BM_IoptMap(benchmark::State &state)
{
    World world;
    auto vfio = std::make_unique<iommu::VfioContainer>(
        *world.dram, *world.buddy, iommu::IommuConfig{}, 1);
    iommu::GroupId group = vfio->addGroup();
    uint64_t iova = 0;
    for (auto _ : state) {
        if (iova > 60_GiB) {
            state.PauseTiming();
            vfio = std::make_unique<iommu::VfioContainer>(
                *world.dram, *world.buddy, iommu::IommuConfig{}, 1);
            group = vfio->addGroup();
            iova = 0;
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(vfio->mapDma(
            group, IoVirtAddr(iova), HostPhysAddr(0x1000)));
        iova += kHugePageSize;
    }
}
BENCHMARK(BM_IoptMap);

void
BM_ScanCleanPage(benchmark::State &state)
{
    World world;
    world.dram->fillPage(1000, 0xabcd);
    for (auto _ : state) {
        benchmark::DoNotOptimize(world.dram->scanPage(1000, 0xabcd));
    }
}
BENCHMARK(BM_ScanCleanPage);

} // namespace

BENCHMARK_MAIN();
