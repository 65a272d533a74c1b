/**
 * @file
 * Tests of the host assembly: the S1/S2/S3 presets, boot-time noise
 * population, churn, scaling, VM lifecycle accounting, and trial
 * worlds forked on several threads from one template.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "sys/host_system.h"

namespace hh::sys {
namespace {

TEST(SystemConfig, PresetsMatchPaperHardware)
{
    const SystemConfig s1 = SystemConfig::s1();
    EXPECT_EQ(s1.name, "S1");
    EXPECT_EQ(s1.dram.totalBytes, 16_GiB);
    EXPECT_TRUE(s1.dram.mapping == dram::AddressMapping::i3_10100());
    EXPECT_FALSE(s1.dram.trr.enabled);
    EXPECT_FALSE(s1.dram.ecc.enabled);

    const SystemConfig s2 = SystemConfig::s2();
    EXPECT_TRUE(s2.dram.mapping
                == dram::AddressMapping::xeonE3_2124());
    // Table 1: S2 flips more but far less stably.
    EXPECT_GT(s2.dram.fault.weakCellsPerRow,
              SystemConfig::s1().dram.fault.weakCellsPerRow);
    EXPECT_LT(s2.dram.fault.stableFraction,
              SystemConfig::s1().dram.fault.stableFraction);

    const SystemConfig s3 = SystemConfig::s3();
    // OpenStack host: more unmovable noise and ongoing churn.
    EXPECT_GT(s3.noise.unmovableFreePages,
              s1.noise.unmovableFreePages);
    EXPECT_GT(s3.noise.churnPagesPerTick, 0u);
}

TEST(SystemConfig, WithMemoryScalesNoise)
{
    SystemConfig cfg = SystemConfig::s1();
    const uint64_t noise_full = cfg.noise.unmovableFreePages;
    cfg.withMemory(2_GiB);
    EXPECT_EQ(cfg.dram.totalBytes, 2_GiB);
    EXPECT_NEAR(static_cast<double>(cfg.noise.unmovableFreePages),
                noise_full / 8.0, 2.0);
}

TEST(SystemConfig, WithSeedChangesDramSeed)
{
    SystemConfig a = SystemConfig::s1().withSeed(1);
    SystemConfig b = SystemConfig::s1().withSeed(2);
    EXPECT_NE(a.dram.seed, b.dram.seed);
}

TEST(HostSystem, BootLeavesConfiguredNoise)
{
    HostSystem host(SystemConfig::s1(7).withMemory(1_GiB));
    const uint64_t noise = host.noisePages();
    const uint64_t target = host.config().noise.unmovableFreePages;
    // The random interleave cannot be exact; 30 % tolerance.
    EXPECT_GT(noise, target * 7 / 10);
    EXPECT_LT(noise, target * 13 / 10);
    // Kernel pages are resident.
    EXPECT_NEAR(
        static_cast<double>(
            host.countFramesByUse(mm::PageUse::KernelData)),
        static_cast<double>(host.config().noise.kernelResidentPages),
        host.config().noise.kernelResidentPages * 0.02 + 8);
    EXPECT_EQ(host.countFramesByUse(mm::PageUse::PageCache),
              host.config().noise.pageCachePages);
}

TEST(HostSystem, BootChargesTime)
{
    HostSystem host(SystemConfig::s1(7).withMemory(1_GiB));
    EXPECT_GT(host.clock().now(), 0u);
}

TEST(HostSystem, NoiseTickKeepsPopulationSteady)
{
    HostSystem host(SystemConfig::s3(7).withMemory(1_GiB));
    const uint64_t kernel_before =
        host.countFramesByUse(mm::PageUse::KernelData);
    for (int i = 0; i < 50; ++i)
        host.noiseTick();
    const uint64_t kernel_after =
        host.countFramesByUse(mm::PageUse::KernelData);
    EXPECT_NEAR(static_cast<double>(kernel_after),
                static_cast<double>(kernel_before),
                kernel_before * 0.05);
    // Churn perturbs the free lists but keeps noise in the same band.
    EXPECT_GT(host.noisePages(), 0u);
}

TEST(HostSystem, NoiseTickNoOpWithoutChurn)
{
    HostSystem host(SystemConfig::s1(7).withMemory(1_GiB));
    const base::SimTime before = host.clock().now();
    host.noiseTick();
    EXPECT_EQ(host.clock().now(), before);
}

TEST(HostSystem, CreateVmChargesProvisioningTime)
{
    HostSystem host(SystemConfig::s1(7).withMemory(2_GiB));
    vm::VmConfig cfg;
    cfg.bootMemBytes = 64_MiB;
    cfg.virtioMemRegionSize = 1_GiB;
    cfg.virtioMemPlugged = 512_MiB;
    const base::SimTime before = host.clock().now();
    auto machine = host.createVm(cfg);
    // At least the fixed boot cost plus per-byte preparation.
    EXPECT_GT(host.clock().now() - before, 20 * base::kSecond);
    EXPECT_EQ(machine->memorySize(), 64_MiB + 512_MiB);
}

TEST(HostSystem, VmIdsIncrease)
{
    HostSystem host(SystemConfig::s1(7).withMemory(2_GiB));
    vm::VmConfig cfg;
    cfg.bootMemBytes = 16_MiB;
    cfg.virtioMemRegionSize = 64_MiB;
    cfg.virtioMemPlugged = 32_MiB;
    auto a = host.createVm(cfg);
    auto b = host.createVm(cfg);
    EXPECT_NE(a->id(), b->id());
}

TEST(HostSystem, RespawnVariesGuestLayout)
{
    HostSystem host(SystemConfig::s1(7).withMemory(2_GiB));
    vm::VmConfig cfg;
    cfg.bootMemBytes = 64_MiB;
    cfg.virtioMemRegionSize = 2_GiB;
    cfg.virtioMemPlugged = 1_GiB;

    auto first = host.createVm(cfg);
    std::vector<uint64_t> layout_a;
    for (GuestPhysAddr hp : first->hugePageGpas())
        layout_a.push_back(first->debugTranslate(hp)->value());
    first.reset();

    auto second = host.createVm(cfg);
    std::vector<uint64_t> layout_b;
    for (GuestPhysAddr hp : second->hugePageGpas())
        layout_b.push_back(second->debugTranslate(hp)->value());

    EXPECT_NE(layout_a, layout_b);
}

TEST(HostSystem, PageCacheChurnPreservesCount)
{
    HostSystem host(SystemConfig::s1(7).withMemory(1_GiB));
    const uint64_t before =
        host.countFramesByUse(mm::PageUse::PageCache);
    host.pageCacheChurn(500);
    EXPECT_EQ(host.countFramesByUse(mm::PageUse::PageCache), before);
}

TEST(HostSystem, S3StartsWithMoreNoiseThanS1)
{
    HostSystem s1(SystemConfig::s1(7).withMemory(2_GiB));
    HostSystem s3(SystemConfig::s3(7).withMemory(2_GiB));
    EXPECT_GT(s3.noisePages(), s1.noisePages() * 2);
}

// Worlds forked from one template on several threads take and give
// back blocks through the template's one set of spare lists. Each
// thread's fork -> VM -> writes -> drop cycles must leave every world
// exactly as a serial run does (TSan checks the sharing in CI).
TEST(HostSystem, ParallelForksShareSparesAndMatchSerialRun)
{
    const SystemConfig cfg = SystemConfig::s1(9).withMemory(512_MiB);
    const std::unique_ptr<const HostSystem> tmpl =
        HostSystem::makeForkTemplate(cfg);
    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 16_MiB;
    vm_cfg.virtioMemRegionSize = 256_MiB;
    vm_cfg.virtioMemPlugged = 128_MiB;
    // A hash of one trial world's host and VM bytes after a VM spawn,
    // demotions and spilling writes; 0 when a write fails.
    const auto world_hash = [&](uint64_t trial) -> size_t {
        SystemConfig trial_cfg = cfg;
        trial_cfg.seed = base::SeedSequence(cfg.seed).seed(trial);
        const std::unique_ptr<HostSystem> host =
            HostSystem::forkTrial(*tmpl, trial_cfg);
        const std::unique_ptr<vm::VirtualMachine> machine =
            host->createVm(vm_cfg);
        const std::vector<GuestPhysAddr> hps = machine->hugePageGpas();
        for (size_t i = 0; i < hps.size(); i += 4) {
            machine->execute(hps[i]);
            if (!machine->write64(hps[i] + 8, trial).ok()
                || !machine->write64(hps[i] + 16, i).ok())
                return 0;
        }
        base::ArchiveWriter w;
        host->saveState(w);
        machine->saveState(w);
        const std::vector<uint8_t> &bytes = w.buffer();
        return std::hash<std::string_view>{}(std::string_view(
            reinterpret_cast<const char *>(bytes.data()), bytes.size()));
    };

    constexpr unsigned kThreads = 4;
    constexpr unsigned kCycles = 8;
    std::vector<size_t> serial(kThreads * kCycles);
    for (uint64_t trial = 0; trial < serial.size(); ++trial)
        serial[trial] = world_hash(trial);
    std::vector<size_t> parallel(serial.size());
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (unsigned c = 0; c < kCycles; ++c)
                parallel[t * kCycles + c] = world_hash(t * kCycles + c);
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    EXPECT_EQ(parallel, serial);
    for (size_t hash : serial)
        EXPECT_NE(hash, 0u);
}

} // namespace
} // namespace hh::sys
