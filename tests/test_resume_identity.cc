/**
 * @file
 * World-fork identity: a trial world forked from the pristine template
 * is bit-identical to a freshly constructed host, also when the fork
 * reuses the storage of a dropped fork. Campaign kill/resume identity
 * is tested on the range records a kill leaves, in test_shard.cc
 * (SweepIdentityMatrix) and test_snapshot.cc (Checkpoint).
 *
 * Registered under the tier2 label: each test builds several 1 GiB
 * worlds.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "base/archive.h"
#include "base/rng.h"
#include "sys/host_system.h"

namespace hh {
namespace {

sys::SystemConfig
hostConfig(uint64_t seed)
{
    sys::SystemConfig cfg = sys::SystemConfig::s1(seed)
        .withMemory(1_GiB)
        .withFaults(fault::FaultPlan::randomized(seed * 31 + 7, 0.5));
    // Denser weak cells so profiling finds bits in a 1 GiB host.
    cfg.dram.fault.weakCellsPerRow *= 4.0;
    return cfg;
}

vm::VmConfig
vmConfig()
{
    vm::VmConfig cfg;
    cfg.bootMemBytes = 64_MiB;
    cfg.virtioMemRegionSize = 1_GiB;
    cfg.virtioMemPlugged = 640_MiB;
    return cfg;
}

std::vector<uint8_t>
worldBytes(const sys::HostSystem &host)
{
    base::ArchiveWriter w;
    host.saveState(w);
    return w.buffer();
}

// The identity the Monte-Carlo engine rests on: forking the pristine
// template with a trial seed reproduces a freshly constructed
// HostSystem bit for bit, for every trial seed derivation.
TEST(WorldForkIdentity, ForkTrialMatchesFreshConstruction)
{
    const sys::SystemConfig cfg = hostConfig(5);
    const std::unique_ptr<const sys::HostSystem> tmpl =
        sys::HostSystem::makeForkTemplate(cfg);
    ASSERT_TRUE(tmpl->isPristineTemplate());
    for (uint64_t trial = 0; trial < 4; ++trial) {
        sys::SystemConfig trial_cfg = cfg;
        trial_cfg.seed = base::SeedSequence(cfg.seed).seed(trial);
        sys::HostSystem fresh(trial_cfg);
        const std::unique_ptr<sys::HostSystem> forked =
            sys::HostSystem::forkTrial(*tmpl, trial_cfg);
        EXPECT_EQ(worldBytes(*forked), worldBytes(fresh))
            << "trial " << trial;
    }
}

// Spawn a VM on @p host, demote and write some of its hugepages so
// that EPT pages and data pages spill to dense pages, and return the
// host's and the VM's bytes.
std::vector<uint8_t>
spilledWorldBytes(sys::HostSystem &host)
{
    const std::unique_ptr<vm::VirtualMachine> machine =
        host.createVm(vmConfig());
    const std::vector<GuestPhysAddr> hps = machine->hugePageGpas();
    uint64_t demoted = 0;
    for (size_t i = 0; i < hps.size(); i += 8) {
        demoted += machine->execute(hps[i]).demotedHugePage ? 1 : 0;
        EXPECT_TRUE(machine->write64(hps[i] + 8, 0xa0 + i).ok());
        EXPECT_TRUE(machine->write64(hps[i] + 16, 0xb0 + i).ok());
    }
    EXPECT_GT(demoted, 0u);
    base::ArchiveWriter w;
    host.saveState(w);
    machine->saveState(w);
    return w.buffer();
}

// A fork that takes its backend blocks from a dropped fork of the same
// template (recycled chunks and dense pages) is still bit-identical to
// a freshly constructed world that ran the same steps.
TEST(WorldForkIdentity, ForkAfterDroppedForkMatchesFresh)
{
    const sys::SystemConfig cfg =
        sys::SystemConfig::s1(5).withMemory(1_GiB);
    const std::unique_ptr<const sys::HostSystem> tmpl =
        sys::HostSystem::makeForkTemplate(cfg);
    const auto trial_cfg = [&](uint64_t trial) {
        sys::SystemConfig out = cfg;
        out.seed = base::SeedSequence(cfg.seed).seed(trial);
        return out;
    };
    std::vector<uint8_t> first_bytes;
    {
        const std::unique_ptr<sys::HostSystem> first =
            sys::HostSystem::forkTrial(*tmpl, trial_cfg(0));
        first_bytes = spilledWorldBytes(*first);
    }
    {
        const std::unique_ptr<sys::HostSystem> second =
            sys::HostSystem::forkTrial(*tmpl, trial_cfg(1));
        sys::HostSystem fresh(trial_cfg(1));
        EXPECT_EQ(spilledWorldBytes(*second), spilledWorldBytes(fresh));
    }
    // Repeating the first fork's work takes every block from the
    // spares and allocates none.
    const std::unique_ptr<sys::HostSystem> again =
        sys::HostSystem::forkTrial(*tmpl, trial_cfg(0));
    EXPECT_EQ(spilledWorldBytes(*again), first_bytes);
    EXPECT_EQ(again->dram().backend().allocatedBlocks(), 0u);
}

} // namespace
} // namespace hh
