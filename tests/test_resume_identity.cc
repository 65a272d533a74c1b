/**
 * @file
 * The ISSUE 5 acceptance matrix: resume-identity must hold for at
 * least 8 seeds x {1, 4} threads x a randomized FaultPlan. Each cell
 * kills a checkpointed campaign mid-run, resumes it in a fresh
 * process-equivalent, and requires the merged result to be bitwise
 * identical to a straight uncheckpointed run -- every total and every
 * attempt record, via attack::diffAttackResults.
 *
 * Slow by design (each cell runs three campaigns); registered under
 * the tier2 label.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "attack/resume_identity.h"
#include "mitigate/defense.h"
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

attack::AttackConfig
attackConfig()
{
    attack::AttackConfig cfg;
    cfg.maxAttempts = 4;
    cfg.steering.exhaustMappings = 2'500;
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

class ResumeIdentityMatrix
    : public ::testing::TestWithParam<std::tuple<uint64_t, unsigned>>
{
};

TEST_P(ResumeIdentityMatrix, KillResumeIsBitwiseIdentical)
{
    const uint64_t seed = std::get<0>(GetParam());
    const unsigned threads = std::get<1>(GetParam());

    const sys::SystemConfig host_cfg = hostConfig(seed);

    attack::ResumeIdentityOptions options;
    options.threads = threads;
    options.checkpointEvery = 1;
    options.killAfterTrials = 2;
    options.checkpointPath = ::testing::TempDir() + "resume_identity_s" +
        std::to_string(seed) + "_t" + std::to_string(threads) + ".ckpt";

    const attack::ResumeIdentityReport report =
        attack::verifyResumeIdentity(host_cfg, vmConfig(),
                                     host_cfg.dram.mapping,
                                     attackConfig(), options);

    std::string mismatch_list;
    for (const std::string &field : report.mismatches)
        mismatch_list += " " + field;
    EXPECT_TRUE(report.identical)
        << "seed " << seed << ", " << threads
        << " thread(s): mismatched fields:" << mismatch_list;
    // A campaign that finished before the kill point never exercises
    // resume; the matrix parameters are tuned so that most cells kill
    // midway, but identity must hold either way.
    if (report.killedMidway) {
        EXPECT_GT(report.resumedTrials, 0u)
            << "seed " << seed << ", " << threads << " thread(s)";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ResumeIdentityMatrix,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, unsigned>>
           &info) {
        return "seed" + std::to_string(std::get<0>(info.param)) +
            "_threads" + std::to_string(std::get<1>(info.param));
    });

// Kill/resume identity on a defended world: SilozDomains installs a
// multi-domain buddy layout with pinned guard rows. No world is saved
// or restored: every trial, before and after the kill, rebuilds its
// domained world from the configuration and its index, so the
// resumed campaign's outcomes must match the straight run's bit for
// bit.
TEST(ResumeIdentityDefended, SilozWorldKillResumeIsBitwiseIdentical)
{
    mitigate::SilozDomains siloz;
    sys::SystemConfig host_cfg = hostConfig(3);
    siloz.applyHostConfig(host_cfg);

    attack::ResumeIdentityOptions options;
    options.threads = 2;
    options.checkpointEvery = 1;
    options.killAfterTrials = 2;
    options.checkpointPath =
        ::testing::TempDir() + "resume_identity_siloz.ckpt";

    const attack::ResumeIdentityReport report =
        attack::verifyResumeIdentity(host_cfg, vmConfig(),
                                     host_cfg.dram.mapping,
                                     attackConfig(), options);
    std::string mismatch_list;
    for (const std::string &field : report.mismatches)
        mismatch_list += " " + field;
    EXPECT_TRUE(report.identical)
        << "mismatched fields:" << mismatch_list;
}

} // namespace
} // namespace hh
