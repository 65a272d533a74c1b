/**
 * @file
 * Tests of the crash-safe persistence layer: archive primitives, the
 * atomic file framing, campaign checkpointing through the range record
 * with fallback to the rotated previous file, and the defense stack's
 * share of the campaign identity.
 *
 * Worlds are rebuilt, never restored, so no world state is read back
 * here: a world's saveState() stream is its identity, compared in
 * memory by the fork-vs-fresh tests (test_resume_identity,
 * test_host_system).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "attack/orchestrator.h"
#include "base/archive.h"
#include "fault/fault.h"
#include "mitigate/defense.h"
#include "sys/host_system.h"

namespace hh {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

// --- archive primitives ---------------------------------------------------

TEST(Archive, PrimitivesRoundTrip)
{
    base::ArchiveWriter w;
    w.u8(0xab);
    w.boolean(true);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);

    base::ArchiveReader r(w.buffer());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_TRUE(r.atEnd());
    EXPECT_TRUE(r.ok());
}

TEST(Archive, WriteOnlyPrimitivesAreLittleEndianWords)
{
    // u16, f64, str, u64vec and rngState feed identity streams that
    // are compared, never read back: pin the bytes they write.
    base::ArchiveWriter w;
    w.u16(0xbeef);
    w.f64(3.14159265358979);
    w.str("snapshot");
    w.u64vec({1, 2, 3});
    w.rngState({4, 5, 6, 7});

    base::ArchiveReader r(w.buffer());
    EXPECT_EQ(r.u8(), 0xef);
    EXPECT_EQ(r.u8(), 0xbe);
    EXPECT_EQ(r.u64(), std::bit_cast<uint64_t>(3.14159265358979));
    EXPECT_EQ(r.count(1), 8u);
    for (const char c : std::string("snapshot"))
        EXPECT_EQ(r.u8(), static_cast<uint8_t>(c));
    EXPECT_EQ(r.count(8), 3u);
    for (const uint64_t word : {1, 2, 3, 4, 5, 6, 7})
        EXPECT_EQ(r.u64(), word);
    EXPECT_TRUE(r.atEnd());
    EXPECT_TRUE(r.ok());
}

TEST(Archive, TruncatedReadLatchesStickyFailure)
{
    base::ArchiveWriter w;
    w.u64(7);
    const std::vector<uint8_t> cut(w.buffer().begin(),
                                   w.buffer().begin() + 3); // mid-word
    base::ArchiveReader r(cut);
    (void)r.u64(); // may return the readable prefix; must latch
    EXPECT_FALSE(r.ok());
    // Every later read keeps failing and returns defaults: no UB.
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_EQ(r.count(1), 0u);
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_FALSE(r.ok());
}

TEST(Archive, CountRejectsLengthBeyondBuffer)
{
    base::ArchiveWriter w;
    w.u64(~0ull); // a "length" no buffer can satisfy
    base::ArchiveReader r(w.buffer());
    EXPECT_EQ(r.count(8), 0u);
    EXPECT_FALSE(r.ok());

    // A length just past what remains is refused as well.
    base::ArchiveWriter short_w;
    short_w.u64(1 << 20);
    short_w.u8('x');
    base::ArchiveReader short_r(short_w.buffer());
    EXPECT_EQ(short_r.count(1), 0u);
    EXPECT_FALSE(short_r.ok());
}

// --- archive files --------------------------------------------------------

TEST(ArchiveFile, RoundTrip)
{
    const std::string path = tempPath("archive_roundtrip.bin");
    base::ArchiveWriter w;
    w.u64(0x5eed);
    w.u32(0xfeedu);
    ASSERT_TRUE(base::saveArchiveFile(path, 0x1234, 3, w.buffer()).ok());

    auto payload = base::loadArchiveFile(path, 0x1234, 3);
    ASSERT_TRUE(payload.ok());
    base::ArchiveReader r(*payload);
    EXPECT_EQ(r.u64(), 0x5eedu);
    EXPECT_EQ(r.u32(), 0xfeedu);
    EXPECT_TRUE(r.atEnd());
    std::remove(path.c_str());
}

TEST(ArchiveFile, MissingFileIsNotFound)
{
    auto loaded =
        base::loadArchiveFile(tempPath("no_such_snapshot.bin"), 0x1234, 1);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error(), base::ErrorCode::NotFound);
}

TEST(ArchiveFile, WrongMagicVersionChecksumTruncation)
{
    const std::string path = tempPath("archive_corrupt.bin");
    base::ArchiveWriter w;
    w.u64vec({1, 2, 3, 4, 5, 6, 7, 8});
    ASSERT_TRUE(base::saveArchiveFile(path, 0xfeed, 2, w.buffer()).ok());
    const std::vector<uint8_t> good = readFile(path);

    // Wrong magic (expected by the caller).
    EXPECT_FALSE(base::loadArchiveFile(path, 0xbeef, 2).ok());
    // Any other version, older or newer, is refused.
    EXPECT_FALSE(base::loadArchiveFile(path, 0xfeed, 1).ok());
    EXPECT_FALSE(base::loadArchiveFile(path, 0xfeed, 3).ok());

    // One flipped payload byte: checksum mismatch.
    std::vector<uint8_t> flipped = good;
    flipped[flipped.size() - 1] ^= 0x40;
    writeFile(path, flipped);
    EXPECT_FALSE(base::loadArchiveFile(path, 0xfeed, 2).ok());

    // Truncation at every boundary class: inside the header and
    // inside the payload. Neither may crash.
    for (const size_t cut : {size_t{5}, good.size() - 3}) {
        writeFile(path, std::vector<uint8_t>(good.begin(),
                                             good.begin() + cut));
        EXPECT_FALSE(base::loadArchiveFile(path, 0xfeed, 2).ok());
    }
    std::remove(path.c_str());
}

// --- campaign checkpoints -------------------------------------------------

sys::SystemConfig
campaignHost(uint64_t seed)
{
    sys::SystemConfig cfg = sys::SystemConfig::s1(seed)
        .withMemory(1_GiB);
    cfg.dram.fault.weakCellsPerRow *= 4.0;
    return cfg;
}

/**
 * campaignHost(5) under a randomized fault plan: the plain campaign
 * prints one record for every trial, so an outcome restored at the
 * wrong index would still compare equal; this one's records differ.
 */
sys::SystemConfig
faultedCampaignHost()
{
    return campaignHost(5).withFaults(
        fault::FaultPlan::randomized(99, 0.5));
}

vm::VmConfig
campaignVm()
{
    vm::VmConfig cfg;
    cfg.bootMemBytes = 64_MiB;
    cfg.virtioMemRegionSize = 1_GiB;
    cfg.virtioMemPlugged = 640_MiB;
    return cfg;
}

attack::AttackConfig
campaignAttack(unsigned attempts = 4)
{
    attack::AttackConfig cfg;
    cfg.maxAttempts = attempts;
    cfg.steering.exhaustMappings = 2'500;
    return cfg;
}

TEST(Checkpoint, KillResumeMatchesStraightRunAndSurvivesCorruption)
{
    const std::string path = tempPath("campaign.ckpt");
    const std::string prev =
        path + attack::kCheckpointPrevSuffix;
    std::remove(path.c_str());
    std::remove(prev.c_str());
    const unsigned attempts = campaignAttack().maxAttempts;

    // Control: the uncheckpointed campaign.
    attack::AttackResult straight;
    {
        sys::HostSystem host(faultedCampaignHost());
        attack::HyperHammerAttack attack(host, campaignVm(),
                                         host.dram().mapping(),
                                         campaignAttack());
        (void)attack.profilePhase();
        straight = attack.runAttempts(2);
    }
    ASSERT_EQ(straight.outcomes.size(), attempts);
    EXPECT_TRUE(std::any_of(
        straight.outcomes.begin(), straight.outcomes.end(),
        [&](const attack::AttemptOutcome &outcome) {
            return outcome != straight.outcomes.front();
        }))
        << "every trial printed the same record: the outcome "
           "comparison below could not see a misplaced trial";

    // Checkpoint every trial, "crash" after the second.
    {
        sys::HostSystem host(faultedCampaignHost());
        attack::HyperHammerAttack attack(host, campaignVm(),
                                         host.dram().mapping(),
                                         campaignAttack());
        (void)attack.profilePhase();
        attack::CheckpointPolicy policy;
        policy.path = path;
        policy.everyTrials = 1;
        policy.stopAfterTrials = 2;
        const attack::AttackResult partial =
            attack.runAttempts(2, policy);
        if (partial.status == base::Status(base::ErrorCode::Busy)) {
            EXPECT_EQ(partial.attempts, 2u);
        }
    }

    // Corrupt the newest checkpoint: resume must fall back to the
    // rotated previous file and still finish identically.
    std::vector<uint8_t> newest = readFile(path);
    ASSERT_FALSE(newest.empty());
    newest[newest.size() / 2] ^= 0x10;
    writeFile(path, newest);

    attack::AttackResult resumed;
    {
        sys::HostSystem host(faultedCampaignHost());
        attack::HyperHammerAttack attack(host, campaignVm(),
                                         host.dram().mapping(),
                                         campaignAttack());
        (void)attack.profilePhase();
        attack::CheckpointPolicy policy;
        policy.path = path;
        policy.everyTrials = 1;
        resumed = attack.runAttempts(2, policy);
    }
    EXPECT_GT(resumed.resumedTrials, 0u);

    EXPECT_EQ(straight.success, resumed.success);
    EXPECT_EQ(straight.attempts, resumed.attempts);
    EXPECT_EQ(straight.totalTime, resumed.totalTime);
    EXPECT_EQ(straight.outcomes, resumed.outcomes);
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

TEST(Checkpoint, DefenseAttachmentMismatchRejected)
{
    const std::string path = tempPath("campaign_defended.ckpt");
    const std::string prev =
        path + attack::kCheckpointPrevSuffix;
    std::remove(path.c_str());
    std::remove(prev.c_str());

    auto defenses = mitigate::makeDefenseSet("quarantine");
    ASSERT_TRUE(defenses.ok());
    sys::SystemConfig host_cfg = campaignHost(5);
    defenses->applyHostConfig(host_cfg);
    vm::VmConfig vm_cfg = campaignVm();
    defenses->applyVmConfig(vm_cfg);

    // Checkpoint one trial of the defended campaign.
    {
        sys::HostSystem host(host_cfg);
        attack::HyperHammerAttack attack(host, vm_cfg,
                                         host.dram().mapping(),
                                         campaignAttack(2));
        attack.attachDefenses(&*defenses);
        (void)attack.profilePhase();
        attack::CheckpointPolicy policy;
        policy.path = path;
        policy.everyTrials = 1;
        policy.stopAfterTrials = 1;
        (void)attack.runAttempts(1, policy);
    }

    // With a fresh stack of the same spec attached the checkpoint is
    // accepted and the campaign picks up after the stored trial.
    {
        auto resumed_set = mitigate::makeDefenseSet("quarantine");
        ASSERT_TRUE(resumed_set.ok());
        sys::HostSystem host(host_cfg);
        attack::HyperHammerAttack attack(host, vm_cfg,
                                         host.dram().mapping(),
                                         campaignAttack(2));
        attack.attachDefenses(&*resumed_set);
        (void)attack.profilePhase();
        attack::CheckpointPolicy policy;
        policy.path = path;
        policy.everyTrials = 1;
        const attack::AttackResult result =
            attack.runAttempts(1, policy);
        EXPECT_GT(result.resumedTrials, 0u);
    }

    // Resuming the same defended world WITHOUT the stack attached
    // must start over: a defended checkpoint never resumes into an
    // undefended campaign. (Runs last -- its campaign rewrites the
    // checkpoint file as undefended once the resume is refused.)
    {
        sys::HostSystem host(host_cfg);
        attack::HyperHammerAttack attack(host, vm_cfg,
                                         host.dram().mapping(),
                                         campaignAttack(2));
        (void)attack.profilePhase();
        attack::CheckpointPolicy policy;
        policy.path = path;
        policy.everyTrials = 1;
        const attack::AttackResult result =
            attack.runAttempts(1, policy);
        EXPECT_EQ(result.resumedTrials, 0u);
    }
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

TEST(Checkpoint, MismatchedCampaignCheckpointIgnored)
{
    const std::string path = tempPath("campaign_mismatch.ckpt");
    const std::string prev =
        path + attack::kCheckpointPrevSuffix;
    std::remove(path.c_str());
    std::remove(prev.c_str());

    // Write a checkpoint under seed 5...
    {
        sys::HostSystem host(campaignHost(5));
        attack::HyperHammerAttack attack(host, campaignVm(),
                                         host.dram().mapping(),
                                         campaignAttack(2));
        (void)attack.profilePhase();
        attack::CheckpointPolicy policy;
        policy.path = path;
        policy.everyTrials = 1;
        policy.stopAfterTrials = 1;
        (void)attack.runAttempts(1, policy);
    }
    // ...and resume under seed 6: the fingerprint must reject it and
    // the campaign must start over rather than mix foreign outcomes.
    {
        sys::HostSystem host(campaignHost(6));
        attack::HyperHammerAttack attack(host, campaignVm(),
                                         host.dram().mapping(),
                                         campaignAttack(2));
        (void)attack.profilePhase();
        attack::CheckpointPolicy policy;
        policy.path = path;
        policy.everyTrials = 1;
        const attack::AttackResult result =
            attack.runAttempts(1, policy);
        EXPECT_EQ(result.resumedTrials, 0u);
    }
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

TEST(Checkpoint, RecordOfAnotherRangeStartIsIgnored)
{
    const std::string path = tempPath("campaign_range_start.ckpt");
    const std::string prev =
        path + attack::kCheckpointPrevSuffix;
    std::remove(path.c_str());
    std::remove(prev.c_str());

    sys::HostSystem host(faultedCampaignHost());
    attack::HyperHammerAttack attack(host, campaignVm(),
                                     host.dram().mapping(),
                                     campaignAttack());
    (void)attack.profilePhase();

    // Stop range [0, 2) after one trial: its record starts at 0...
    attack::CheckpointPolicy stopper;
    stopper.path = path;
    stopper.everyTrials = 1;
    stopper.stopAfterTrials = 1;
    const attack::TrialRangeResult stopped =
        attack.runTrialRange(0, 2, 1, stopper);

    // ...so range [2, 4) resuming at the same path must not take
    // trial 0's outcome for trial 2's.
    attack::CheckpointPolicy resumer;
    resumer.path = path;
    resumer.everyTrials = 1;
    const attack::TrialRangeResult resumed =
        attack.runTrialRange(2, 4, 1, resumer);
    EXPECT_EQ(resumed.resumedTrials, 0u);
    const attack::TrialRangeResult fresh =
        attack.runTrialRange(2, 4, 1, {});
    EXPECT_EQ(resumed.outcomes, fresh.outcomes);
    // Trials 0 and 2 print different records, so the comparison above
    // fails on its own when trial 0's outcome stands in for trial 2's.
    ASSERT_FALSE(stopped.outcomes.empty());
    ASSERT_FALSE(fresh.outcomes.empty());
    EXPECT_NE(stopped.outcomes.front(), fresh.outcomes.front());
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

TEST(Checkpoint, RecordOfAnotherEndIsIgnored)
{
    const std::string path = tempPath("campaign_range_end.ckpt");
    const std::string prev =
        path + attack::kCheckpointPrevSuffix;
    std::remove(path.c_str());
    std::remove(prev.c_str());

    sys::HostSystem host(faultedCampaignHost());
    attack::HyperHammerAttack attack(host, campaignVm(),
                                     host.dram().mapping(),
                                     campaignAttack());
    (void)attack.profilePhase();

    // Finish range [0, 2): its record shares the campaign and the
    // start of range [0, 4), but not its end...
    attack::CheckpointPolicy policy;
    policy.path = path;
    policy.everyTrials = 1;
    const attack::TrialRangeResult shorter =
        attack.runTrialRange(0, 2, 1, policy);
    ASSERT_EQ(shorter.outcomes.size(), 2u);

    // ...so range [0, 4) at the same path restores none of it.
    const attack::TrialRangeResult longer =
        attack.runTrialRange(0, 4, 1, policy);
    EXPECT_EQ(longer.resumedTrials, 0u);
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

TEST(Checkpoint, SecondRunResumesEverything)
{
    const std::string path = tempPath("campaign_second_run.ckpt");
    const std::string prev =
        path + attack::kCheckpointPrevSuffix;
    std::remove(path.c_str());
    std::remove(prev.c_str());

    sys::HostSystem host(faultedCampaignHost());
    attack::HyperHammerAttack attack(host, campaignVm(),
                                     host.dram().mapping(),
                                     campaignAttack(2));
    (void)attack.profilePhase();

    // A path is the only switch: the second run at the same path
    // restores the first run's finished record and runs no trial.
    attack::CheckpointPolicy policy;
    policy.path = path;
    policy.everyTrials = 1;
    const attack::AttackResult first = attack.runAttempts(1, policy);
    EXPECT_EQ(first.resumedTrials, 0u);
    const attack::AttackResult second = attack.runAttempts(1, policy);
    ASSERT_FALSE(second.outcomes.empty());
    EXPECT_EQ(second.resumedTrials, second.outcomes.size());
    EXPECT_EQ(second.outcomes, first.outcomes);
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

TEST(Checkpoint, TornPrimaryResumesEverythingFromCompletePrev)
{
    const std::string path = tempPath("campaign_torn.ckpt");
    const std::string prev =
        path + attack::kCheckpointPrevSuffix;
    std::remove(path.c_str());
    std::remove(prev.c_str());

    sys::HostSystem host(campaignHost(5));
    attack::HyperHammerAttack attack(host, campaignVm(),
                                     host.dram().mapping(),
                                     campaignAttack());
    (void)attack.profilePhase();

    // Finish range [0, 2), make its record the fallback file and tear
    // the primary (a torn write a crash mid-save could leave).
    attack::CheckpointPolicy policy;
    policy.path = path;
    policy.everyTrials = 1;
    const attack::TrialRangeResult finished =
        attack.runTrialRange(0, 2, 1, policy);
    std::vector<uint8_t> record = readFile(path);
    ASSERT_FALSE(record.empty());
    writeFile(prev, record);
    record.resize(record.size() / 2);
    writeFile(path, record);

    // The resume restores every trial from the fallback and still
    // leaves a loadable terminal record at the path.
    const attack::TrialRangeResult resumed =
        attack.runTrialRange(0, 2, 1, policy);
    EXPECT_EQ(resumed.resumedTrials, finished.outcomes.size());
    EXPECT_EQ(resumed.outcomes, finished.outcomes);
    const auto reloaded = attack::loadRangeRecord(path);
    ASSERT_TRUE(reloaded.ok()) << base::errorName(reloaded.error());
    EXPECT_TRUE(reloaded->terminal);
    EXPECT_EQ(reloaded->outcomes, finished.outcomes);
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

// --- defense identity ----------------------------------------------------

/**
 * One unprofiled campaign; its fingerprint with a stack attached is
 * that stack's share of the campaign identity, the only place a
 * defense's saveState() bytes go.
 */
class DefenseIdentity : public ::testing::Test
{
  protected:
    sys::HostSystem host{
        sys::SystemConfig::s1(42).withMemory(128_MiB)};
    attack::HyperHammerAttack attack{host, campaignVm(),
                                     host.dram().mapping(),
                                     campaignAttack()};

    uint64_t
    fingerprintOf(const std::string &spec)
    {
        auto set = mitigate::makeDefenseSet(spec);
        EXPECT_TRUE(set.ok()) << spec;
        return set.ok() ? fingerprintWith(*set) : 0;
    }

    uint64_t
    fingerprintWith(mitigate::DefenseSet &set)
    {
        attack.attachDefenses(&set);
        const uint64_t fingerprint = attack.campaignFingerprint();
        attack.attachDefenses(nullptr);
        return fingerprint;
    }
};

TEST_F(DefenseIdentity, SameStackBuiltTwiceFingerprintsEqually)
{
    for (const char *spec :
         {"quarantine", "siloz", "trr-ecc", "catt", "catt-hole",
          "siloz+trr-ecc", "quarantine+catt"})
        EXPECT_EQ(fingerprintOf(spec), fingerprintOf(spec)) << spec;
}

TEST_F(DefenseIdentity, DistinctStacksFingerprintDifferently)
{
    const std::vector<std::string> specs = {"siloz", "catt",
                                            "catt-hole",
                                            "siloz+trr-ecc"};
    std::vector<uint64_t> fingerprints;
    for (const std::string &spec : specs)
        fingerprints.push_back(fingerprintOf(spec));
    fingerprints.push_back(attack.campaignFingerprint()); // undefended
    for (size_t i = 0; i < fingerprints.size(); ++i)
        for (size_t j = i + 1; j < fingerprints.size(); ++j)
            EXPECT_NE(fingerprints[i], fingerprints[j])
                << "stack " << i << " vs stack " << j;
}

TEST_F(DefenseIdentity, EveryTunedKnobMovesTheFingerprint)
{
    // One knob per defense, and both of CattPartition's: a knob the
    // fingerprint missed would let records of one tuning resume into
    // another.
    using Tune = void (*)(mitigate::Defense &);
    const std::vector<std::pair<std::string, Tune>> knobs = {
        {"catt",
         [](mitigate::Defense &d) {
             static_cast<mitigate::CattPartition &>(d).kernelBytes =
                 123_MiB;
         }},
        {"catt",
         [](mitigate::Defense &d) {
             static_cast<mitigate::CattPartition &>(d)
                 .doubleOwnershipHole = true;
         }},
        {"siloz",
         [](mitigate::Defense &d) {
             static_cast<mitigate::SilozDomains &>(d).guardRows = 3;
         }},
        {"quarantine",
         [](mitigate::Defense &d) {
             static_cast<mitigate::VirtioQuarantine &>(d)
                 .graceRequests = 2;
         }},
        {"trr-ecc",
         [](mitigate::Defense &d) {
             static_cast<mitigate::TrrEccSweep &>(d).trackerCapacity =
                 8;
         }},
    };
    for (const auto &[spec, tune] : knobs) {
        auto tuned = mitigate::makeDefenseSet(spec);
        ASSERT_TRUE(tuned.ok()) << spec;
        tune(tuned->at(0));
        EXPECT_NE(fingerprintWith(*tuned), fingerprintOf(spec)) << spec;
    }
}

} // namespace
} // namespace hh
