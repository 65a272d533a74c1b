/**
 * @file
 * Tests of the crash-safe snapshot layer: archive primitives, the
 * atomic file framing, whole-host and whole-world round trips,
 * per-subsystem deep equality, corruption rejection, and campaign
 * checkpointing with fallback to the rotated previous file.
 *
 * Deep equality is checked by re-serialization: two objects whose
 * saveState() byte streams match are bitwise-identical in every field
 * the snapshot covers (the streams encode all of them, maps in sorted
 * order).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "attack/orchestrator.h"
#include "base/archive.h"
#include "mitigate/defense.h"
#include "snapshot/checkpoint_policy.h"
#include "snapshot/snapshot.h"
#include "snapshot/snapshot_format.h"
#include "sys/host_system.h"
#include "sys/ksm.h"

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

sys::SystemConfig
smallHost(uint64_t seed = 42)
{
    return sys::SystemConfig::s1(seed).withMemory(128_MiB);
}

/** The full serialized host state, for byte-wise deep equality. */
std::vector<uint8_t>
hostBytes(const sys::HostSystem &host)
{
    base::ArchiveWriter w;
    host.saveState(w);
    return w.buffer();
}

// --- archive primitives ---------------------------------------------------

TEST(Archive, PrimitivesRoundTrip)
{
    base::ArchiveWriter w;
    w.u8(0xab);
    w.boolean(true);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.i64(-42);
    w.f64(3.14159265358979);
    w.str("snapshot");
    w.u64vec({1, 2, 3});
    w.rngState({4, 5, 6, 7});

    base::ArchiveReader r(w.buffer());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), 3.14159265358979);
    EXPECT_EQ(r.str(), "snapshot");
    EXPECT_EQ(r.u64vec(), (std::vector<uint64_t>{1, 2, 3}));
    EXPECT_EQ(r.rngState(), (std::array<uint64_t, 4>{4, 5, 6, 7}));
    EXPECT_TRUE(r.atEnd());
    EXPECT_TRUE(r.status().ok());
}

TEST(Archive, TruncatedReadLatchesStickyFailure)
{
    base::ArchiveWriter w;
    w.u64(7);
    base::ArchiveReader r(w.buffer().data(), 3); // cut mid-word
    (void)r.u64(); // may return the readable prefix; must latch
    EXPECT_FALSE(r.ok());
    // Every later read keeps failing and returns defaults: no UB.
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.u64vec().empty());
    EXPECT_FALSE(r.status().ok());
}

TEST(Archive, CountRejectsLengthBeyondBuffer)
{
    base::ArchiveWriter w;
    w.u64(~0ull); // a "length" no buffer can satisfy
    base::ArchiveReader r(w.buffer());
    EXPECT_EQ(r.count(8), 0u);
    EXPECT_FALSE(r.ok());
}

TEST(Archive, StringLengthBeyondBufferRejected)
{
    base::ArchiveWriter w;
    w.u64(1 << 20); // length prefix far past the end
    w.u8('x');
    base::ArchiveReader r(w.buffer());
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.ok());
}

// --- archive files --------------------------------------------------------

TEST(ArchiveFile, RoundTrip)
{
    const std::string path = tempPath("archive_roundtrip.bin");
    base::ArchiveWriter w;
    w.u64(0x5eed);
    w.str("payload");
    ASSERT_TRUE(base::saveArchiveFile(path, 0x1234, 3, w.buffer()).ok());

    auto loaded = base::loadArchiveFile(path, 0x1234, 1, 3);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->version, 3u);
    base::ArchiveReader r(loaded->payload);
    EXPECT_EQ(r.u64(), 0x5eedu);
    EXPECT_EQ(r.str(), "payload");
    std::remove(path.c_str());
}

TEST(ArchiveFile, MissingFileIsNotFound)
{
    auto loaded = base::loadArchiveFile(
        tempPath("no_such_snapshot.bin"), 0x1234, 1, 1);
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
    EXPECT_FALSE(base::loadArchiveFile(path, 0xbeef, 1, 2).ok());
    // Version outside the accepted range (stale snapshot).
    EXPECT_FALSE(base::loadArchiveFile(path, 0xfeed, 3, 9).ok());

    // One flipped payload byte: checksum mismatch.
    std::vector<uint8_t> flipped = good;
    flipped[flipped.size() - 1] ^= 0x40;
    writeFile(path, flipped);
    EXPECT_FALSE(base::loadArchiveFile(path, 0xfeed, 1, 2).ok());

    // Truncation at every boundary class: inside the header and
    // inside the payload. Neither may crash.
    for (const size_t cut : {size_t{5}, good.size() - 3}) {
        writeFile(path, std::vector<uint8_t>(good.begin(),
                                             good.begin() + cut));
        EXPECT_FALSE(base::loadArchiveFile(path, 0xfeed, 1, 2).ok());
    }
    std::remove(path.c_str());
}

// --- per-subsystem round trips --------------------------------------------

TEST(SubsystemSnapshot, MemoryBackendRoundTripAndCorruption)
{
    sys::HostSystem host(smallHost());
    host.dram().write64(HostPhysAddr(0x1000), 0x1122334455667788ull);

    base::ArchiveWriter w;
    host.dram().backend().saveState(w);

    // Round trip into the same backend: byte-identical re-encoding.
    base::ArchiveReader r(w.buffer());
    ASSERT_TRUE(host.dram().backend().loadState(r).ok());
    base::ArchiveWriter w2;
    host.dram().backend().saveState(w2);
    EXPECT_EQ(w.buffer(), w2.buffer());

    // A PFN beyond the DIMM must be rejected and leave state alone.
    base::ArchiveWriter bad;
    bad.u64(1);                          // one page
    bad.u64(host.dram().pageCount());    // out of range
    bad.u64(0);                          // fill
    bad.u64(0);                          // no overrides
    base::ArchiveReader bad_r(bad.buffer());
    EXPECT_FALSE(host.dram().backend().loadState(bad_r).ok());
    base::ArchiveWriter w3;
    host.dram().backend().saveState(w3);
    EXPECT_EQ(w.buffer(), w3.buffer());
}

TEST(SubsystemSnapshot, BuddyRoundTripAndCorruptionKeepsState)
{
    sys::HostSystem host(smallHost());
    base::ArchiveWriter w;
    host.buddy().saveState(w);

    base::ArchiveReader r(w.buffer());
    ASSERT_TRUE(host.buddy().loadState(r).ok());
    base::ArchiveWriter w2;
    host.buddy().saveState(w2);
    EXPECT_EQ(w.buffer(), w2.buffer());

    // Flip one byte somewhere inside the frame records: the
    // non-panicking consistency walk must reject it -- never abort --
    // and leave the allocator untouched.
    std::vector<uint8_t> corrupt = w.buffer();
    corrupt[corrupt.size() / 2] ^= 0x04;
    base::ArchiveReader cr(corrupt);
    const base::Status st = host.buddy().loadState(cr);
    if (!st.ok()) {
        base::ArchiveWriter w3;
        host.buddy().saveState(w3);
        EXPECT_EQ(w.buffer(), w3.buffer());
    }
    // (A flip that survives the walk is itself a valid state; the
    // host-level snapshot catches it via the file checksum.)

    // The allocator must still work after all of the above.
    auto page = host.buddy().allocPages(0, mm::MigrateType::Movable,
                                        mm::PageUse::PageCache);
    ASSERT_TRUE(page.ok());
    host.buddy().freePages(*page, 0);
}

TEST(SubsystemSnapshot, FaultInjectorCursorsRoundTrip)
{
    const fault::FaultPlan plan = fault::FaultPlan::randomized(9, 0.5);
    sys::HostSystem host(smallHost(7).withFaults(plan));
    ASSERT_NE(host.faults(), nullptr);
    host.pageCacheChurn(500); // advance some per-site streams

    base::ArchiveWriter w;
    host.faults()->saveState(w);
    base::ArchiveReader r(w.buffer());
    ASSERT_TRUE(host.faults()->loadState(r).ok());
    base::ArchiveWriter w2;
    host.faults()->saveState(w2);
    EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(SubsystemSnapshot, KsmMergeStateRoundTrip)
{
    sys::HostSystem host(smallHost());
    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 16_MiB;
    vm_cfg.virtioMemRegionSize = 64_MiB;
    vm_cfg.virtioMemPlugged = 32_MiB;
    // No passthrough: VFIO DMA-pins guest frames and KSM skips them.
    vm_cfg.passthroughDevices = 0;
    auto machine = host.createVm(vm_cfg);

    sys::Ksm ksm(host.dram(), host.buddy(), /*enabled=*/true);
    ksm.attach(*machine);
    // Identical content in two plugged pages: the first pass registers
    // the content, the second pass merges the duplicate into it.
    const GuestPhysAddr page_a{vm::kVirtioMemRegionStart + 5 * kPageSize};
    const GuestPhysAddr page_b{vm::kVirtioMemRegionStart + 9 * kPageSize};
    ASSERT_TRUE(machine->fillPage(page_a, 0x5a5a5a5a5a5a5a5aull).ok());
    ASSERT_TRUE(machine->fillPage(page_b, 0x5a5a5a5a5a5a5a5aull).ok());
    (void)ksm.scanRange(*machine, page_a, 1);
    (void)ksm.scanRange(*machine, page_b, 1);
    ASSERT_GT(ksm.stats().pagesMerged, 0u);

    base::ArchiveWriter w;
    ksm.saveState(w);
    base::ArchiveReader r(w.buffer());
    ASSERT_TRUE(ksm.loadState(r).ok());
    base::ArchiveWriter w2;
    ksm.saveState(w2);
    EXPECT_EQ(w.buffer(), w2.buffer());

    // Ksm's destructor contract: tear the VM down first.
    machine.reset();
}

// --- whole-host snapshots -------------------------------------------------

TEST(HostSnapshot, RoundTripIsBitwiseIdentical)
{
    const std::string path = tempPath("host_snapshot.bin");
    sys::SystemConfig cfg = smallHost(11);

    sys::HostSystem original(cfg);
    original.pageCacheChurn(300);
    original.noiseTick();
    original.dram().write64(HostPhysAddr(0x2000), 0xfeedfaceull);
    ASSERT_TRUE(original.saveSnapshot(path).ok());

    sys::HostSystem restored(cfg);
    ASSERT_TRUE(restored.loadSnapshot(path).ok());

    EXPECT_EQ(hostBytes(original), hostBytes(restored));
    EXPECT_EQ(restored.clock().now(), original.clock().now());
    EXPECT_EQ(restored.noisePages(), original.noisePages());
    // DRAM reads advance the simulated clock, so mirror every access
    // on both hosts to keep them comparable afterwards.
    EXPECT_EQ(restored.dram().read64(HostPhysAddr(0x2000)),
              0xfeedfaceull);
    EXPECT_EQ(original.dram().read64(HostPhysAddr(0x2000)),
              0xfeedfaceull);

    // Determinism continues after restore: the same operation on both
    // hosts produces the same state evolution.
    original.pageCacheChurn(100);
    restored.pageCacheChurn(100);
    EXPECT_EQ(hostBytes(original), hostBytes(restored));
    std::remove(path.c_str());
}

TEST(HostSnapshot, ConfigFingerprintMismatchRejected)
{
    const std::string path = tempPath("host_fingerprint.bin");
    sys::HostSystem original(smallHost(11));
    ASSERT_TRUE(original.saveSnapshot(path).ok());

    // Different seed => different fingerprint => rejected.
    sys::HostSystem other(smallHost(12));
    const base::Status st = other.loadSnapshot(path);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error(), base::ErrorCode::InvalidArgument);
    std::remove(path.c_str());
}

TEST(HostSnapshot, CorruptedAndStaleFilesRejected)
{
    const std::string path = tempPath("host_corrupt.bin");
    sys::SystemConfig cfg = smallHost(13);
    sys::HostSystem original(cfg);
    ASSERT_TRUE(original.saveSnapshot(path).ok());
    const std::vector<uint8_t> good = readFile(path);
    ASSERT_GT(good.size(), 64u);

    sys::HostSystem target(cfg);

    // Flipped byte mid-payload: checksum rejects before any parsing.
    std::vector<uint8_t> flipped = good;
    flipped[good.size() / 2] ^= 0x01;
    writeFile(path, flipped);
    EXPECT_FALSE(target.loadSnapshot(path).ok());

    // Truncated file.
    writeFile(path, std::vector<uint8_t>(good.begin(),
                                         good.begin() + good.size() / 2));
    EXPECT_FALSE(target.loadSnapshot(path).ok());

    // Stale format version (header field is not checksummed; bump it).
    std::vector<uint8_t> stale = good;
    stale[8] += 1; // little-endian version low byte
    writeFile(path, stale);
    EXPECT_FALSE(target.loadSnapshot(path).ok());

    // The untouched file still loads -- and the target host survived
    // every rejected attempt.
    writeFile(path, good);
    EXPECT_TRUE(target.loadSnapshot(path).ok());
    EXPECT_EQ(hostBytes(original), hostBytes(target));
    std::remove(path.c_str());
}

// --- whole-world snapshots (host + VMs) -----------------------------------

TEST(WorldSnapshot, HostAndVmRoundTrip)
{
    const std::string path = tempPath("world_snapshot.bin");
    sys::SystemConfig cfg = smallHost(21);
    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 16_MiB;
    vm_cfg.virtioMemRegionSize = 64_MiB;
    vm_cfg.virtioMemPlugged = 32_MiB;

    sys::HostSystem original(cfg);
    auto machine = original.createVm(vm_cfg);
    ASSERT_TRUE(machine->write64(GuestPhysAddr(0x4008),
                                 0xc0ffee5ull).ok());
    ASSERT_TRUE(machine->iommuMap(0, IoVirtAddr(0x10000),
                                  GuestPhysAddr(0x4000)).ok());

    ASSERT_TRUE(
        snapshot::saveWorld(original, {machine.get()}, path).ok());

    sys::HostSystem restored_host(cfg);
    auto restored = snapshot::loadWorld(restored_host, {vm_cfg}, path);
    ASSERT_TRUE(restored.ok());
    ASSERT_EQ(restored->size(), 1u);
    vm::VirtualMachine &twin = *(*restored)[0];

    // Byte-wise deep equality first: guest reads advance the host's
    // simulated clock, so compare before touching memory.
    EXPECT_EQ(hostBytes(original), hostBytes(restored_host));
    base::ArchiveWriter wa;
    machine->saveState(wa);
    base::ArchiveWriter wb;
    twin.saveState(wb);
    EXPECT_EQ(wa.buffer(), wb.buffer());

    // Guest-visible state survived: same id, same memory word.
    EXPECT_EQ(twin.id(), machine->id());
    auto word = twin.read64(GuestPhysAddr(0x4008));
    ASSERT_TRUE(word.ok());
    EXPECT_EQ(*word, 0xc0ffee5ull);
    std::remove(path.c_str());
}

TEST(WorldSnapshot, VmCountMismatchRejected)
{
    const std::string path = tempPath("world_count.bin");
    sys::SystemConfig cfg = smallHost(22);
    vm::VmConfig vm_cfg;
    vm_cfg.bootMemBytes = 16_MiB;
    vm_cfg.virtioMemRegionSize = 64_MiB;
    vm_cfg.virtioMemPlugged = 32_MiB;

    sys::HostSystem original(cfg);
    auto machine = original.createVm(vm_cfg);
    ASSERT_TRUE(
        snapshot::saveWorld(original, {machine.get()}, path).ok());

    sys::HostSystem restored_host(cfg);
    auto restored = snapshot::loadWorld(restored_host,
                                        {vm_cfg, vm_cfg}, path);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.error(), base::ErrorCode::InvalidArgument);
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
campaignAttack()
{
    attack::AttackConfig cfg;
    cfg.maxAttempts = 4;
    cfg.steering.exhaustMappings = 2'500;
    return cfg;
}

TEST(Checkpoint, KillResumeMatchesStraightRunAndSurvivesCorruption)
{
    const std::string path = tempPath("campaign.ckpt");
    const std::string prev =
        path + snapshot::kCheckpointPrevSuffix;
    std::remove(path.c_str());
    std::remove(prev.c_str());
    const unsigned attempts = 4;

    // Control: the uncheckpointed campaign.
    attack::AttackResult straight;
    {
        sys::HostSystem host(campaignHost(5));
        attack::HyperHammerAttack attack(host, campaignVm(),
                                         host.dram().mapping(),
                                         campaignAttack());
        (void)attack.profilePhase();
        straight = attack.runAttempts(attempts, 2);
    }

    // Checkpoint every trial, "crash" after the second.
    {
        sys::HostSystem host(campaignHost(5));
        attack::HyperHammerAttack attack(host, campaignVm(),
                                         host.dram().mapping(),
                                         campaignAttack());
        (void)attack.profilePhase();
        snapshot::CheckpointPolicy policy;
        policy.path = path;
        policy.everyTrials = 1;
        policy.stopAfterTrials = 2;
        const attack::AttackResult partial =
            attack.runAttempts(attempts, 2, policy);
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
        sys::HostSystem host(campaignHost(5));
        attack::HyperHammerAttack attack(host, campaignVm(),
                                         host.dram().mapping(),
                                         campaignAttack());
        (void)attack.profilePhase();
        snapshot::CheckpointPolicy policy;
        policy.path = path;
        policy.everyTrials = 1;
        policy.resume = true;
        resumed = attack.runAttempts(attempts, 2, policy);
    }
    EXPECT_GT(resumed.resumedTrials, 0u);

    EXPECT_EQ(straight.success, resumed.success);
    EXPECT_EQ(straight.attempts, resumed.attempts);
    EXPECT_EQ(straight.totalTime, resumed.totalTime);
    EXPECT_EQ(straight.outcomes, resumed.outcomes);
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

// --- defense persistence --------------------------------------------------

std::vector<uint8_t>
defenseSetBytes(const mitigate::DefenseSet &set)
{
    base::ArchiveWriter w;
    set.saveState(w);
    return w.buffer();
}

TEST(DefenseSnapshot, EveryStackRoundTripsByteIdentically)
{
    for (const char *spec :
         {"quarantine", "siloz", "trr-ecc", "catt", "catt-hole",
          "siloz+trr-ecc", "quarantine+catt"}) {
        auto saved = mitigate::makeDefenseSet(spec);
        ASSERT_TRUE(saved.ok()) << spec;
        const std::vector<uint8_t> bytes = defenseSetBytes(*saved);

        auto restored = mitigate::makeDefenseSet(spec);
        ASSERT_TRUE(restored.ok()) << spec;
        base::ArchiveReader r(bytes);
        ASSERT_TRUE(restored->loadState(r).ok()) << spec;
        EXPECT_TRUE(r.atEnd()) << spec;
        EXPECT_EQ(defenseSetBytes(*restored), bytes) << spec;
    }
}

TEST(DefenseSnapshot, TunedKnobsSurviveTheRoundTrip)
{
    mitigate::CattPartition tuned;
    tuned.kernelBytes = 123_MiB;
    tuned.doubleOwnershipHole = true;
    base::ArchiveWriter w;
    tuned.saveState(w);

    mitigate::CattPartition fresh;
    base::ArchiveReader r(w.buffer());
    ASSERT_TRUE(fresh.loadState(r).ok());
    EXPECT_EQ(fresh.kernelBytes, 123_MiB);
    EXPECT_TRUE(fresh.doubleOwnershipHole);
    base::ArchiveWriter w2;
    fresh.saveState(w2);
    EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(DefenseSnapshot, CorruptionMatrixRejectsEveryTruncation)
{
    // Truncation at every byte boundary must be rejected -- the
    // sticky-failure reader guarantees no prefix parses as a
    // complete stack -- and a failed load must not corrupt the
    // receiving stack.
    auto set = mitigate::makeDefenseSet("siloz+trr-ecc");
    ASSERT_TRUE(set.ok());
    const std::vector<uint8_t> bytes = defenseSetBytes(*set);
    for (size_t len = 0; len < bytes.size(); ++len) {
        auto victim = mitigate::makeDefenseSet("siloz+trr-ecc");
        ASSERT_TRUE(victim.ok());
        std::vector<uint8_t> prefix(bytes.begin(),
                                    bytes.begin() + len);
        base::ArchiveReader r(prefix);
        EXPECT_FALSE(victim->loadState(r).ok()) << "prefix " << len;
    }
}

TEST(DefenseSnapshot, ForeignStackStateRejected)
{
    // A payload whose defense names or stack length do not match the
    // receiving stack must be refused: resuming a siloz campaign from
    // a catt checkpoint would silently evaluate the wrong defense.
    auto siloz = mitigate::makeDefenseSet("siloz");
    auto catt = mitigate::makeDefenseSet("catt");
    auto stacked = mitigate::makeDefenseSet("siloz+trr-ecc");
    ASSERT_TRUE(siloz.ok());
    ASSERT_TRUE(catt.ok());
    ASSERT_TRUE(stacked.ok());

    const std::vector<uint8_t> siloz_bytes = defenseSetBytes(*siloz);
    base::ArchiveReader into_catt(siloz_bytes);
    EXPECT_FALSE(catt->loadState(into_catt).ok());

    base::ArchiveReader into_stacked(siloz_bytes);
    EXPECT_FALSE(stacked->loadState(into_stacked).ok());

    const std::vector<uint8_t> stacked_bytes =
        defenseSetBytes(*stacked);
    base::ArchiveReader into_siloz(stacked_bytes);
    EXPECT_FALSE(siloz->loadState(into_siloz).ok());
}

TEST(Checkpoint, DefenseAttachmentMismatchRejected)
{
    const std::string path = tempPath("campaign_defended.ckpt");
    const std::string prev =
        path + snapshot::kCheckpointPrevSuffix;
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
                                         campaignAttack());
        attack.attachDefenses(&*defenses);
        (void)attack.profilePhase();
        snapshot::CheckpointPolicy policy;
        policy.path = path;
        policy.everyTrials = 1;
        policy.stopAfterTrials = 1;
        (void)attack.runAttempts(3, 1, policy);
    }

    // With a fresh stack of the same spec attached the checkpoint is
    // accepted and the campaign picks up after the stored trial.
    {
        auto resumed_set = mitigate::makeDefenseSet("quarantine");
        ASSERT_TRUE(resumed_set.ok());
        sys::HostSystem host(host_cfg);
        attack::HyperHammerAttack attack(host, vm_cfg,
                                         host.dram().mapping(),
                                         campaignAttack());
        attack.attachDefenses(&*resumed_set);
        (void)attack.profilePhase();
        snapshot::CheckpointPolicy policy;
        policy.path = path;
        policy.everyTrials = 1;
        policy.resume = true;
        const attack::AttackResult result =
            attack.runAttempts(2, 1, policy);
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
                                         campaignAttack());
        (void)attack.profilePhase();
        snapshot::CheckpointPolicy policy;
        policy.path = path;
        policy.everyTrials = 1;
        policy.resume = true;
        const attack::AttackResult result =
            attack.runAttempts(2, 1, policy);
        EXPECT_EQ(result.resumedTrials, 0u);
    }
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

TEST(Checkpoint, MismatchedCampaignCheckpointIgnored)
{
    const std::string path = tempPath("campaign_mismatch.ckpt");
    const std::string prev =
        path + snapshot::kCheckpointPrevSuffix;
    std::remove(path.c_str());
    std::remove(prev.c_str());

    // Write a checkpoint under seed 5...
    {
        sys::HostSystem host(campaignHost(5));
        attack::HyperHammerAttack attack(host, campaignVm(),
                                         host.dram().mapping(),
                                         campaignAttack());
        (void)attack.profilePhase();
        snapshot::CheckpointPolicy policy;
        policy.path = path;
        policy.everyTrials = 1;
        policy.stopAfterTrials = 1;
        (void)attack.runAttempts(3, 1, policy);
    }
    // ...and resume under seed 6: the fingerprint must reject it and
    // the campaign must start over rather than mix foreign outcomes.
    {
        sys::HostSystem host(campaignHost(6));
        attack::HyperHammerAttack attack(host, campaignVm(),
                                         host.dram().mapping(),
                                         campaignAttack());
        (void)attack.profilePhase();
        snapshot::CheckpointPolicy policy;
        policy.path = path;
        policy.everyTrials = 1;
        policy.resume = true;
        const attack::AttackResult result =
            attack.runAttempts(2, 1, policy);
        EXPECT_EQ(result.resumedTrials, 0u);
    }
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

TEST(Checkpoint, RecordOfAnotherRangeStartIsIgnored)
{
    const std::string path = tempPath("campaign_range_start.ckpt");
    const std::string prev =
        path + snapshot::kCheckpointPrevSuffix;
    std::remove(path.c_str());
    std::remove(prev.c_str());

    sys::HostSystem host(campaignHost(5));
    attack::HyperHammerAttack attack(host, campaignVm(),
                                     host.dram().mapping(),
                                     campaignAttack());
    (void)attack.profilePhase();

    // Stop range [0, 2) after one trial: its record starts at 0...
    snapshot::CheckpointPolicy stopper;
    stopper.path = path;
    stopper.everyTrials = 1;
    stopper.stopAfterTrials = 1;
    (void)attack.runTrialRange(0, 2, 1, stopper);

    // ...so range [2, 4) resuming at the same path must not take
    // trial 0's outcome for trial 2's.
    snapshot::CheckpointPolicy resumer;
    resumer.path = path;
    resumer.everyTrials = 1;
    resumer.resume = true;
    const attack::TrialRangeResult resumed =
        attack.runTrialRange(2, 4, 1, resumer);
    EXPECT_EQ(resumed.resumedTrials, 0u);
    const attack::TrialRangeResult fresh =
        attack.runTrialRange(2, 4, 1, {});
    EXPECT_EQ(resumed.outcomes, fresh.outcomes);
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

TEST(Checkpoint, TornPrimaryResumesEverythingFromCompletePrev)
{
    const std::string path = tempPath("campaign_torn.ckpt");
    const std::string prev =
        path + snapshot::kCheckpointPrevSuffix;
    std::remove(path.c_str());
    std::remove(prev.c_str());

    sys::HostSystem host(campaignHost(5));
    attack::HyperHammerAttack attack(host, campaignVm(),
                                     host.dram().mapping(),
                                     campaignAttack());
    (void)attack.profilePhase();

    // Finish range [0, 2), make its record the fallback file and tear
    // the primary (a torn artifact the supervisor retries).
    snapshot::CheckpointPolicy policy;
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
    policy.resume = true;
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

} // namespace
} // namespace hh
