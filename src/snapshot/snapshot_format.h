/**
 * @file
 * On-disk identifiers of the crash-safe file format.
 *
 * One kind of file is persisted: a trial range's record, framed by
 * base::saveArchiveFile() (magic, format version, payload length and
 * an FNV-1a checksum ahead of the payload). A sweep keeps no other
 * state on disk; it rescans its range records. Worlds are
 * never persisted: a world is rebuilt from its configuration and
 * trial index, and its saveState() stream is compared in memory,
 * never read back. The constants here pick the record's magic and pin
 * the single format version shared by every pinned saveState()
 * encoding.
 *
 * Bump kSnapshotFormatVersion whenever any saveState() encoding
 * changes shape; tools/hh_lint.py (rule `snapshot-version`, backed by
 * tools/snapshot_manifest.json) fails the build when a serialized
 * struct changes without a bump. Old files are rejected by version,
 * never reinterpreted.
 */

#ifndef HYPERHAMMER_SNAPSHOT_SNAPSHOT_FORMAT_H
#define HYPERHAMMER_SNAPSHOT_SNAPSHOT_FORMAT_H

#include <cstdint>

namespace hh::snapshot {

/**
 * Trial-range record (attack::saveRangeRecord): a range's checkpoint
 * and, once terminal, its shard artifact: "HHCKPT\n" + v.
 */
constexpr uint64_t kRangeRecordMagic = 0x4848434b50540a01ull;

/**
 * Format version of every serialized payload. One shared version: a
 * change in any subsystem's encoding invalidates every file kind,
 * which is exactly the safe behaviour for crash-resume state.
 *
 * v2: the CoW world-forking refactor. The byte stream each
 * saveState() emits is unchanged (the CoW backends serialize their
 * merged logical view), but the producers were rewritten wholesale,
 * so pre-refactor snapshots are retired rather than trusted.
 *
 * v3: sharded sweeps. Campaign checkpoints gained the absolute
 * trial-range start after the fingerprint (a whole campaign writes 0;
 * a shard writes its range begin), so a shard's in-flight checkpoint
 * can never be resumed into the wrong range. Pre-shard checkpoints
 * are rejected by version.
 *
 * v4: the mitigation layer. The buddy allocator serializes per-domain
 * free lists and PCP stacks (one domain in the undefended layout),
 * the virtio-mem device appends its quarantine grace-window counters,
 * campaign checkpoints append a defense-state block, and the host
 * config fingerprint covers the domain layout and ECC correction
 * strength. Pre-mitigation snapshots are rejected by version.
 *
 * v5: the supervised sweep dispatcher. Shard artifacts carry a
 * terminal flag (a worker's final word on its range, distinguishing a
 * finished shard from an abandoned partial write), the fault-site
 * registry gained the four dispatch.* sites (the injector serializes
 * one counter/RNG block per registered site, so its payload grew),
 * and the supervisor's ledger joined the archive family under a
 * magic of its own. Pre-dispatch artifacts are rejected by version.
 *
 * v6: the pfn-indexed memory backend. The byte stream is unchanged
 * (saveState() walks the chunk table in PFN order and skips override
 * slots that hold their page's fill value), but the producer was
 * rewritten and its loader began rejecting out-of-range and repeated
 * PFNs, so v5 snapshots are retired rather than trusted.
 *
 * v7: page words held inline or in a dense page. The byte stream is
 * unchanged (present pages in PFN order, each with the words that
 * differ from its fill in index order), but saveState() now walks the
 * two slot forms instead of an override vector, so v6 snapshots are
 * retired rather than trusted.
 *
 * v8: the virtio-balloon device is gone. VirtualMachine::saveState()
 * no longer writes the has-balloon flag between the virtio-mem driver
 * and the boot-block list, so a v7 world snapshot would misread its
 * boot blocks and is rejected by version.
 *
 * v9: one range record. The campaign checkpoint and the shard
 * artifact were two formats holding the same outcome prefix; both
 * are now attack::RangeRecord::saveState() -- campaign fingerprint,
 * campaign size, range, terminal flag, outcomes -- under
 * kRangeRecordMagic. The checkpoint's defense-state block is gone:
 * the campaign fingerprint already hashes every byte it held. The
 * shard magic is retired, and v8 checkpoints and artifacts are
 * rejected by version.
 *
 * v10: worlds are rebuilt, never restored. The host and world
 * snapshot files, their magics and every world loader are retired,
 * and KSM no longer serializes at all. Range records and ledgers keep
 * their layout; v9 files are rejected by version. The ledger was
 * later retired as well (its magic with it): a sweep rescans its
 * range records instead, whose layout is unchanged at v10.
 */
constexpr uint32_t kSnapshotFormatVersion = 10;

} // namespace hh::snapshot

#endif // HYPERHAMMER_SNAPSHOT_SNAPSHOT_FORMAT_H
