// Fixture for the snapshot-version rule: the definitions a
// snapshot_manifest.json names are hashed and compared with their pins
// (the real tree pins tools/snapshot_manifest.json; this fixture
// carries its own next to the sources, which the rule prefers when
// scanning a directory that contains one). The fixture manifest
// records, at version 1:
//   - Stable::saveState with its current hash    (clean)
//   - Drifted::saveState with an outdated hash   (fires at the def)
//   - writeEntry, a free function, outdated hash (fires at the def)
//   - Waived::saveState with an outdated hash    (waived at the def)
//   - Removed::saveState with no definition      (fires at the version)
// Unpinned::saveState is absent from the manifest: an in-memory
// stream that never reaches disk, so changing it is not a finding.
// Not compiled; linted only.

#include <cstdint>

namespace fixture {

class ArchiveWriter;

// Whole-manifest findings (gone definitions, version mismatch) anchor
// to this line; per-definition findings anchor to their definitions.
constexpr uint32_t kSnapshotFormatVersion = 1; // expect: snapshot-version

struct Stable
{
    void saveState(ArchiveWriter &w) const;
};

struct Drifted
{
    void saveState(ArchiveWriter &w) const;
    uint64_t extra = 0;
};

struct Unpinned
{
    void saveState(ArchiveWriter &w) const;
};

struct Waived
{
    void saveState(ArchiveWriter &w) const;
};

void writeEntry(ArchiveWriter &w, uint64_t entry);

// Hash matches the manifest: no finding.
void Stable::saveState(ArchiveWriter &w) const
{
    writeEntry(w, 0); // a call of a pinned name is not its definition
}

// The manifest pins an older body of this function.
void Drifted::saveState(ArchiveWriter &w) const // expect: snapshot-version
{
    (void)w;
    (void)extra; // the layout change a version bump must cover
}

// Not in the manifest: no pin, no finding.
void Unpinned::saveState(ArchiveWriter &w) const
{
    (void)w;
    (void)w;
}

// hh-lint: allow(snapshot-version) -- fixture demonstrating a waiver
void Waived::saveState(ArchiveWriter &w) const
{
    (void)w;
}

// A pinned free function, like the real tree's writeOutcome().
void writeEntry(ArchiveWriter &w, uint64_t entry) // expect: snapshot-version
{
    (void)w;
    (void)entry;
}

} // namespace fixture
