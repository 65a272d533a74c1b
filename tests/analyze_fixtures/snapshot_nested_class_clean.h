// hh-analyze fixture: a nested class defined out of line in the .cc
// (`class Backend::Spares { ... };`) is a class of its own. Its fields
// must not merge into the snapshotted enclosing class, so loadState()
// touching `spares_->pages` raises no finding.
#pragma once

struct ArchiveWriter {
  void u64(unsigned long long v);
};
struct ArchiveReader {
  unsigned long long u64();
};

class Backend {
 public:
  void saveState(ArchiveWriter& ar) const;
  void loadState(ArchiveReader& ar);

 private:
  class Spares;

  unsigned long long touched_ = 0;
  Spares* spares_ = nullptr;
};
