// hh-analyze fixture: classes whose snapshot coverage is complete --
// or that do not speak the ArchiveWriter protocol at all -- must stay
// silent.
#pragma once

struct ArchiveWriter {
  void u64(unsigned long long v);
};
struct ArchiveReader {
  unsigned long long u64();
};

class TidyCounter {
 public:
  void saveState(ArchiveWriter& ar) const {
    ar.u64(total_);
    ar.u64(flips_);
  }
  void loadState(ArchiveReader& ar) {
    total_ = ar.u64();
    flips_ = ar.u64();
  }

 private:
  unsigned long long total_ = 0;
  unsigned long long flips_ = 0;
};

// saveState() without an ArchiveWriter parameter is a different
// protocol (base::Rng hands back its raw state by value); the rule
// must not claim its fields.
class RawStateRng {
 public:
  unsigned long long saveState() const { return s_; }
  void loadState(unsigned long long s) { s_ = s; }

 private:
  unsigned long long s_ = 1;
};
