// hh-analyze fixture: snapshot-field-coverage must flag every
// persistent field that does not round-trip through BOTH saveState()
// and loadState(), and every field a save-only class leaves out of
// saveState(). Self-contained on purpose: the clang frontend parses
// fixtures standalone, outside compile_commands.json.
#pragma once

struct ArchiveWriter {
  void u64(unsigned long long v);
  void f64(double v);
};
struct ArchiveReader {
  unsigned long long u64();
  double f64();
};
struct Mutex {};

class LeakyCounter {
 public:
  void saveState(ArchiveWriter& ar) const {
    ar.u64(total_);
    ar.u64(saveOnly_);
  }
  void loadState(ArchiveReader& ar) {
    total_ = ar.u64();
    loadOnly_ = ar.u64();
  }

 private:
  unsigned long long total_ = 0;
  unsigned long long saveOnly_ = 0;  // expect: snapshot-field-coverage
  unsigned long long loadOnly_ = 0;  // expect: snapshot-field-coverage
  double neverTouched_ = 0.0;  // expect: snapshot-field-coverage
  // hh-lint: allow(snapshot-field-coverage) -- scratch, rebuilt on load
  double scratch_ = 0.0;
  Mutex mu_;               // sync primitive: holds no logical state
  const int config_ = 4;   // construction-time configuration: exempt
};

// A save-only class (no loadState at all, like every world class)
// answers to its saveState() alone: a field it never writes escapes
// the identity tests that compare saveState() streams.
class WriteOnlyProbe {
 public:
  void saveState(ArchiveWriter& ar) const { ar.u64(hits_); }

 private:
  unsigned long long hits_ = 0;
  unsigned long long misses_ = 0;  // expect: snapshot-field-coverage
};
