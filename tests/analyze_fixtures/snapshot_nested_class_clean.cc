// hh-analyze fixture: the out-of-line half of
// snapshot_nested_class_clean.h, in the repo's definition style.
#include "snapshot_nested_class_clean.h"

#include <vector>

class Backend::Spares {
 public:
  std::vector<unsigned long long> pages;
};

void
Backend::saveState(ArchiveWriter& ar) const
{
  ar.u64(touched_);
}

void
Backend::loadState(ArchiveReader& ar)
{
  touched_ = ar.u64();
  spares_->pages.clear();
}
