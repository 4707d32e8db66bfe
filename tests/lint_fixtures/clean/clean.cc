// Fixture: a source file the lint pass must accept — canonical include,
// documented fault point, reasoned suppressions, cli-free output.
#include "clean.h"

#include "util/check.h"
#include "util/fault_injection.h"
#include "util/flat_int_map.h"
#include "util/thread_annotations.h"

// A reasoned thread-safety escape is accepted.
int FixtureOwnedRead(int* owned)
    // kvec-lint: allow-next(tsa-escape) owned by the calling thread
    KVEC_NO_THREAD_SAFETY_ANALYSIS;

int FixtureCleanUse() {
  // kvec-lint: allow-next(naked-new) exercising the suppression syntax
  int* p = new int(9);
  KVEC_CHECK(p != nullptr);
  bool failed = KVEC_FAULT_POINT("checkpoint.save");
  int value = failed ? 0 : *p;
  // kvec-lint: allow-next(naked-new) exercising the suppression syntax
  delete p;
  return value + FixtureClean();
}

// Doc references that resolve: docs/SERVING.md, a bare DESIGN.md, and
// its headings DESIGN.md §1 and §4.5.
int FixtureDocRefs() { return 3; }

// An integer literal passed to Find on a container other than the
// checkpoint is not a section id.
bool FixtureTableHasTwo(const kvec::FlatIntMap<int>& table) {
  return table.Find(2) != nullptr;
}
