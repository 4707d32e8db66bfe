// Fixture: fires tsa-escape — the thread-safety escape hatch with no
// allow(tsa-escape) suppression giving its reason.
struct FixtureShard {
  int value = 0;
};

int FixtureTsaEscape(FixtureShard& shard) KVEC_NO_THREAD_SAFETY_ANALYSIS;
