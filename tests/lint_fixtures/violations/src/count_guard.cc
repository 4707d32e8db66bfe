// Fixture: fires count-guard — a src/ record reader bounding its element
// count by hand instead of with BinaryReader::ReadCount.
#include <cstddef>
#include <cstdint>

struct FixtureReader {
  int32_t ReadInt32() { return 0; }
  size_t remaining() const { return 0; }
};

bool FixtureCountGuard(FixtureReader* reader) {
  const int32_t count = reader->ReadInt32();
  return count >= 0 && static_cast<size_t>(count) <= reader->remaining() / 8;
}
