// StreamServer state as bytes, for tests. StreamServer has no checkpoint
// file API of its own (ShardedStreamServer writes and reads every file), so
// tests compare and round-trip bare servers through the record codec,
// and compose the plain checkpoint layout — one
// kCheckpointSectionStreamServer section, the v1 golden's layout, which a
// 1-shard ShardedStreamServer still reads — themselves.
#pragma once

#include <string>
#include <utility>

#include "core/stream_server.h"
#include "util/serialize.h"

namespace kvec {

// The server's Snapshot: the cheapest complete fingerprint of its state.
inline std::string SnapshotBytes(const StreamServer& server) {
  BinaryWriter writer;
  server.Snapshot(&writer);
  return writer.buffer();
}

// Restores `bytes` (a whole Snapshot) into `server`.
inline bool RestoreSnapshot(StreamServer* server, std::string bytes) {
  BinaryReader reader(std::move(bytes));
  return server->Restore(&reader);
}

// The plain checkpoint layout holding `server`'s Snapshot.
inline std::string PlainCheckpoint(const StreamServer& server) {
  BinaryWriter section;
  server.Snapshot(&section);
  return CheckpointEncode(kCheckpointFormatVersion,
                          {{kCheckpointSectionStreamServer, section.view()}});
}

}  // namespace kvec
