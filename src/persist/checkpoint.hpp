// Checkpointing: bounded-time recovery for long-lived journals.
//
// A checkpoint captures a quiescent dispatcher -- the full allocation
// state (Dispatcher::save_state) plus the policy's decision state
// (Policy::save_state) -- as of a journal sequence number S. Recovery
// loads the newest valid checkpoint and replays only the journal frames
// with seq > S, so recovery time is bounded by the checkpoint interval
// rather than the age of the service.
//
// File protocol (crash-safe on POSIX):
//   1. write checkpoint-<seq>.ckpt.tmp, fsync it        [tmp_written]
//   2. rename to checkpoint-<seq>.ckpt, fsync the dir   [renamed]
//   3. caller rotates/truncates the journal             [truncated]
//   4. delete older checkpoint files (best effort)
// A crash at any point leaves either the previous checkpoint intact (the
// tmp file is ignored at load), or both -- load takes the newest file
// whose CRC validates and falls back to older ones otherwise. The
// bracketed fault points (persist/fault.hpp) let tests kill the writer in
// each gap.
//
// Payload (one CRC32 frame, same framing as the journal):
//   u32 magic 'DVCP' | u8 version | u64 seq | str policy_name
//   | blob dispatcher_state | blob policy_state | blob extra
// `extra` holds the engine's history, written by the DurableDispatcher
// alone: its PackingRecorder, then its usage hook's state (a tenant
// ledger; a shard's departed jobs and ledger).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "persist/journal.hpp"

namespace dvbp::persist {

struct CheckpointData {
  /// Journal sequence number this checkpoint covers: every op with
  /// seq <= checkpoint seq is folded into the state blobs.
  std::uint64_t seq = 0;
  std::string policy_name;  ///< refuses to restore into a different policy
  std::vector<std::uint8_t> dispatcher_state;
  std::vector<std::uint8_t> policy_state;
  std::vector<std::uint8_t> extra;  ///< the engine's history (see above)
};

/// Durably writes `data` as checkpoint-<seq>.ckpt under `dir` (created if
/// missing) using the tmp+fsync+rename protocol above, then deletes older
/// checkpoint files. Does NOT touch the journal -- callers rotate the
/// journal writer after this returns. Throws PersistError on I/O failure.
void write_checkpoint(const std::string& dir, const CheckpointData& data);

/// Loads the newest checkpoint file under `dir` that parses and passes its
/// CRC, silently skipping invalid/torn ones (a crash mid-step-1 leaves at
/// worst an ignorable tmp file). Returns nullopt when no valid checkpoint
/// exists. Throws PersistError only for I/O errors.
std::optional<CheckpointData> load_newest_checkpoint(const std::string& dir);

/// The checkpoint files under `dir`, oldest first (tests / inspection).
std::vector<std::string> checkpoint_files(const std::string& dir);

}  // namespace dvbp::persist
