// Fault-injection hook for crash-recovery testing.
//
// The durability code (journal commit, checkpoint write/rename/truncate)
// calls fault_point("<name>") at every state transition whose interruption
// a real crash could expose: mid-frame, mid-batch, after the checkpoint is
// renamed but before the journal is truncated, and so on. Production runs
// pay one relaxed atomic load per call; tests install a hook that throws
// FaultInjected at a chosen point, which the writers treat exactly like a
// process death at that instant -- buffered bytes are lost, partially
// written bytes stay on disk, and nothing downstream of the fault runs.
//
// The registered fault points (see docs/DURABILITY.md):
//   journal.commit.begin      nothing of this commit is on disk yet
//   journal.commit.torn       a prefix of the batch's bytes has been
//                             written -- the torn-write case
//   journal.commit.written    all bytes written, fsync not yet issued
//   journal.commit.synced     fully durable
//   checkpoint.tmp_written    tmp file complete, rename not yet issued
//   checkpoint.renamed        checkpoint durable, journal not yet truncated
//   checkpoint.truncated      old journal segments deleted
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dvbp::persist {

/// Thrown by test hooks to simulate a crash at a fault point. The persist
/// writers let it propagate without cleanup (a crashed process runs no
/// cleanup either).
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(std::string_view point)
      : std::runtime_error("fault injected at " + std::string(point)),
        point_(point) {}

  const std::string& point() const noexcept { return point_; }

 private:
  std::string point_;
};

using FaultHook = std::function<void(std::string_view point)>;

/// Installs a process-global hook invoked at every fault point. Test-only;
/// not thread-safe against concurrent set/clear (install before starting
/// workers). The hook itself may be called from several shard workers at
/// once and must be internally synchronized if it keeps state.
void set_fault_hook(FaultHook hook);
void clear_fault_hook();

/// Invokes the installed hook, if any. Hot-path cost when no hook is
/// installed: one relaxed atomic load.
void fault_point(std::string_view name);

/// True while a hook is installed: a writer may then split what it writes
/// so that a fault point falls inside it (journal.commit.torn).
bool fault_hook_installed() noexcept;

}  // namespace dvbp::persist
