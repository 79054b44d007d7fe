// Batch journal — crash recovery for the central server.
//
// The paper's server banks partial results and failed-task state in memory;
// a real deployment wants that ledger durable, so a restarted server can
// resume a half-finished overnight batch instead of redoing it. The journal
// is an append-only file: a versioned magic header, then framed records
// ([u32 length][u32 crc32][payload]):
//
//   kSubmit   — job id, task name, full input bytes
//   kProgress — job id, [begin, end) input range completed, partial result
//   kAtomicDone — job id, final result (atomic jobs complete in one shot)
//
// Work in flight at the moment of a crash was never journaled and is simply
// redone — the same semantics as an offline phone failure, so the recovery
// path reuses machinery that is already correct for partial coverage.
//
// Recovery (`Journal::replay`) folds the records into per-job state:
// unprocessed ranges, banked partial results, and completed results. The
// server resubmits the unprocessed remainder with the banked partials
// attached (CwcServer::submit_recovered).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/protocol.h"

namespace cwc::net {

class Journal {
 public:
  /// Opens (appending) or creates the journal file; throws on I/O failure.
  explicit Journal(std::string path, bool truncate = false);

  using Ranges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

  void record_submit(JobId job, const std::string& task_name, const Blob& input);
  /// A completed slice: the input ranges it covered (a slice may span
  /// several non-contiguous fragments) plus its partial result.
  void record_progress(JobId job, const Ranges& ranges, const Blob& partial);
  /// An atomic job's completion (single final result).
  void record_atomic_done(JobId job, const Blob& result);

  const std::string& path() const { return path_; }

  /// Everything replay() knows about one journaled job.
  struct RecoveredJob {
    std::string task_name;
    Blob input;
    /// Completed input ranges, in completion order (may be out of input
    /// order and may span multiple records).
    Ranges completed_ranges;
    std::vector<Blob> partials;
    std::optional<Blob> atomic_result;

    bool done(bool atomic) const;
    /// Unprocessed input ranges (input size minus completed, normalized).
    Ranges remaining_ranges() const;
    /// Total unprocessed bytes.
    std::uint64_t remaining_bytes() const;
  };

  /// Reads a journal file back, recovering the longest valid prefix:
  /// replay stops at the first truncated, torn, or CRC-failing record
  /// (the crash may have interrupted a write) and keeps everything before
  /// it. Throws on unreadable files and on files that do not start with
  /// the versioned format header (old-format or foreign files must fail
  /// loudly, not silently recover nothing).
  static std::map<JobId, RecoveredJob> replay(const std::string& path);

 private:
  /// Frames and writes one record. `framed` holds 8 reserved bytes, which
  /// become the [length][crc32] header in place, followed by the payload.
  void append(Blob framed);
  std::string path_;
  int fd_ = -1;

 public:
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
};

}  // namespace cwc::net
