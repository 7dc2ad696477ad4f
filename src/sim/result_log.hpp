// Append-only, hash-framed result log: the one on-disk record format
// behind every resumable run (`Campaign`'s open-loop points and the
// point-level resume of closed-loop experiments).
//
// Frame layout (little-endian):
//
//   tag u32 'RLOG' | len u64 | payload[len] | FNV-1a(payload) u64
//   payload = fingerprint u64 | point u32 | record bytes
//
// The fingerprint names the job list the record belongs to.  On open,
// frames are read in order and the first framing or hash failure ends
// the readable prefix (a torn tail from a crash mid-append); the file is
// truncated to that prefix so later appends are read back.  A hash-valid
// frame with a different fingerprint, or a point outside the list, is
// skipped and kept: one file serves `--quick` and full runs side by side.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "snapshot/snapshot.hpp"

namespace dxbar {

/// Whole file as bytes; empty when it cannot be opened.
std::vector<std::uint8_t> read_file(const std::string& path);

/// One results.bin.  Every member is thread-safe: closed-loop jobs
/// append from a parallel_for.
class ResultLog {
 public:
  /// Loads every readable frame of `path` carrying `fingerprint` with a
  /// point below `points`, then truncates the file to its readable
  /// prefix.  A missing file is an empty log (created on first append).
  ResultLog(std::string path, std::uint64_t fingerprint, std::size_t points);

  /// Points with a loaded or appended record.
  [[nodiscard]] std::size_t completed() const;

  /// Decodes every loaded record with `load`; a record that fails to
  /// decode is reported missing, so its point re-runs.
  template <typename T>
  [[nodiscard]] std::vector<std::optional<T>> decode(
      T (*load)(SnapshotReader&)) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::optional<T>> out(records_.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!records_[i].has_value()) continue;
      try {
        SnapshotReader r(*records_[i]);
        out[i] = load(r);
      } catch (const SnapshotError&) {
      }
    }
    return out;
  }

  /// Persists one point's record, flushed before it returns, and makes
  /// it visible to completed() and decode().
  void append(std::size_t point, std::span<const std::uint8_t> record);

 private:
  std::string path_;
  std::uint64_t fingerprint_;
  mutable std::mutex mu_;  ///< guards records_ and the file
  std::vector<std::optional<std::vector<std::uint8_t>>> records_;
};

}  // namespace dxbar
