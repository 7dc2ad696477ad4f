// Crash-resumable simulation campaigns.
//
// A campaign is an ordered list of open-loop simulation points run to
// completion with all progress persisted under one directory:
//
//   results.bin     a ResultLog keyed by the point-list fingerprint: one
//                   hash-framed record per completed point (a torn tail
//                   after a crash is dropped, records of a different
//                   point list are ignored)
//   checkpoint.bin  periodic snapshot of the in-flight point (network +
//                   workload + campaign cursor), replaced atomically via
//                   write-to-temp + rename
//
// Killing the process at ANY instant (SIGKILL included) loses at most
// one checkpoint interval of simulated work: a fresh Campaign on the
// same directory skips completed points, restores the in-flight point
// from the last checkpoint, and produces bit-identical results to an
// uninterrupted run.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/result_log.hpp"

namespace dxbar {

struct CampaignStatus {
  std::size_t completed = 0;  ///< points with persisted results
  std::size_t total = 0;
  bool finished = false;  ///< every point completed
};

class Campaign {
 public:
  /// `points` defines the campaign (order matters: it is the execution
  /// and resume order).  `dir` must exist; pass the same points to
  /// resume — the persisted state carries a fingerprint of the point
  /// list, and results or a checkpoint of a different list are ignored.
  /// `checkpoint_interval` is in simulated cycles.
  Campaign(std::vector<SimConfig> points, std::string dir,
           Cycle checkpoint_interval = 50'000);

  /// Runs points in order until all complete or `cycle_budget` simulated
  /// cycles have been stepped by this call (0 = unlimited).  A budget
  /// pause returns WITHOUT writing an extra checkpoint — exactly the
  /// guarantee a kill gets — so tests exercising budget pauses measure
  /// the real crash-recovery path.
  CampaignStatus run(std::uint64_t cycle_budget = 0);

  [[nodiscard]] CampaignStatus status() const;

  /// Per-point results; nullopt while a point is still pending.
  [[nodiscard]] const std::vector<std::optional<RunStats>>& results() const {
    return results_;
  }

  [[nodiscard]] const std::string& directory() const { return dir_; }

 private:
  [[nodiscard]] std::string checkpoint_path() const;

  void write_checkpoint(std::size_t point, const class Network& net,
                        const class WorkloadModel& workload) const;

  std::vector<SimConfig> points_;
  std::string dir_;
  Cycle checkpoint_interval_;
  std::uint64_t fingerprint_;  ///< over the full point list
  ResultLog log_;
  std::vector<std::optional<RunStats>> results_;
};

}  // namespace dxbar
