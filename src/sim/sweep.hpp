// Parallel parameter sweeps.
//
// Simulation points are independent, deterministic, and CPU-bound, so
// benches fan them out over a small thread pool.  Results come back in
// input order regardless of completion order.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"

namespace dxbar {

/// Runs run_open_loop for every config, using up to `threads` worker
/// threads (0 == hardware concurrency).  Results align with `configs`.
std::vector<RunStats> run_sweep(const std::vector<SimConfig>& configs,
                                unsigned threads = 0);

/// Session-wide cache of warm snapshots, keyed by the warmup signature
/// (the serialized config with measurement-only fields neutralized —
/// structural identity plus warmup phase identity).  Threads share it
/// across experiments so `--all` warms each (design, warmup) pair once.
class WarmupCache {
 public:
  /// Returns the cached snapshot for `key` (counts a hit), or nullptr
  /// (counts a miss).
  [[nodiscard]] std::shared_ptr<const std::vector<std::uint8_t>> find(
      const std::vector<std::uint8_t>& key);
  /// Stores `state` under `key` and returns the stored snapshot.  When
  /// a concurrent thread raced the same warmup in first, its (identical
  /// — warmups are deterministic) bytes win and are returned instead.
  std::shared_ptr<const std::vector<std::uint8_t>> insert(
      const std::vector<std::uint8_t>& key, std::vector<std::uint8_t> state);

  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::size_t entries() const;

 private:
  mutable std::mutex mu_;
  std::map<std::vector<std::uint8_t>,
           std::shared_ptr<const std::vector<std::uint8_t>>>
      map_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

/// The warmup-signature cache key for `cfg` (exposed for tests).
std::vector<std::uint8_t> warmup_signature(const SimConfig& cfg);

/// Like run_sweep, but configs that share a warmup run it ONCE: the
/// group's network is advanced to the warmup boundary, snapshotted, and
/// every member forks from the snapshot bytes — a fresh network and
/// workload restored from it, then finish_open_loop — one work item per
/// member on the parallel_for pool.  Configs share a warmup when they
/// are single-sharded with warmup_cycles > 0 and either carry an
/// explicit warmup_load (offered_load is neutralized out of the
/// signature: SyntheticWorkload injects at warmup_load until the
/// boundary and consumes exactly one RNG draw per node per cycle
/// regardless of the rate) or have a sibling identical up to
/// measure_seed / drain cap (seed replication).  Every other config
/// runs cold inside the same call; sharded configs (shards > 1) always
/// do, since sharding parallelizes inside one simulation.  The fork is
/// bit-identical to the cold run of each member — run_warm_sweep and
/// run_sweep return byte-for-byte equal RunStats.
std::vector<RunStats> run_warm_sweep(const std::vector<SimConfig>& configs,
                                     unsigned threads = 0);

/// How a run_warm_sweep call partitioned its configs: one entry per
/// shared-warmup group (member indices into the config vector), plus the
/// count of configs that ran cold.  Lets callers log which groups were
/// formed (the experiment harness prints this per grid).
struct WarmSweepReport {
  std::vector<std::vector<std::size_t>> groups;
  std::size_t cold_points = 0;
  /// Warmups served from / inserted into the session cache (both zero
  /// when no cache was supplied).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;

  [[nodiscard]] std::size_t warm_points() const noexcept {
    std::size_t n = 0;
    for (const auto& g : groups) n += g.size();
    return n;
  }
};

/// run_warm_sweep that also reports the grouping it performed, and
/// consults `cache` (when non-null) before running a group's warmup.
std::vector<RunStats> run_warm_sweep(const std::vector<SimConfig>& configs,
                                     WarmSweepReport& report,
                                     unsigned threads = 0,
                                     WarmupCache* cache = nullptr);

/// Generic parallel map over an index range [0, n): `fn(i)` must be
/// thread-safe and is invoked exactly once per index.  Workers claim
/// one index at a time off a shared atomic counter (work stealing), in
/// ascending order, so imbalanced ranges keep every worker busy; the
/// result is independent of the thread count.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  unsigned threads = 0);

}  // namespace dxbar
