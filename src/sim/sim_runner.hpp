// Experiment drivers: open-loop (warmup / measure / drain) runs for the
// synthetic-traffic figures and closed-loop runs for the SPLASH-2
// substitute.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/network.hpp"
#include "traffic/splash.hpp"
#include "traffic/trace_io.hpp"

namespace dxbar {

/// One open-loop simulation: Bernoulli injection of cfg.pattern at
/// cfg.offered_load, measured over cfg.measure_cycles after
/// cfg.warmup_cycles, then drained (injection off) for up to
/// cfg.drain_cycles.  Energy accumulates only during the measurement
/// window.  Fully deterministic for a given cfg.
RunStats run_open_loop(const SimConfig& cfg);

/// Like run_open_loop but against a caller-provided workload (e.g. a
/// trace replay).  The workload must honour set_injection_enabled.
RunStats run_open_loop(const SimConfig& cfg, WorkloadModel& workload);

/// Steps `net` forward to cycle `until` (capped at the end of the
/// measurement window), flipping the energy meter on at the warmup
/// boundary.  The energy gate is re-derived from the clock on entry, so
/// calling this on a network restored from a snapshot reproduces the
/// straight-through run exactly.  The building block behind warm-start
/// sweeps and resumable campaigns.
void advance_open_loop(Network& net, Cycle until);

/// The open-loop stepper behind run_open_loop, finish_open_loop, the
/// warm-sweep forks and Campaign: advances `net` (with `workload`
/// attached) through the rest of the run — measurement window, then the
/// drain with injection and energy off — stepping at most `max_steps`
/// cycles.  Returns true once the run is complete: the network is idle
/// and the workload quiescent, or the clock has reached
/// warmup + measure + drain_cycles.  Every phase decision derives from
/// the clock (the drain position is now - measure_end), so a network
/// restored at any cycle resumes exactly where the straight run was.
bool step_open_loop(Network& net, WorkloadModel& workload,
                    std::uint64_t max_steps =
                        std::numeric_limits<std::uint64_t>::max());

/// The RunStats of a completed open-loop run (see step_open_loop):
/// window statistics, measurement-window energy, leakage and the
/// workload's own fields.  `drained` is the idle/quiescent state now.
RunStats summarize_open_loop(Network& net, const WorkloadModel& workload);

/// Completes an open-loop run from the network's current cycle:
/// step_open_loop to the end, then summarize_open_loop.  `workload`
/// must be the workload attached to `net`.  Equivalent to the tail of
/// run_open_loop, so a warmup snapshot + finish_open_loop is
/// bit-identical to a cold run.
RunStats finish_open_loop(Network& net, WorkloadModel& workload,
                          std::vector<PacketRecord>* packets_out = nullptr);

/// Open-loop run that also returns the per-packet records of the
/// measurement window (for per-node fairness analysis, latency
/// distributions, custom post-processing).
struct DetailedRun {
  RunStats stats;
  std::vector<PacketRecord> packets;  ///< window packets, completion order
};
DetailedRun run_open_loop_detailed(const SimConfig& cfg);

/// Result of a closed-loop (fixed-work) run.
struct ClosedLoopResult {
  Cycle completion_cycles = 0;  ///< "execution time" of the workload
  bool finished = false;        ///< false when the cycle cap was hit
  std::uint64_t packets = 0;
  double energy_nj = 0.0;       ///< whole-run network energy
  double energy_per_packet_nj = 0.0;
  double avg_packet_latency = 0.0;
};

/// ClosedLoopResult round-trip for result logs; the field order is the
/// record format.
void save_closed_loop_result(SnapshotWriter& w, const ClosedLoopResult& r);
ClosedLoopResult load_closed_loop_result(SnapshotReader& r);

/// Runs a SPLASH-2 substitute application to completion (or `max_cycles`)
/// in closed-loop mode (the network's latency feeds back into issue).
ClosedLoopResult run_splash(const SimConfig& cfg, const SplashProfile& app,
                            Cycle max_cycles = 2'000'000);

/// Replays a packet trace open-loop (the paper's trace methodology);
/// completion_cycles is the makespan until the last packet drains.
ClosedLoopResult run_trace_replay(const SimConfig& cfg,
                                  std::vector<TraceEntry> entries,
                                  Cycle max_cycles = 2'000'000);

/// Runs an arbitrary closed-loop workload to completion + drain.
ClosedLoopResult run_closed_loop(const SimConfig& cfg,
                                 WorkloadModel& workload, Cycle max_cycles);

}  // namespace dxbar
