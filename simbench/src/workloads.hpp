// The benchmark workloads: their generated configs, one repetition of
// each (optionally with the layer instruments on), the traced-only layer
// probes, and the reference recorder.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace simbench {

inline const std::vector<std::string> kWorkloads = {"zoo_kernel_8x8",
                                                   "seeded_sweep_8x8"};

/// Simulation seed a benchmark seed maps to (always in the reference
/// table).
inline std::uint64_t sim_seed(std::uint64_t bench_seed) {
  return 1 + bench_seed % kReferenceSeeds;
}

SimConfig zoo_config(RouterDesign d, std::uint64_t seed);
/// 4 designs x (4 open-loop loads + 1 closed-loop point) x 8 measurement
/// seeds, design-major.
std::vector<SimConfig> sweep_configs(std::uint64_t seed);
SimConfig sharded_config(std::uint64_t seed, int shards);
/// Shard count of the sharded probe: 4, capped at the host's cores.
int sharded_shards();

/// What one repetition of a workload's fixed work measured.
struct Rep {
  double wall_s = 0.0;   ///< the whole repetition, set-up included
  double setup_s = 0.0;  ///< configs, meshes, networks, workloads, power
  double timed_s = 0.0;  ///< the timed windows (sum of slices)
  double sim_cycles = 0.0;
  double flit_events = 0.0;
  double points = 0.0;  ///< simulation points completed
  std::vector<double> slices_ms;
};

/// Per-layer observations a traced repetition adds.  Each workload
/// fills the part it exercises.
struct Trace {
  struct Design {
    std::vector<double> step_ns;
    double step_ns_sum = 0.0;
    std::uint64_t flit_events = 0;
    double occupancy_sum = 0.0;  ///< flits per router, summed over samples
    std::uint64_t occupancy_samples = 0;
    std::uint64_t minimal_hops = 0;
    std::uint64_t taken_hops = 0;
  };
  // zoo_kernel_8x8
  std::vector<Design> designs;  ///< parallel to kZoo
  std::vector<double> self_ns;  ///< per step: step minus workload callbacks
  double begin_cycle_ns = 0.0;
  std::uint64_t begin_cycle_calls = 0;
  double inject_ns = 0.0;
  std::uint64_t packets_injected = 0;
  // seeded_sweep_8x8
  dxbar::WarmSweepReport sweep_report;
};

Rep zoo_rep(std::uint64_t seed, const Reference& ref, Tally& tally,
            Trace* trace);
Rep sweep_rep(std::uint64_t seed, const Reference& ref, Tally& tally,
              Trace* trace);

/// Traced-only probes; each adds its per-layer metrics to `out`.
void probe_snapshots(std::uint64_t seed, const Reference& ref, Tally& tally,
                     Metrics& out);
void probe_closed_loop(std::uint64_t seed, const Reference& ref, Tally& tally,
                       Metrics& out);
void probe_setup(std::uint64_t seed, Metrics& out);
/// Steps DXbar on a 64x64 mesh at `shards` shards one cycle at a time
/// over its window, checks the digest against the 1-shard reference and
/// returns each step's nanoseconds.
std::vector<double> probe_shard_steps(std::uint64_t seed,
                                      const Reference& ref, Tally& tally,
                                      int shards);

/// Writes the reference lines for simulation seeds [1, kReferenceSeeds]
/// to stdout, cross-checking every alternative path against the cold
/// serial one; returns false on any disagreement.
bool record_reference();

}  // namespace simbench
