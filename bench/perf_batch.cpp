// Replica throughput bench: wall time for K measure_seed replicas of
// one simulation point, run serially (K full runs through
// run_open_loop) versus through run_warm_sweep (one shared warmup,
// then K forks of the warm snapshot, each finished by
// finish_open_loop).
//
// The speedup is warmup amortization, so it is meaningful even on a
// single-core host: with warmup W, window M and K lanes the cycle
// count drops from K*(W+M) to W+K*M.  Because the forks are required
// to be bit-exact (DESIGN.md §11), every lane's full RunStats
// serialization must equal its serial twin's; the bench checks that
// and fails hard on a mismatch, so the numbers can never come from a
// run that silently diverged.
//
// Usage:
//   perf_batch [--quick] [--reps N] [--lanes K] [--out FILE]
//              [key=value ...]
//
// --out writes a JSON report (BENCH_batch.json in the repo).  The
// report records std::thread::hardware_concurrency() as
// "host_threads"; both paths run single-threaded so the comparison is
// core-count independent.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/dxbar.hpp"
#include "snapshot/serialize.hpp"

using namespace dxbar;

namespace {

/// Full-stats identity key: the schema-stable RunStats serialization,
/// byte for byte (stronger than spot-checking a few counters).
std::vector<std::uint8_t> stats_bytes(const RunStats& s) {
  SnapshotWriter w;
  save_run_stats(w, s);
  return w.take();
}

/// The K replica configs: lane 0 is the base point untouched, lanes
/// 1..K-1 get derived nonzero measure_seeds (same SplitMix64 stream the
/// `--seeds N` flag uses), so all lanes share the warmup and diverge at
/// the measurement boundary.
std::vector<SimConfig> replica_grid(const SimConfig& base, int lanes) {
  std::vector<SimConfig> configs(static_cast<std::size_t>(lanes), base);
  SplitMix64 sm(base.seed ^ base.measure_seed);
  for (int r = 1; r < lanes; ++r) {
    const std::uint64_t s = sm.next();
    configs[static_cast<std::size_t>(r)].measure_seed = s != 0 ? s : 1;
  }
  return configs;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  SimConfig base;
  base.design = RouterDesign::DXbar;
  base.routing = RoutingAlgo::DOR;
  base.pattern = TrafficPattern::UniformRandom;
  base.mesh_width = 8;
  base.mesh_height = 8;
  base.offered_load = 0.30;
  // Long warmup / short window is the shape --seeds N amortizes: the
  // replicas only need independent *measurement* noise.
  base.warmup_cycles = 5000;
  base.measure_cycles = 1000;

  bool quick = false;
  int reps = 3;
  int lanes = 8;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
      lanes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (const auto err = apply_override(base, argv[i]); !err.empty()) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 1;
    }
  }
  if (reps < 1) reps = 1;
  if (lanes < 2) lanes = 2;
  if (quick) {
    base.warmup_cycles = 600;
    base.measure_cycles = 200;
  }
  const unsigned host_threads = std::thread::hardware_concurrency();
  const bool underprovisioned = host_threads < static_cast<unsigned>(lanes);
  const std::vector<SimConfig> configs = replica_grid(base, lanes);

  std::printf("perf_batch: %dx%d %s %s load=%.2f warmup=%llu window=%llu "
              "lanes=%d reps=%d host_threads=%u\n",
              base.mesh_width, base.mesh_height,
              std::string(to_string(base.design)).c_str(),
              std::string(to_string(base.pattern)).c_str(), base.offered_load,
              static_cast<unsigned long long>(base.warmup_cycles),
              static_cast<unsigned long long>(base.measure_cycles), lanes,
              reps, host_threads);
  if (underprovisioned) {
    std::printf("WARNING: host has %u hardware threads but %d lanes were "
                "requested;\nboth paths here are single-threaded, but "
                "--seeds %d sessions on this host\nwill oversubscribe "
                "their worker pool\n",
                host_threads, lanes, lanes);
  }

  // Serial baseline: K independent full runs, single-threaded.
  double serial_secs = 0.0;
  std::vector<RunStats> serial_stats;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<RunStats> stats;
    stats.reserve(configs.size());
    for (const SimConfig& cfg : configs) stats.push_back(run_open_loop(cfg));
    const double secs = seconds_since(t0);
    if (r == 0 || secs < serial_secs) serial_secs = secs;
    if (r == 0) serial_stats = std::move(stats);
  }

  // Shared warmup: one warmup, K forks, single-threaded.
  double batch_secs = 0.0;
  std::vector<RunStats> batch_stats;
  WarmSweepReport report;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    WarmSweepReport rep;
    std::vector<RunStats> stats =
        run_warm_sweep(configs, rep, /*threads=*/1);
    const double secs = seconds_since(t0);
    if (r == 0 || secs < batch_secs) batch_secs = secs;
    if (r == 0) {
      batch_stats = std::move(stats);
      report = rep;
    }
  }

  bool identical = true;
  for (std::size_t i = 0; i < serial_stats.size(); ++i) {
    if (stats_bytes(serial_stats[i]) != stats_bytes(batch_stats[i])) {
      identical = false;
      std::fprintf(stderr,
                   "MISMATCH: lane %zu (measure_seed=%llu) diverged from "
                   "its serial run\n",
                   i,
                   static_cast<unsigned long long>(configs[i].measure_seed));
    }
  }
  if (report.groups.size() != 1 || report.cold_points != 0) {
    identical = false;
    std::fprintf(stderr,
                 "MISMATCH: expected one shared-warmup group, got %zu "
                 "group(s) and %zu cold point(s)\n",
                 report.groups.size(), report.cold_points);
  }

  const double speedup = serial_secs / batch_secs;
  const double serial_cycles =
      static_cast<double>(lanes) *
      static_cast<double>(base.warmup_cycles + base.measure_cycles);
  const double batch_cycles =
      static_cast<double>(base.warmup_cycles) +
      static_cast<double>(lanes) * static_cast<double>(base.measure_cycles);
  std::printf("%-8s %12s %16s %10s\n", "path", "seconds", "windows/sec",
              "speedup");
  std::printf("%-8s %12.4f %16.1f %9.2fx\n", "serial", serial_secs,
              static_cast<double>(lanes) / serial_secs, 1.0);
  std::printf("%-8s %12.4f %16.1f %9.2fx\n", "batch", batch_secs,
              static_cast<double>(lanes) / batch_secs, speedup);
  std::printf("cycle model (drain excluded): serial %.0f vs batch %.0f "
              "(%.2fx bound)\n",
              serial_cycles, batch_cycles, serial_cycles / batch_cycles);
  std::printf("per-lane results vs serial runs: %s\n",
              identical ? "bit-identical" : "MISMATCH");

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "{\n"
                  "  \"bench\": \"perf_batch\",\n"
                  "  \"host_threads\": %u,\n"
                  "  \"underprovisioned\": %s,\n"
                  "  \"config\": {\n"
                  "    \"mesh\": \"%dx%d\",\n"
                  "    \"design\": \"%s\",\n"
                  "    \"routing\": \"%s\",\n"
                  "    \"pattern\": \"%s\",\n"
                  "    \"offered_load\": %.2f,\n"
                  "    \"warmup_cycles\": %llu,\n"
                  "    \"measure_cycles\": %llu,\n"
                  "    \"lanes\": %d,\n"
                  "    \"reps\": %d,\n"
                  "    \"seed\": %llu\n"
                  "  },\n"
                  "  \"results\": {\n"
                  "    \"serial_seconds\": %.6f,\n"
                  "    \"batch_seconds\": %.6f,\n"
                  "    \"speedup\": %.3f,\n"
                  "    \"cycle_model_speedup_bound\": %.3f\n"
                  "  },\n"
                  "  \"bit_identical\": %s\n"
                  "}\n",
                  host_threads, underprovisioned ? "true" : "false",
                  base.mesh_width, base.mesh_height,
                  std::string(to_string(base.design)).c_str(),
                  std::string(to_string(base.routing)).c_str(),
                  std::string(to_string(base.pattern)).c_str(),
                  base.offered_load,
                  static_cast<unsigned long long>(base.warmup_cycles),
                  static_cast<unsigned long long>(base.measure_cycles), lanes,
                  reps, static_cast<unsigned long long>(base.seed),
                  serial_secs, batch_secs, speedup,
                  serial_cycles / batch_cycles,
                  identical ? "true" : "false");
    out << buf;
    std::printf("wrote %s\n", out_path.c_str());
  }
  return identical ? 0 : 1;
}
