// Simulator benchmark program.  Run it through simbench/run.py, which
// builds it and adds the host fingerprint; see simbench/README.md.
//
//   simbench --workload NAME --seed N --seconds S --trace 0|1
//            --reference FILE
//   simbench --record                 (reference lines to stdout)
//   simbench --describe-build         (compiler and build type)
//
// The last stdout line is the result object; the exit code is nonzero
// when any point disagrees with its reference digest.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

using namespace simbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "simbench: %s\n", why);
  std::exit(2);
}

/// Nominal host seconds of one repetition on the reference host; the
/// repetition count is fixed by --seconds alone, so a run's work (and
/// its attempted count) never depends on how fast it went.
double nominal_rep_seconds(const std::string& workload) {
  return workload == "zoo_kernel_8x8" ? 1.5 : 0.4;
}

constexpr int kMinReps = 5;

Rep run_rep(const std::string& workload, std::uint64_t seed,
            const Reference& ref, Tally& tally, Trace* trace) {
  return workload == "zoo_kernel_8x8" ? zoo_rep(seed, ref, tally, trace)
                                      : sweep_rep(seed, ref, tally, trace);
}

void print_accuracy() {
  SimConfig cfg;  // paper operating point: 65 nm, 128-bit flits
  cfg.design = RouterDesign::DXbar;
  const auto dx = dxbar::derive_energy_params(cfg);
  cfg.design = RouterDesign::UnifiedXbar;
  const auto un = dxbar::derive_energy_params(cfg);
  const auto err = [](double v, double paper) {
    return 100.0 * (v - paper) / paper;
  };
  std::printf(
      "model accuracy: 65 nm energy vs paper Table III: crossbar %.3f pJ "
      "vs 13 (%+.2f%%), unified crossbar %.3f pJ vs 15 (%+.2f%%), link "
      "%.3f pJ vs 36 (%+.2f%%); latency/throughput model: not validated "
      "against hardware, no error figure\n",
      dx.crossbar_pj, err(dx.crossbar_pj, 13.0), un.crossbar_pj,
      err(un.crossbar_pj, 15.0), dx.link_pj, err(dx.link_pj, 36.0));
}

void end_to_end(const std::vector<Rep>& reps, Metrics& m) {
  std::vector<double> wall, setup, cps, eps, pps, slices;
  for (const Rep& r : reps) {
    wall.push_back(r.wall_s);
    setup.push_back(r.setup_s);
    cps.push_back(r.sim_cycles / r.timed_s);
    eps.push_back(r.flit_events / r.timed_s);
    pps.push_back(r.points / r.wall_s);
    slices.insert(slices.end(), r.slices_ms.begin(), r.slices_ms.end());
  }
  double pct = 0.0;
  const double slice_tail = tail(slices, &pct);
  m.set("wall_s", median(wall), "s");
  m.set("setup_s", median(setup), "s");
  m.set("sim_cycles_per_s", median(cps), "cycles/s");
  m.set("flit_events_per_s", median(eps), "events/s");
  m.set("slice_ms_p50", median(slices), "ms");
  m.set("slice_ms_tail", slice_tail, "ms");
  m.set("points_per_s", median(pps), "points/s");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("repetitions: %zu; slices: %zu, slice_ms_tail is p%.2f\n",
              reps.size(), slices.size(), pct);
}

void per_layer(const Args& a, std::uint64_t seed, const Reference& ref,
               Tally& tally, Metrics& m) {
  // Untraced repetitions of the named workload, run just before its
  // traced one, give the base for the tracing overhead.  The host runs
  // slower for about a second after idling, so the first 1.5 nominal
  // seconds of repetitions are discarded.
  std::vector<double> untraced;
  const auto untraced_base = [&](const char* workload) {
    if (a.workload != workload) return;
    const int discard = static_cast<int>(
        std::ceil(1.5 / nominal_rep_seconds(a.workload)));
    for (int k = 0; k < discard + 5; ++k) {
      const double wall =
          run_rep(a.workload, seed, ref, tally, nullptr).wall_s;
      if (k >= discard) untraced.push_back(wall);
    }
  };

  untraced_base("zoo_kernel_8x8");
  Trace zoo;
  const Rep zoo_r = zoo_rep(seed, ref, tally, &zoo);
  untraced_base("seeded_sweep_8x8");
  Trace sweep;
  const Rep sweep_r = sweep_rep(seed, ref, tally, &sweep);

  // sim and router layers: zoo_kernel_8x8.
  std::vector<double> steps;
  double step_sum = 0.0;
  std::uint64_t events = 0;
  for (const auto& d : zoo.designs) {
    steps.insert(steps.end(), d.step_ns.begin(), d.step_ns.end());
    step_sum += d.step_ns_sum;
    events += d.flit_events;
  }
  m.set("sim.step_ns_p50", median(steps), "ns");
  m.set("sim.step_ns_tail", tail(steps), "ns");
  m.set("sim.step_self_ns_p50", median(zoo.self_ns), "ns");
  m.set("sim.inject_ns_per_packet",
        zoo.inject_ns / static_cast<double>(zoo.packets_injected), "ns");
  m.set("sim.packets_injected", static_cast<double>(zoo.packets_injected),
        "count");
  m.set("sim.flit_events", static_cast<double>(events), "count");
  m.set("sim.ns_per_flit_event", step_sum / static_cast<double>(events), "ns");
  for (std::size_t i = 0; i < kZoo.size(); ++i) {
    const auto& d = zoo.designs[i];
    const std::string p = std::string("router.") + kZoo[i].slug + ".";
    m.set(p + "ns_per_cycle", median(d.step_ns), "ns");
    m.set(p + "ns_per_flit_event",
          d.step_ns_sum / static_cast<double>(d.flit_events), "ns");
    m.set(p + "occupancy_mean",
          d.occupancy_sum / static_cast<double>(d.occupancy_samples),
          "flits");
    m.set(p + "useful_hop_ratio",
          static_cast<double>(d.minimal_hops) /
              static_cast<double>(d.taken_hops),
          "ratio");
  }
  m.set("traffic.begin_cycle_ns",
        zoo.begin_cycle_ns / static_cast<double>(zoo.begin_cycle_calls), "ns");
  m.set("traffic.share_of_step", zoo.begin_cycle_ns / step_sum, "ratio");

  // workload, snapshot and sweep layers: seeded_sweep_8x8.
  probe_closed_loop(seed, ref, tally, m);
  probe_snapshots(seed, ref, tally, m);
  const auto& rep = sweep.sweep_report;
  const double warmups =
      static_cast<double>(rep.groups.size() + rep.cold_points);
  m.set("sweep.warm_groups", static_cast<double>(rep.groups.size()), "count");
  m.set("sweep.warm_points", static_cast<double>(rep.warm_points()), "count");
  m.set("sweep.cold_points", static_cast<double>(rep.cold_points), "count");
  m.set("sweep.warmup_reuse_ratio", sweep_r.points / warmups, "ratio");

  // shard layer: DXbar on a 64x64 mesh at 4 shards and at 1.
  const double sharded_p50 =
      median(probe_shard_steps(seed, ref, tally, sharded_shards()));
  const double serial_p50 = median(probe_shard_steps(seed, ref, tally, 1));
  m.set("shard.step_ns_p50", sharded_p50, "ns");
  m.set("shard.serial_step_ns_p50", serial_p50, "ns");
  m.set("shard.speedup", serial_p50 / sharded_p50, "ratio");
  m.set("shard.efficiency", serial_p50 / sharded_p50 / sharded_shards(),
        "ratio");

  probe_setup(seed, m);

  const double traced =
      a.workload == "zoo_kernel_8x8" ? zoo_r.wall_s : sweep_r.wall_s;
  m.set("trace.overhead_frac", traced / median(untraced) - 1.0, "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--reference") {
      a.reference = value();
    } else if (k == "--record") {
      record = true;
    } else if (k == "--describe-build") {
#ifdef __clang__
      const char* compiler = "clang " __clang_version__;
#else
      const char* compiler = "gcc " __VERSION__;
#endif
      std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                  compiler, SIMBENCH_BUILD_TYPE);
      return 0;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (record) return record_reference() ? 0 : 1;

  bool known = false;
  for (const auto& w : kWorkloads) known = known || w == a.workload;
  if (!known) usage("unknown --workload");
  if (a.reference.empty()) usage("--reference is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");

  const Reference ref = Reference::load(a.reference);
  const std::uint64_t seed = sim_seed(a.seed);
  std::printf("workload %s, seed %llu -> simulation seed %llu, trace %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(seed), a.trace ? 1 : 0);
  print_accuracy();

  Tally tally;
  Metrics m;
  try {
    if (a.trace) {
      per_layer(a, seed, ref, tally, m);
    } else {
      const int reps = std::max(
          kMinReps, static_cast<int>(std::lround(
                        a.seconds / nominal_rep_seconds(a.workload))));
      std::vector<Rep> done;
      for (int r = 0; r < reps; ++r) {
        done.push_back(run_rep(a.workload, seed, ref, tally, nullptr));
      }
      end_to_end(done, m);
    }
  } catch (const std::exception& e) {
    tally.fail(std::string("exception: ") + e.what());
  }

  for (const auto& f : tally.first_failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  std::printf("failed_frac: %.6g (%llu of %llu points failed)\n",
              tally.attempted == 0
                  ? 1.0
                  : static_cast<double>(tally.failed) /
                        static_cast<double>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  for (const auto& [name, metric] : m.items()) {
    std::printf("  %-40s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%s\n", m.result_json(tally).c_str());
  return tally.failed == 0 && tally.attempted > 0 ? 0 : 1;
}
