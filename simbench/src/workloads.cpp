#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>

#include "layers.hpp"
#include "workload/closed_loop.hpp"
#include "workload/factory.hpp"

namespace simbench {

namespace {

// Fixed work of one repetition.  Warm-ups are untimed; the zoo's timed
// window is cut into equal cycle slices.
constexpr Cycle kZooWarmup = 300;
constexpr int kZooSlices = 40;
constexpr Cycle kZooSliceCycles = 100;
constexpr Cycle kSweepWarmup = 300;
constexpr Cycle kSweepMeasure = 100;
constexpr double kSweepWarmupLoad = 0.15;
constexpr int kSweepSeeds = 8;
constexpr unsigned kSweepThreads = 2;
constexpr Cycle kShardWarmup = 200;
constexpr Cycle kShardWindow = 500;
/// Router occupancy is sampled every this many cycles of a traced zoo
/// window (outside the timed step).
constexpr Cycle kOccupancyEvery = 16;

const std::vector<RouterDesign> kSweepDesigns = {
    RouterDesign::DXbar, RouterDesign::UnifiedXbar, RouterDesign::Damq,
    RouterDesign::MinBD};
const std::vector<double> kSweepLoads = {0.05, 0.15, 0.25, 0.35};
/// Points per sweep design: open-loop loads x seeds, then the closed-loop
/// point x seeds.
constexpr std::size_t kSweepPointsPerDesign = 5 * kSweepSeeds;

/// Keeps the derived power parameters observable so their computation
/// stays in the timed set-up.
volatile double g_power_sink = 0.0;

void derive_power(const SimConfig& cfg) {
  const auto e = dxbar::derive_energy_params(cfg);
  const auto a = dxbar::derive_area_params(cfg);
  g_power_sink = g_power_sink + e.crossbar_pj + a.crossbar_mm2;
}

SimConfig base_8x8(RouterDesign d, std::uint64_t seed) {
  SimConfig c;
  c.mesh_width = 8;
  c.mesh_height = 8;
  c.design = d;
  c.pattern = dxbar::TrafficPattern::UniformRandom;
  c.offered_load = 0.30;
  c.packet_length = 5;
  c.shards = 1;
  c.seed = seed;
  return c;
}

/// One simulation the benchmark drives cycle by cycle.
struct Sim {
  SimConfig cfg;
  std::unique_ptr<dxbar::Mesh> mesh;
  std::unique_ptr<dxbar::WorkloadModel> workload;
  std::unique_ptr<TimedWorkload> timed;  ///< traced runs only
  std::unique_ptr<Network> net;

  [[nodiscard]] dxbar::WorkloadModel& attached() {
    return timed != nullptr ? *timed : *workload;
  }
};

Sim build_sim(const SimConfig& cfg, bool instrument) {
  if (const std::string err = cfg.validate(); !err.empty()) {
    throw std::runtime_error("invalid config: " + err);
  }
  Sim s;
  s.cfg = cfg;
  derive_power(cfg);
  s.mesh = std::make_unique<dxbar::Mesh>(cfg.mesh_width, cfg.mesh_height,
                                         cfg.torus);
  s.workload = dxbar::make_workload(cfg, *s.mesh);
  s.net = std::make_unique<Network>(cfg);
  if (instrument) {
    s.timed = std::make_unique<TimedWorkload>(*s.workload, *s.mesh);
    s.net->set_workload(s.timed.get());
  } else {
    s.net->set_workload(s.workload.get());
  }
  return s;
}

/// Steps `net` one cycle at a time for `cycles` cycles, timing each
/// step, and hands the step's nanoseconds to `after`.
template <typename F>
void timed_steps(Network& net, Cycle cycles, F&& after) {
  const Cycle end = net.now() + cycles;
  while (net.now() < end) {
    const std::int64_t t0 = now_ns();
    dxbar::advance_open_loop(net, net.now() + 1);
    after(static_cast<double>(now_ns() - t0));
  }
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string point_name(const char* workload, std::uint64_t seed,
                       std::size_t index) {
  return std::string(workload) + " seed " + std::to_string(seed) +
         " point " + std::to_string(index);
}

/// Runs the zoo window of one network as the untraced benchmark does.
void zoo_window(Sim& s) {
  for (int k = 0; k < kZooSlices; ++k) {
    dxbar::advance_open_loop(*s.net, s.net->now() + kZooSliceCycles);
  }
}

}  // namespace

SimConfig zoo_config(RouterDesign d, std::uint64_t seed) {
  SimConfig c = base_8x8(d, seed);
  c.warmup_cycles = kZooWarmup;
  c.measure_cycles = kZooSlices * kZooSliceCycles;
  return c;
}

std::vector<SimConfig> sweep_configs(std::uint64_t seed) {
  std::vector<SimConfig> out;
  for (RouterDesign d : kSweepDesigns) {
    SimConfig base = base_8x8(d, seed);
    base.warmup_cycles = kSweepWarmup;
    base.measure_cycles = kSweepMeasure;
    for (double load : kSweepLoads) {
      for (int j = 0; j < kSweepSeeds; ++j) {
        SimConfig c = base;
        c.offered_load = load;
        c.warmup_load = kSweepWarmupLoad;
        c.measure_seed = seed * 1000 + static_cast<std::uint64_t>(j) + 1;
        out.push_back(c);
      }
    }
    for (int j = 0; j < kSweepSeeds; ++j) {
      SimConfig c = base;
      c.workload = dxbar::WorkloadKind::ClosedLoop;
      c.read_fraction = 0.7;
      c.mlp = 4;
      c.measure_seed = seed * 1000 + static_cast<std::uint64_t>(j) + 1;
      out.push_back(c);
    }
  }
  return out;
}

SimConfig sharded_config(std::uint64_t seed, int shards) {
  SimConfig c = base_8x8(RouterDesign::DXbar, seed);
  c.mesh_width = 64;
  c.mesh_height = 64;
  c.shards = shards;
  c.warmup_cycles = kShardWarmup;
  c.measure_cycles = kShardWindow;
  // UR at 0.30 is far past a 64x64 mesh's saturation load, so the
  // network would take thousands of cycles to drain; the digest covers
  // the window as it ends instead.
  c.drain_cycles = 0;
  return c;
}

int sharded_shards() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1U, 4U));
}

Rep zoo_rep(std::uint64_t seed, const Reference& ref, Tally& tally,
            Trace* trace) {
  const auto& expected = ref.points("zoo_kernel_8x8", seed);
  Rep rep;
  const std::int64_t start = now_ns();
  std::vector<Sim> sims;
  sims.reserve(kZoo.size());
  for (const DesignInfo& info : kZoo) {
    sims.push_back(build_sim(zoo_config(info.design, seed), trace != nullptr));
  }
  rep.setup_s = seconds_since(start);

  // Each design runs warm-up, window and drain before the next one
  // starts, so one network stays cache-resident (as in a figure's sweep,
  // where a thread runs one point at a time).  Zoo slice k, the time to
  // advance every design by one slice, is the sum of the designs' k-th
  // slices.
  rep.slices_ms.assign(kZooSlices, 0.0);
  if (trace != nullptr) trace->designs.assign(kZoo.size(), {});
  for (std::size_t i = 0; i < sims.size(); ++i) {
    Sim& s = sims[i];
    Network& net = *s.net;
    if (trace == nullptr) {
      dxbar::advance_open_loop(net, kZooWarmup);
    } else {
      // Audit the flit-event counters against an EventTracer over the
      // (untimed) warm-up.  Sends and arrivals differ by the flits still
      // on the links, at most two per channel.
      CountingTracer tracer;
      const std::uint64_t created0 = net.flits_created();
      const std::uint64_t delivered0 = net.flits_delivered();
      const std::uint64_t events0 = flit_events(net);
      net.set_tracer(&tracer);
      dxbar::advance_open_loop(net, kZooWarmup);
      net.set_tracer(nullptr);
      const std::uint64_t created = net.flits_created() - created0;
      const std::uint64_t delivered = net.flits_delivered() - delivered0;
      const std::uint64_t sends =
          flit_events(net) - events0 - created - delivered;
      const std::uint64_t channels = net.link_usage().size();
      tally.check(tracer.flits_created == created &&
                      tracer.ejected == delivered && tracer.hops <= sends &&
                      sends <= tracer.hops + 2 * channels,
                  "tracer audit " + std::string(to_string(s.cfg.design)));
      s.timed->set_active(true);
    }

    const std::uint64_t events0 = flit_events(net);
    for (int k = 0; k < kZooSlices; ++k) {
      const std::int64_t t0 = now_ns();
      if (trace == nullptr) {
        dxbar::advance_open_loop(net, net.now() + kZooSliceCycles);
      } else {
        Trace::Design& d = trace->designs[i];
        timed_steps(net, kZooSliceCycles, [&](double ns) {
          const auto cb = static_cast<double>(s.timed->take_callback_ns());
          d.step_ns.push_back(ns);
          d.step_ns_sum += ns;
          trace->self_ns.push_back(ns - cb);
          if (net.now() % kOccupancyEvery == 0) {
            int flits = 0;
            const int n = net.mesh().num_nodes();
            for (int node = 0; node < n; ++node) {
              flits += net.router(static_cast<dxbar::NodeId>(node)).occupancy();
            }
            d.occupancy_sum += static_cast<double>(flits) / n;
            ++d.occupancy_samples;
          }
        });
      }
      rep.slices_ms[static_cast<std::size_t>(k)] +=
          static_cast<double>(now_ns() - t0) * 1e-6;
    }
    const std::uint64_t events = flit_events(net) - events0;
    rep.flit_events += static_cast<double>(events);

    if (trace != nullptr) {
      TimedWorkload& tw = *s.timed;
      tw.set_active(false);
      Trace::Design& d = trace->designs[i];
      d.flit_events = events;
      d.minimal_hops = tw.minimal_hops;
      d.taken_hops = tw.taken_hops;
      trace->begin_cycle_ns += static_cast<double>(tw.begin_ns);
      trace->begin_cycle_calls += tw.begin_calls;
      trace->inject_ns += static_cast<double>(tw.injector().ns);
      trace->packets_injected += tw.injector().packets;
    }
    const RunStats r = dxbar::finish_open_loop(net, s.attached());
    tally.check(i < expected.size() && digest(r) == expected[i],
                point_name("zoo_kernel_8x8", seed, i));
  }
  for (double ms : rep.slices_ms) rep.timed_s += ms * 1e-3;
  rep.sim_cycles = static_cast<double>(sims.size()) * kZooSlices *
                   static_cast<double>(kZooSliceCycles);
  rep.points = static_cast<double>(sims.size());
  rep.wall_s = seconds_since(start);
  return rep;
}

Rep sweep_rep(std::uint64_t seed, const Reference& ref, Tally& tally,
              Trace* trace) {
  const auto& expected = ref.points("seeded_sweep_8x8", seed);
  Rep rep;
  const std::int64_t start = now_ns();
  const std::vector<SimConfig> configs = sweep_configs(seed);
  rep.setup_s = seconds_since(start);
  // run_warm_sweep builds each point's objects inside the call.  Set-up
  // is timed by building the same ones here, one point at a time (mesh,
  // workload, network and energy/area parameters); the sweep does not
  // use them, and their destruction is not timed.
  for (const SimConfig& c : configs) {
    const std::int64_t t0 = now_ns();
    const Sim s = build_sim(c, false);
    rep.setup_s += seconds_since(t0);
  }

  dxbar::WarmSweepReport report;
  const std::int64_t t0 = now_ns();
  const std::vector<RunStats> results =
      dxbar::run_warm_sweep(configs, report, kSweepThreads);
  rep.slices_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    tally.check(i < expected.size() && i < results.size() &&
                    digest(results[i]) == expected[i],
                point_name("seeded_sweep_8x8", seed, i));
  }
  if (trace != nullptr) trace->sweep_report = report;
  rep.timed_s = rep.slices_ms.back() * 1e-3;
  // Work counted from the results: each point's measurement window (its
  // cycles, injections, ejections and link traversals).  Warm-up and
  // drain are not counted.
  for (const RunStats& r : results) {
    const auto ejected = static_cast<double>(r.flits_ejected);
    rep.sim_cycles += static_cast<double>(r.cycles);
    rep.flit_events += static_cast<double>(r.flits_injected) + ejected +
                       r.avg_hops * ejected;
  }
  rep.points = static_cast<double>(configs.size());
  rep.wall_s = seconds_since(start);
  return rep;
}

std::vector<double> probe_shard_steps(std::uint64_t seed,
                                      const Reference& ref, Tally& tally,
                                      int shards) {
  const auto& expected = ref.points("sharded_dxbar_64x64", seed);
  Sim s = build_sim(sharded_config(seed, shards), false);
  Network& net = *s.net;
  dxbar::advance_open_loop(net, kShardWarmup);
  std::vector<double> step_ns;
  timed_steps(net, kShardWindow, [&](double ns) { step_ns.push_back(ns); });
  const RunStats r = dxbar::finish_open_loop(net, *s.workload);
  tally.check(!expected.empty() && digest(r) == expected[0],
              point_name("sharded_dxbar_64x64", seed, 0) + " shards " +
                  std::to_string(shards));
  return step_ns;
}

void probe_snapshots(std::uint64_t seed, const Reference& ref, Tally& tally,
                     Metrics& out) {
  // One warm group per (design, open/closed): warm the group's first
  // member to the warm-up boundary, snapshot it, restore the bytes into
  // the group's last member, finish that fork and compare it with the
  // member's cold reference digest.
  constexpr int kTimings = 5;
  const auto& expected = ref.points("seeded_sweep_8x8", seed);
  const std::vector<SimConfig> configs = sweep_configs(seed);
  std::vector<double> save_ns;
  std::vector<double> restore_ns;
  double bytes = 0.0;
  int snapshots = 0;
  for (std::size_t d = 0; d < kSweepDesigns.size(); ++d) {
    const std::size_t base = d * kSweepPointsPerDesign;
    const std::size_t open_last = base + kSweepLoads.size() * kSweepSeeds - 1;
    const std::pair<std::size_t, std::size_t> groups[] = {
        {base, open_last},
        {open_last + 1, base + kSweepPointsPerDesign - 1}};
    for (const auto& [first, last] : groups) {
      Sim src = build_sim(configs[first], false);
      dxbar::advance_open_loop(*src.net, kSweepWarmup);
      std::vector<std::uint8_t> state;
      for (int k = 0; k < kTimings; ++k) {
        const std::int64_t t0 = now_ns();
        state = src.net->snapshot();
        save_ns.push_back(static_cast<double>(now_ns() - t0));
      }
      dxbar::SnapshotWriter ws;
      src.workload->save_state(ws);
      const std::vector<std::uint8_t> workload_state = ws.take();

      Sim fork = build_sim(configs[last], false);
      for (int k = 0; k < kTimings; ++k) {
        const std::int64_t t0 = now_ns();
        fork.net->restore(state);
        restore_ns.push_back(static_cast<double>(now_ns() - t0));
      }
      dxbar::SnapshotReader wr(workload_state);
      fork.workload->load_state(wr);
      const RunStats r = dxbar::finish_open_loop(*fork.net, *fork.workload);
      tally.check(digest(r) == expected.at(last),
                  point_name("fork", seed, last));
      bytes += static_cast<double>(state.size());
      ++snapshots;
    }
  }
  out.set("snapshot.save_ns", median(save_ns), "ns");
  out.set("snapshot.restore_ns", median(restore_ns), "ns");
  out.set("snapshot.bytes", bytes / snapshots, "B");
}

void probe_closed_loop(std::uint64_t seed, const Reference& ref, Tally& tally,
                       Metrics& out) {
  // Replays the first closed-loop point of every sweep design through
  // the timing decorator, sampling outstanding requests each cycle.
  const auto& expected = ref.points("seeded_sweep_8x8", seed);
  const std::vector<SimConfig> configs = sweep_configs(seed);
  std::uint64_t begin_ns = 0;
  std::uint64_t begin_calls = 0;
  std::uint64_t delivered_ns = 0;
  std::uint64_t delivered_calls = 0;
  std::uint64_t requests = 0;
  std::uint64_t writebacks = 0;
  double outstanding = 0.0;
  std::uint64_t samples = 0;
  for (std::size_t d = 0; d < kSweepDesigns.size(); ++d) {
    const std::size_t idx =
        d * kSweepPointsPerDesign + kSweepLoads.size() * kSweepSeeds;
    const SimConfig& cfg = configs[idx];
    const dxbar::Mesh mesh(cfg.mesh_width, cfg.mesh_height, cfg.torus);
    dxbar::ClosedLoopWorkload client(cfg, mesh);
    TimedWorkload timed(client, mesh);
    Network net(cfg);
    net.set_workload(&timed);
    timed.set_active(true);
    const Cycle end = cfg.warmup_cycles + cfg.measure_cycles;
    while (net.now() < end) {
      dxbar::advance_open_loop(net, net.now() + 1);
      outstanding += static_cast<double>(client.outstanding_total()) /
                     mesh.num_nodes();
      ++samples;
    }
    timed.set_active(false);
    const RunStats r = dxbar::finish_open_loop(net, timed);
    tally.check(digest(r) == expected.at(idx),
                point_name("closed-loop replay", seed, idx));
    begin_ns += timed.begin_ns;
    begin_calls += timed.begin_calls;
    delivered_ns += timed.delivered_ns;
    delivered_calls += timed.delivered_calls;
    requests += client.requests_issued();
    writebacks += client.writebacks_issued();
  }
  out.set("workload.begin_cycle_ns",
          static_cast<double>(begin_ns) / static_cast<double>(begin_calls),
          "ns");
  out.set("workload.on_delivered_ns",
          static_cast<double>(delivered_ns) /
              static_cast<double>(delivered_calls),
          "ns");
  out.set("workload.requests_issued", static_cast<double>(requests), "count");
  out.set("workload.writebacks_issued", static_cast<double>(writebacks),
          "count");
  out.set("workload.outstanding_mean", outstanding / static_cast<double>(samples),
          "req/node");
}

void probe_setup(std::uint64_t seed, Metrics& out) {
  const auto ctor_ms = [](const SimConfig& cfg, int reps) {
    std::vector<double> ms;
    for (int k = 0; k < reps; ++k) {
      const std::int64_t t0 = now_ns();
      auto net = std::make_unique<Network>(cfg);
      ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    return median(ms);
  };
  const SimConfig small = zoo_config(RouterDesign::DXbar, seed);
  const SimConfig large = sharded_config(seed, sharded_shards());
  out.set("setup.network_ctor_ms.8x8", ctor_ms(small, 21), "ms");
  out.set("setup.network_ctor_ms.64x64", ctor_ms(large, 5), "ms");

  const dxbar::Mesh mesh(large.mesh_width, large.mesh_height, large.torus);
  std::vector<double> ms;
  for (int k = 0; k < 21; ++k) {
    const std::int64_t t0 = now_ns();
    auto w = dxbar::make_workload(large, mesh);
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  out.set("setup.workload_ctor_ms", median(ms), "ms");

  constexpr int kRounds = 200;
  std::vector<SimConfig> per_design;
  for (const DesignInfo& info : kZoo) per_design.push_back(zoo_config(info.design, seed));
  const std::int64_t t0 = now_ns();
  for (int k = 0; k < kRounds; ++k) {
    for (const SimConfig& c : per_design) derive_power(c);
  }
  out.set("power.derive_us",
          static_cast<double>(now_ns() - t0) * 1e-3 /
              (kRounds * static_cast<double>(per_design.size())),
          "us");
}

bool record_reference() {
  constexpr unsigned kThreads = 3;
  std::vector<std::string> lines(kReferenceSeeds);
  std::vector<std::string> errors(kReferenceSeeds);
  dxbar::parallel_for(
      kReferenceSeeds,
      [&](std::size_t i) {
        const std::uint64_t seed = i + 1;
        std::ostringstream o;
        std::string& err = errors[i];
        const auto expect = [&](bool ok, const std::string& what) {
          if (!ok && err.empty()) err = what;
        };
        try {

        // Zoo: cold run_open_loop, cross-checked against the sliced path.
        o << "zoo_kernel_8x8 " << seed;
        for (const DesignInfo& info : kZoo) {
          const SimConfig cfg = zoo_config(info.design, seed);
          const std::uint64_t cold = digest(dxbar::run_open_loop(cfg));
          Sim s = build_sim(cfg, false);
          dxbar::advance_open_loop(*s.net, kZooWarmup);
          zoo_window(s);
          const std::uint64_t sliced =
              digest(dxbar::finish_open_loop(*s.net, *s.workload));
          expect(cold == sliced, "zoo sliced != cold, " + std::string(info.slug));
          o << ' ' << hex(cold);
        }
        o << '\n';

        // Sweep: cold run_open_loop per point, cross-checked against
        // run_warm_sweep.
        const std::vector<SimConfig> configs = sweep_configs(seed);
        std::vector<std::uint64_t> cold(configs.size());
        for (std::size_t p = 0; p < configs.size(); ++p) {
          cold[p] = digest(dxbar::run_open_loop(configs[p]));
        }
        const std::vector<RunStats> warm = dxbar::run_warm_sweep(configs, 1);
        for (std::size_t p = 0; p < configs.size(); ++p) {
          expect(digest(warm[p]) == cold[p], point_name("sweep warm", seed, p));
        }
        o << "seeded_sweep_8x8 " << seed;
        for (std::uint64_t h : cold) o << ' ' << hex(h);
        o << '\n';

        // Sharded: the serial cold run is the reference; the sharded
        // run must match it.
        const std::uint64_t serial =
            digest(dxbar::run_open_loop(sharded_config(seed, 1)));
        const std::uint64_t sharded = digest(
            dxbar::run_open_loop(sharded_config(seed, sharded_shards())));
        expect(serial == sharded, "sharded != serial");
        o << "sharded_dxbar_64x64 " << seed << ' ' << hex(serial) << '\n';
        } catch (const std::exception& e) {
          expect(false, e.what());
        }
        lines[i] = o.str();
        std::fprintf(stderr, "recorded seed %llu\n",
                     static_cast<unsigned long long>(seed));
      },
      kThreads);
  bool ok = true;
  for (std::size_t i = 0; i < kReferenceSeeds; ++i) {
    if (!errors[i].empty()) {
      std::fprintf(stderr, "seed %zu: %s\n", i + 1, errors[i].c_str());
      ok = false;
    }
    std::fputs(lines[i].c_str(), stdout);
  }
  return ok;
}

}  // namespace simbench
