#include "sim/sim_runner.hpp"

#include <algorithm>

#include "workload/factory.hpp"

namespace dxbar {

void advance_open_loop(Network& net, Cycle until) {
  const SimConfig& cfg = net.config();
  const Cycle warmup = cfg.warmup_cycles;
  const Cycle measure_end = warmup + cfg.measure_cycles;
  if (until > measure_end) until = measure_end;

  // Energy accumulates only inside the measurement window; deriving the
  // gate from the clock makes the call position-independent, so a
  // restored network resumes with the exact setting the straight run had.
  net.energy().set_enabled(net.now() >= warmup && net.now() < measure_end);
  while (net.now() < until) {
    if (net.now() == warmup) net.energy().set_enabled(true);
    net.step();
  }
}

bool step_open_loop(Network& net, WorkloadModel& workload,
                    std::uint64_t max_steps) {
  const SimConfig& cfg = net.config();
  const Cycle measure_end = cfg.warmup_cycles + cfg.measure_cycles;
  if (net.now() < measure_end) {
    const Cycle start = net.now();
    advance_open_loop(net, start + std::min<std::uint64_t>(
                                       max_steps, measure_end - start));
    max_steps -= net.now() - start;
    if (net.now() < measure_end) return false;
  }

  // Drain: injection and energy off, then step until nothing is in
  // flight or the cap is reached.  The drain position is the clock
  // (now - measure_end), so a network restored mid-drain resumes here.
  net.energy().set_enabled(false);
  workload.set_injection_enabled(false);
  while (!(net.idle() && workload.quiescent()) &&
         net.now() - measure_end < cfg.drain_cycles) {
    if (max_steps == 0) return false;
    net.step();
    --max_steps;
  }
  return true;
}

RunStats summarize_open_loop(Network& net, const WorkloadModel& workload) {
  const SimConfig& cfg = net.config();
  RunStats out = net.stats().summarize(cfg.offered_load,
                                       net.idle() && workload.quiescent());
  out.packet_length = cfg.packet_length;
  out.energy_buffer_nj = net.energy().buffer_nj();
  out.energy_crossbar_nj = net.energy().crossbar_nj();
  out.energy_link_nj = net.energy().link_nj();
  out.energy_control_nj = net.energy().control_nj();
  out.energy_leakage_nj = network_leakage_nj(cfg, out.cycles);
  workload.fill_run_stats(out);
  return out;
}

RunStats finish_open_loop(Network& net, WorkloadModel& workload,
                          std::vector<PacketRecord>* packets_out) {
  step_open_loop(net, workload);
  RunStats out = summarize_open_loop(net, workload);
  if (packets_out != nullptr) *packets_out = net.stats().window_packets();
  return out;
}

namespace {

/// Shared body of the open-loop runners.
RunStats open_loop_impl(const SimConfig& cfg, WorkloadModel& workload,
                        std::vector<PacketRecord>* packets_out) {
  Network net(cfg);
  net.set_workload(&workload);
  return finish_open_loop(net, workload, packets_out);
}

}  // namespace

RunStats run_open_loop(const SimConfig& cfg, WorkloadModel& workload) {
  return open_loop_impl(cfg, workload, nullptr);
}

RunStats run_open_loop(const SimConfig& cfg) {
  const Mesh mesh(cfg.mesh_width, cfg.mesh_height, cfg.torus);
  const auto workload = make_workload(cfg, mesh);
  return run_open_loop(cfg, *workload);
}

DetailedRun run_open_loop_detailed(const SimConfig& cfg) {
  const Mesh mesh(cfg.mesh_width, cfg.mesh_height, cfg.torus);
  const auto workload = make_workload(cfg, mesh);
  DetailedRun out;
  out.stats = open_loop_impl(cfg, *workload, &out.packets);
  return out;
}

void save_closed_loop_result(SnapshotWriter& w, const ClosedLoopResult& r) {
  w.u64(r.completion_cycles);
  w.boolean(r.finished);
  w.u64(r.packets);
  w.f64(r.energy_nj);
  w.f64(r.energy_per_packet_nj);
  w.f64(r.avg_packet_latency);
}

ClosedLoopResult load_closed_loop_result(SnapshotReader& r) {
  ClosedLoopResult out;
  out.completion_cycles = r.u64();
  out.finished = r.boolean();
  out.packets = r.u64();
  out.energy_nj = r.f64();
  out.energy_per_packet_nj = r.f64();
  out.avg_packet_latency = r.f64();
  return out;
}

ClosedLoopResult run_closed_loop(const SimConfig& cfg,
                                 WorkloadModel& workload, Cycle max_cycles) {
  Network net(cfg);
  net.set_workload(&workload);
  net.energy().set_enabled(true);

  ClosedLoopResult out;
  while (net.now() < max_cycles) {
    if (workload.finished() && net.idle()) {
      out.finished = true;
      break;
    }
    net.step();
  }
  out.completion_cycles = net.now();
  out.packets = net.packets_delivered();
  out.energy_nj = net.energy().total_nj();
  out.energy_per_packet_nj =
      out.packets == 0 ? 0.0
                       : out.energy_nj / static_cast<double>(out.packets);

  // Whole-run latency average (closed-loop runs have no warmup window).
  const auto& packets = net.stats().window_packets();
  if (!packets.empty()) {
    double sum = 0.0;
    for (const PacketRecord& p : packets) {
      sum += static_cast<double>(p.latency());
    }
    out.avg_packet_latency = sum / static_cast<double>(packets.size());
  }
  return out;
}

ClosedLoopResult run_trace_replay(const SimConfig& cfg,
                                  std::vector<TraceEntry> entries,
                                  Cycle max_cycles) {
  SimConfig run_cfg = cfg;
  run_cfg.warmup_cycles = 0;
  run_cfg.measure_cycles = max_cycles;
  TraceWorkload workload(std::move(entries));
  return run_closed_loop(run_cfg, workload, max_cycles);
}

ClosedLoopResult run_splash(const SimConfig& cfg, const SplashProfile& app,
                            Cycle max_cycles) {
  // The whole run is the measurement: make the stats window cover it.
  SimConfig run_cfg = cfg;
  run_cfg.warmup_cycles = 0;
  run_cfg.measure_cycles = max_cycles;

  const Mesh mesh(run_cfg.mesh_width, run_cfg.mesh_height);
  SplashWorkload workload(app, run_cfg, mesh);
  return run_closed_loop(run_cfg, workload, max_cycles);
}

}  // namespace dxbar
