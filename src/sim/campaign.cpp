#include "sim/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "sim/network.hpp"
#include "sim/sim_runner.hpp"
#include "snapshot/serialize.hpp"
#include "traffic/traffic_gen.hpp"
#include "workload/factory.hpp"

namespace dxbar {

namespace {

constexpr std::uint32_t kSecCampaign = section_tag("CAMP");
constexpr std::uint32_t kSecWorkload = section_tag("WKLD");

std::uint64_t points_fingerprint(const std::vector<SimConfig>& points) {
  SnapshotWriter w;
  for (const SimConfig& p : points) save_config(w, p);
  return fnv1a(w.data().data(), w.data().size());
}

/// The campaign cursor stored in a checkpoint, derived from the clock:
/// stage 1 once the point has stepped past the measurement window, and
/// the drain cycles taken so far.
std::uint8_t stage_at(Cycle now, Cycle measure_end) {
  return now > measure_end ? 1 : 0;
}

Cycle drain_at(Cycle now, Cycle measure_end) {
  return now > measure_end ? now - measure_end : 0;
}

}  // namespace

Campaign::Campaign(std::vector<SimConfig> points, std::string dir,
                   Cycle checkpoint_interval)
    : points_(std::move(points)),
      dir_(std::move(dir)),
      checkpoint_interval_(checkpoint_interval == 0 ? 1 : checkpoint_interval),
      fingerprint_(points_fingerprint(points_)),
      log_(dir_ + "/results.bin", fingerprint_, points_.size()),
      results_(log_.decode(&load_run_stats)) {}

std::string Campaign::checkpoint_path() const {
  return dir_ + "/checkpoint.bin";
}

void Campaign::write_checkpoint(std::size_t point, const Network& net,
                                const WorkloadModel& workload) const {
  const Cycle measure_end =
      points_[point].warmup_cycles + points_[point].measure_cycles;
  SnapshotWriter w;
  w.begin_section(kSecCampaign);
  w.u32(static_cast<std::uint32_t>(point));
  w.u8(stage_at(net.now(), measure_end));
  w.u64(drain_at(net.now(), measure_end));
  w.u64(fingerprint_);
  w.end_section();
  net.save(w);
  w.begin_section(kSecWorkload);
  workload.save_state(w);
  w.end_section();

  // Atomic replacement: the old checkpoint stays valid until the new one
  // is fully on disk.
  const std::string tmp = checkpoint_path() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(w.data().data()),
              static_cast<std::streamsize>(w.data().size()));
  }
  std::rename(tmp.c_str(), checkpoint_path().c_str());
}

CampaignStatus Campaign::status() const {
  CampaignStatus st;
  st.total = points_.size();
  for (const auto& r : results_) {
    if (r.has_value()) ++st.completed;
  }
  st.finished = st.completed == st.total;
  return st;
}

CampaignStatus Campaign::run(std::uint64_t cycle_budget) {
  std::uint64_t stepped = 0;
  // The checkpoint (if any) belongs to at most one point; consume it on
  // the first pending point and ignore it if it does not match.
  std::vector<std::uint8_t> checkpoint = read_file(checkpoint_path());

  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (results_[i].has_value()) continue;
    const SimConfig& cfg = points_[i];
    const Cycle measure_end = cfg.warmup_cycles + cfg.measure_cycles;

    auto net = std::make_unique<Network>(cfg);
    auto workload = make_workload(cfg, net->mesh());
    net->set_workload(workload.get());

    if (!checkpoint.empty()) {
      const std::vector<std::uint8_t> bytes = std::move(checkpoint);
      checkpoint.clear();
      try {
        SnapshotReader r(bytes);
        (void)r.expect_section(kSecCampaign);
        const std::uint32_t point = r.u32();
        const std::uint8_t stage = r.u8();
        const Cycle drain_t = r.u64();
        const std::uint64_t fp = r.u64();
        if (fp == fingerprint_ && point == i) {
          net->load(r);
          (void)r.expect_section(kSecWorkload);
          workload->load_state(r);
          // The run position is the restored clock; the cursor fields
          // must agree with it.
          if (stage != stage_at(net->now(), measure_end) ||
              drain_t != drain_at(net->now(), measure_end)) {
            throw SnapshotError("campaign cursor disagrees with the clock");
          }
        }
      } catch (const SnapshotError&) {
        // Corrupt, foreign or inconsistent checkpoint: restart the point
        // cold.  load() may have partially mutated the network, so
        // rebuild it.
        net = std::make_unique<Network>(cfg);
        workload = make_workload(cfg, net->mesh());
        net->set_workload(workload.get());
      }
    }

    // Step in slices that end at the next checkpoint or the budget.
    Cycle since_checkpoint = 0;
    for (;;) {
      std::uint64_t slice = checkpoint_interval_ - since_checkpoint;
      if (cycle_budget != 0) slice = std::min(slice, cycle_budget - stepped);
      const Cycle before = net->now();
      const bool done = step_open_loop(*net, *workload, slice);
      stepped += net->now() - before;
      since_checkpoint += net->now() - before;
      if (done) break;
      if (since_checkpoint < checkpoint_interval_) return status();
      write_checkpoint(i, *net, *workload);
      since_checkpoint = 0;
    }

    const RunStats out = summarize_open_loop(*net, *workload);
    // Persist the result BEFORE dropping the checkpoint: a crash between
    // the two leaves a stale checkpoint for a completed point, which the
    // next run detects (point != first pending) and discards.
    SnapshotWriter record;
    save_run_stats(record, out);
    log_.append(i, record.data());
    results_[i] = out;
    std::remove(checkpoint_path().c_str());
  }
  return status();
}

}  // namespace dxbar
