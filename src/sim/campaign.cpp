#include "sim/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>

#include "sim/network.hpp"
#include "sim/sim_runner.hpp"
#include "snapshot/serialize.hpp"
#include "traffic/traffic_gen.hpp"
#include "workload/factory.hpp"

namespace dxbar {

namespace {

constexpr std::uint32_t kResultTag = section_tag("CRES");
constexpr std::uint32_t kSecCampaign = section_tag("CAMP");
constexpr std::uint32_t kSecWorkload = section_tag("WKLD");

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void append_le32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void append_le64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t le32_at(const std::vector<std::uint8_t>& b, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(b[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

std::uint64_t le64_at(const std::vector<std::uint8_t>& b, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(b[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
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
      results_(points_.size()) {
  SnapshotWriter w;
  for (const SimConfig& p : points_) save_config(w, p);
  fingerprint_ = fnv1a(w.data().data(), w.data().size());
  load_results();
}

std::string Campaign::results_path() const { return dir_ + "/results.bin"; }
std::string Campaign::checkpoint_path() const {
  return dir_ + "/checkpoint.bin";
}

void Campaign::load_results() {
  const std::vector<std::uint8_t> bytes = read_file(results_path());
  // Frames are appended sequentially, so the first frame that fails any
  // check — unknown tag, overrun, bad hash, unparsable payload — is a
  // torn tail from a crash mid-append; it and everything after it are
  // dropped (that point simply re-runs).
  std::size_t pos = 0;
  while (bytes.size() - pos >= 4 + 8) {
    if (le32_at(bytes, pos) != kResultTag) break;
    const std::uint64_t len = le64_at(bytes, pos + 4);
    if (len > bytes.size() - pos - 12 || bytes.size() - pos - 12 - len < 8) {
      break;
    }
    const std::uint8_t* payload = bytes.data() + pos + 12;
    if (fnv1a(payload, len) != le64_at(bytes, pos + 12 + len)) break;
    try {
      SnapshotReader r(payload, len);
      const std::uint32_t point = r.u32();
      const RunStats stats = load_run_stats(r);
      if (point < points_.size()) results_[point] = stats;
    } catch (const SnapshotError&) {
      break;
    }
    pos += 12 + len + 8;
  }
}

void Campaign::append_result(std::size_t point, const RunStats& stats) {
  SnapshotWriter payload;
  payload.u32(static_cast<std::uint32_t>(point));
  save_run_stats(payload, stats);
  const std::vector<std::uint8_t>& p = payload.data();

  std::vector<std::uint8_t> frame;
  frame.reserve(p.size() + 20);
  append_le32(frame, kResultTag);
  append_le64(frame, p.size());
  frame.insert(frame.end(), p.begin(), p.end());
  append_le64(frame, fnv1a(p.data(), p.size()));

  std::ofstream out(results_path(),
                    std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
  out.flush();
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
    append_result(i, out);
    results_[i] = out;
    std::remove(checkpoint_path().c_str());
  }
  return status();
}

}  // namespace dxbar
