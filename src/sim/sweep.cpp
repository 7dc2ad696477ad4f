#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "sim/network.hpp"
#include "sim/sim_runner.hpp"
#include "snapshot/serialize.hpp"
#include "workload/factory.hpp"

namespace dxbar {

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  unsigned threads) {
  if (n == 0) return;
  unsigned workers = threads != 0 ? threads : std::thread::hardware_concurrency();
  if (workers == 0) workers = 4;
  if (workers > n) workers = static_cast<unsigned>(n);

  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Atomic-counter work stealing, one index per claim: an item is a
  // whole simulation point (tens of microseconds at the least), so one
  // fetch_add per item costs nothing, and claiming singly keeps every
  // worker busy until the range is exhausted — a claimed chunk of long
  // points could leave the other workers idle at the end.
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) pool.emplace_back(work);
  work();  // the calling thread participates instead of blocking
  for (auto& t : pool) t.join();
}

std::vector<RunStats> run_sweep(const std::vector<SimConfig>& configs,
                                unsigned threads) {
  std::vector<RunStats> results(configs.size());
  parallel_for(
      configs.size(),
      [&](std::size_t i) { results[i] = run_open_loop(configs[i]); }, threads);
  return results;
}

// ---------------------------------------------------------------------------
// WarmupCache

std::shared_ptr<const std::vector<std::uint8_t>> WarmupCache::find(
    const std::vector<std::uint8_t>& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

std::shared_ptr<const std::vector<std::uint8_t>> WarmupCache::insert(
    const std::vector<std::uint8_t>& key, std::vector<std::uint8_t> state) {
  auto sp = std::make_shared<const std::vector<std::uint8_t>>(
      std::move(state));
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = map_.try_emplace(key, std::move(sp));
  return it->second;
}

std::size_t WarmupCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

// ---------------------------------------------------------------------------
// run_warm_sweep

std::vector<std::uint8_t> warmup_signature(const SimConfig& cfg) {
  // The full config with every field that cannot influence the warmup
  // phase neutralized: members of one signature replay an identical
  // warmup.  The drain cap and measure_seed never matter (the reseed
  // fires after the warmup snapshot point); offered_load matters only
  // when no explicit warmup_load pins the warmup rate.
  SimConfig key = cfg;
  key.drain_cycles = 0;
  key.measure_seed = 0;
  if (key.warmup_load >= 0.0) key.offered_load = 0.0;
  SnapshotWriter w;
  save_config(w, key);
  return w.take();
}

namespace {

constexpr std::uint32_t kSecWorkload = section_tag("WKLD");

/// One shared-warmup member: a fresh network and workload restored from
/// the group's warm snapshot (the structural fingerprint check in
/// Network::load is the statement that `cfg` shares that warmup), then
/// run to completion.
RunStats run_fork(const SimConfig& cfg,
                  const std::vector<std::uint8_t>& warm_state) {
  Network net(cfg);
  const auto workload = make_workload(cfg, net.mesh());
  net.set_workload(workload.get());
  SnapshotReader r(warm_state);
  net.load(r);
  (void)r.expect_section(kSecWorkload);
  workload->load_state(r);
  return finish_open_loop(net, *workload);
}

}  // namespace

std::vector<RunStats> run_warm_sweep(const std::vector<SimConfig>& configs,
                                     unsigned threads) {
  WarmSweepReport report;
  return run_warm_sweep(configs, report, threads);
}

std::vector<RunStats> run_warm_sweep(const std::vector<SimConfig>& configs,
                                     WarmSweepReport& report,
                                     unsigned threads, WarmupCache* cache) {
  struct Group {
    std::vector<std::size_t> members;
    std::vector<std::uint8_t> key;
    std::shared_ptr<const std::vector<std::uint8_t>> warm_state;
    bool from_cache = false;
  };

  // A config can share a warmup when it is single-sharded and actually
  // has a warmup phase, and either carries an explicit warmup_load (the
  // measurement load is neutralized out of the signature) or has at
  // least one sibling identical up to measure_seed / drain cap.
  const auto eligible = [](const SimConfig& cfg) {
    return cfg.shards == 1 && cfg.warmup_cycles > 0;
  };
  std::map<std::vector<std::uint8_t>, std::size_t> key_count;
  for (const SimConfig& cfg : configs) {
    if (eligible(cfg)) ++key_count[warmup_signature(cfg)];
  }

  std::vector<Group> groups;
  std::map<std::vector<std::uint8_t>, std::size_t> group_of;
  // -1 == cold run (no shared-warmup eligibility).
  std::vector<std::ptrdiff_t> group_index(configs.size(), -1);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const SimConfig& cfg = configs[i];
    if (!eligible(cfg)) continue;
    auto key = warmup_signature(cfg);
    if (cfg.warmup_load < 0.0 && key_count[key] < 2) continue;
    const auto [it, inserted] = group_of.try_emplace(key, groups.size());
    if (inserted) {
      groups.emplace_back();
      groups.back().key = std::move(key);
    }
    groups[it->second].members.push_back(i);
    group_index[i] = static_cast<std::ptrdiff_t>(it->second);
  }

  // Phase 1: one warmup per group — served from the session cache when
  // possible, executed and published into it otherwise.
  parallel_for(
      groups.size(),
      [&](std::size_t g) {
        Group& grp = groups[g];
        if (cache != nullptr) {
          if (auto hit = cache->find(grp.key)) {
            grp.warm_state = std::move(hit);
            grp.from_cache = true;
            return;
          }
        }
        const SimConfig& cfg = configs[grp.members.front()];
        Network net(cfg);
        const auto workload = make_workload(cfg, net.mesh());
        net.set_workload(workload.get());
        advance_open_loop(net, cfg.warmup_cycles);
        SnapshotWriter w;
        net.save(w);
        w.begin_section(kSecWorkload);
        workload->save_state(w);
        w.end_section();
        if (cache != nullptr) {
          grp.warm_state = cache->insert(grp.key, w.take());
        } else {
          grp.warm_state =
              std::make_shared<const std::vector<std::uint8_t>>(w.take());
        }
      },
      threads);

  // Phase 2: one work item per config — a fork of its group's warm
  // snapshot, or a cold run — visited longest-expected first so no
  // worker picks up a long point when the rest are about to finish:
  // closed-loop points, then open-loop points by descending load.
  // Results stay addressed by config index.
  std::vector<std::size_t> order(configs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&configs](std::size_t a, std::size_t b) {
                     const SimConfig& x = configs[a];
                     const SimConfig& y = configs[b];
                     const bool cx = x.workload == WorkloadKind::ClosedLoop;
                     const bool cy = y.workload == WorkloadKind::ClosedLoop;
                     if (cx != cy) return cx;
                     return x.offered_load > y.offered_load;
                   });
  std::vector<RunStats> results(configs.size());
  parallel_for(
      configs.size(),
      [&](std::size_t k) {
        const std::size_t i = order[k];
        const std::ptrdiff_t g = group_index[i];
        results[i] =
            g < 0 ? run_open_loop(configs[i])
                  : run_fork(configs[i],
                             *groups[static_cast<std::size_t>(g)].warm_state);
      },
      threads);

  report.groups.clear();
  report.cache_hits = 0;
  report.cache_misses = 0;
  for (const Group& g : groups) {
    report.groups.push_back(g.members);
    if (cache == nullptr) continue;
    if (g.from_cache) {
      ++report.cache_hits;
    } else {
      ++report.cache_misses;
    }
  }
  report.cold_points = configs.size() - report.warm_points();
  return results;
}

}  // namespace dxbar
