// The shared-warmup replica contract: K simulations forked from one
// warm snapshot — a fresh network and workload restored from it, then
// finish_open_loop — reproduce their cold runs exactly.  Every test
// here compares run_warm_sweep (or a hand-restored fork) against plain
// run_open_loop / run_sweep on the same configs, byte-exactly, across
// router designs (the Scarab NACK network included) and fault plans,
// and checks the grouping so the fork path, not the cold fallback, is
// what gets compared.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hpp"
#include "sim/sim_runner.hpp"
#include "sim/sweep.hpp"
#include "snapshot/serialize.hpp"
#include "snapshot/snapshot.hpp"
#include "traffic/traffic_gen.hpp"
#include "workload/factory.hpp"

namespace dxbar {
namespace {

constexpr std::uint32_t kSecWorkload = section_tag("WKLD");

std::vector<std::uint8_t> stats_bytes(const RunStats& s) {
  SnapshotWriter w;
  save_run_stats(w, s);
  return w.take();
}

void expect_packets_identical(const std::vector<PacketRecord>& a,
                              const std::vector<PacketRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].length, b[i].length);
    EXPECT_EQ(a[i].created, b[i].created);
    EXPECT_EQ(a[i].injected, b[i].injected);
    EXPECT_EQ(a[i].completed, b[i].completed);
    EXPECT_EQ(a[i].total_hops, b[i].total_hops);
    EXPECT_EQ(a[i].total_deflections, b[i].total_deflections);
    EXPECT_EQ(a[i].total_retransmits, b[i].total_retransmits);
  }
}

SimConfig small_cfg(RouterDesign design) {
  SimConfig cfg;
  cfg.design = design;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 600;
  cfg.drain_cycles = 2000;
  cfg.offered_load = 0.25;
  cfg.seed = 7;
  return cfg;
}

/// Runs `configs` through run_warm_sweep on two threads and through
/// cold run_sweep, and requires byte-equal RunStats per config.  Every
/// config must fork from one of `groups` shared warmups (none runs
/// cold), so the comparison exercises the fork path.
void expect_forks_match_serial(const std::vector<SimConfig>& configs,
                               std::size_t groups) {
  WarmSweepReport report;
  const std::vector<RunStats> forked = run_warm_sweep(configs, report, 2);
  EXPECT_EQ(report.cold_points, 0u);
  EXPECT_EQ(report.groups.size(), groups);
  const std::vector<RunStats> serial = run_sweep(configs, 1);
  ASSERT_EQ(forked.size(), serial.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("lane " + std::to_string(i));
    EXPECT_EQ(stats_bytes(forked[i]), stats_bytes(serial[i]));
  }
}

// --- forks vs serial bit-exactness -------------------------------------

class BatchDesignTest : public ::testing::TestWithParam<RouterDesign> {};

TEST_P(BatchDesignTest, TwoSeedLanesMatchSerial) {
  std::vector<SimConfig> configs(2, small_cfg(GetParam()));
  configs[1].measure_seed = 0xDEADBEEFULL;
  expect_forks_match_serial(configs, 1);
}

TEST_P(BatchDesignTest, EightMixedLanesMatchSerial) {
  // Lanes diverge in measurement seed AND offered load, so they finish
  // their drains at different cycles.  The pinned warmup_load makes the
  // warmup load-independent, so all eight share one.
  std::vector<SimConfig> configs(8, small_cfg(GetParam()));
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].measure_seed = i == 0 ? 0 : 1000 + 77 * i;
    configs[i].offered_load = 0.10 + 0.05 * static_cast<double>(i % 4);
    configs[i].warmup_load = 0.15;
  }
  expect_forks_match_serial(configs, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, BatchDesignTest,
    ::testing::Values(RouterDesign::DXbar, RouterDesign::FlitBless,
                      RouterDesign::Buffered4,
                      RouterDesign::Scarab,  // NACK network state
                      RouterDesign::UnifiedXbar, RouterDesign::Afc,
                      RouterDesign::Damq, RouterDesign::MinBD),
    [](const ::testing::TestParamInfo<RouterDesign>& info) {
      std::string name(to_string(info.param));
      for (char& c : name) {
        if (c == '-' || c == ' ') c = '_';
      }
      return name;
    });

TEST(ReplicaBatchTest, FaultPlanLanesMatchSerial) {
  for (const RouterDesign design :
       {RouterDesign::DXbar, RouterDesign::UnifiedXbar}) {
    SCOPED_TRACE(std::string(to_string(design)));
    std::vector<SimConfig> configs(3, small_cfg(design));
    for (std::size_t i = 0; i < configs.size(); ++i) {
      configs[i].fault_fraction = 0.5;
      configs[i].fault_onset_spread = 300;
      configs[i].measure_seed = 31 * i;
    }
    expect_forks_match_serial(configs, 1);
  }
}

TEST(ReplicaBatchTest, RandomizedLaneFuzzMatchesSerial) {
  // Deterministic fuzz: random design / lane count / per-lane loads and
  // seeds, always checked against the serial twin.  The pinned
  // warmup_load lets lanes with equal seeds share a warmup whatever
  // their loads; every distinct seed is one group.
  constexpr RouterDesign kDesigns[] = {
      RouterDesign::DXbar, RouterDesign::FlitBless, RouterDesign::Buffered8,
      RouterDesign::Scarab, RouterDesign::BufferedVC};
  SplitMix64 rng(20260808);
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const RouterDesign design = kDesigns[rng.next() % std::size(kDesigns)];
    const std::size_t lanes = 2 + rng.next() % 5;
    std::vector<SimConfig> configs;
    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < lanes; ++i) {
      SimConfig cfg = small_cfg(design);
      cfg.measure_cycles = 400;
      cfg.seed = 1 + rng.next() % 4;  // let some lanes share whole streams
      cfg.measure_seed = rng.next() % 3 == 0 ? 0 : rng.next();
      cfg.offered_load =
          0.05 + 0.01 * static_cast<double>(rng.next() % 30);
      cfg.warmup_load = 0.1;
      configs.push_back(cfg);
      seeds.insert(cfg.seed);
    }
    expect_forks_match_serial(configs, seeds.size());
  }
}

// --- warm snapshot interplay -------------------------------------------

TEST(ReplicaBatchTest, WarmForkedLanesMatchColdSerialRuns) {
  // One warmup execution, snapshotted; K measure_seed replicas forked
  // from it must equal the cold straight-through run of each replica
  // config, packet records included.  This is the claim that makes
  // `--seeds N` free: the reseed sits after the snapshot point.
  constexpr RouterDesign kAllDesigns[] = {
      RouterDesign::FlitBless,  RouterDesign::Scarab,
      RouterDesign::Buffered4,  RouterDesign::Buffered8,
      RouterDesign::DXbar,      RouterDesign::UnifiedXbar,
      RouterDesign::BufferedVC, RouterDesign::Afc,
      RouterDesign::Damq,       RouterDesign::MinBD,
  };
  for (const RouterDesign design : kAllDesigns) {
    SCOPED_TRACE(std::string(to_string(design)));
    const SimConfig base = small_cfg(design);
    std::vector<SimConfig> configs(4, base);
    for (std::size_t i = 1; i < configs.size(); ++i) {
      configs[i].measure_seed = 0x9E37 + i;
    }

    Network warm_net(base);
    SyntheticWorkload warm_wl(base, warm_net.mesh());
    warm_net.set_workload(&warm_wl);
    advance_open_loop(warm_net, base.warmup_cycles);
    SnapshotWriter w;
    warm_net.save(w);
    w.begin_section(kSecWorkload);
    warm_wl.save_state(w);
    w.end_section();
    const std::vector<std::uint8_t> snap = w.take();

    for (std::size_t i = 0; i < configs.size(); ++i) {
      SCOPED_TRACE("lane " + std::to_string(i));
      Network net(configs[i]);
      const auto wl = make_workload(configs[i], net.mesh());
      net.set_workload(wl.get());
      SnapshotReader r(snap);
      net.load(r);
      (void)r.expect_section(kSecWorkload);
      wl->load_state(r);
      std::vector<PacketRecord> packets;
      const RunStats forked = finish_open_loop(net, *wl, &packets);

      const DetailedRun cold = run_open_loop_detailed(configs[i]);
      EXPECT_EQ(stats_bytes(forked), stats_bytes(cold.stats));
      expect_packets_identical(packets, cold.packets);
    }
  }
}

TEST(ReplicaBatchTest, MeasureSeedZeroAndNonzeroDiverge) {
  SimConfig a = small_cfg(RouterDesign::DXbar);
  SimConfig b = a;
  b.measure_seed = 12345;
  EXPECT_NE(stats_bytes(run_open_loop(a)), stats_bytes(run_open_loop(b)));
  // ... and the same measure_seed is fully deterministic.
  EXPECT_EQ(stats_bytes(run_open_loop(b)), stats_bytes(run_open_loop(b)));
}

TEST(ReplicaBatchTest, MeasureSeedSurvivesConfigSnapshotRoundtrip) {
  SimConfig cfg = small_cfg(RouterDesign::Buffered4);
  cfg.measure_seed = 0xABCDEF0123ULL;
  SnapshotWriter w;
  save_config(w, cfg);
  const std::vector<std::uint8_t> bytes = w.take();
  SnapshotReader r(bytes);
  const SimConfig back = load_config(r);
  EXPECT_EQ(back.measure_seed, cfg.measure_seed);
  EXPECT_EQ(back.seed, cfg.seed);
}

// --- composition limits ------------------------------------------------

TEST(ReplicaBatchTest, SweepSerializesShardedConfigs) {
  // shards > 1 never shares a warmup, but run_warm_sweep must still
  // return the bit-exact serial result for it (run cold via
  // run_open_loop).
  std::vector<SimConfig> configs(3, small_cfg(RouterDesign::DXbar));
  configs[0].measure_seed = 11;
  configs[1].shards = 2;
  configs[2].measure_seed = 22;
  WarmSweepReport report;
  const auto batched = run_warm_sweep(configs, report, 1);
  const auto serial = run_sweep(configs, 1);
  ASSERT_EQ(batched.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(stats_bytes(batched[i]), stats_bytes(serial[i]));
  }
  // The two measure_seed siblings grouped; the sharded point ran cold.
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].size(), 2u);
  EXPECT_EQ(report.cold_points, 1u);
}

// --- warmup cache ------------------------------------------------------

TEST(WarmupCacheTest, CountsHitsAndMisses) {
  WarmupCache cache;
  const std::vector<std::uint8_t> key{1, 2, 3};
  EXPECT_EQ(cache.find(key), nullptr);
  const auto stored = cache.insert(key, {9, 9});
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(cache.find(key), stored);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(WarmupCacheTest, SweepReusesCachedWarmupsAcrossCalls) {
  std::vector<SimConfig> configs(3, small_cfg(RouterDesign::FlitBless));
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].measure_seed = 5 + i;
  }
  WarmupCache cache;
  WarmSweepReport first, second;
  const auto r1 = run_warm_sweep(configs, first, 1, &cache);
  const auto r2 = run_warm_sweep(configs, second, 1, &cache);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.cache_misses, 1u);
  EXPECT_EQ(second.cache_hits, 1u);
  EXPECT_EQ(second.cache_misses, 0u);
  // Cached warmups change where the warmup ran, never the results.
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(stats_bytes(r1[i]), stats_bytes(r2[i]));
  }
}

// --- warmup signature --------------------------------------------------

TEST(WarmupSignatureTest, NeutralizesMeasureOnlyFields) {
  const SimConfig base = small_cfg(RouterDesign::DXbar);
  SimConfig seeded = base;
  seeded.measure_seed = 99;
  SimConfig drained = base;
  drained.drain_cycles = 123;
  EXPECT_EQ(warmup_signature(base), warmup_signature(seeded));
  EXPECT_EQ(warmup_signature(base), warmup_signature(drained));

  SimConfig other_design = base;
  other_design.design = RouterDesign::Scarab;
  EXPECT_NE(warmup_signature(base), warmup_signature(other_design));
}

TEST(WarmupSignatureTest, OfferedLoadNeutralizedOnlyUnderPinnedWarmup) {
  SimConfig base = small_cfg(RouterDesign::DXbar);
  SimConfig hotter = base;
  hotter.offered_load = 0.35;
  // Unpinned warmup injects at offered_load: different loads mean
  // different warmups, so the signatures must differ.
  EXPECT_NE(warmup_signature(base), warmup_signature(hotter));
  // A pinned warmup_load makes the warmup load-independent.
  base.warmup_load = 0.2;
  hotter.warmup_load = 0.2;
  EXPECT_EQ(warmup_signature(base), warmup_signature(hotter));
}

}  // namespace
}  // namespace dxbar
