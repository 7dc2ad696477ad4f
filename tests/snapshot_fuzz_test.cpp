// Snapshot format robustness: byte-level fuzzing of whole-network
// snapshots, and a fixture written by the simulator before the Flit and
// Channel were repacked, which must restore and re-save byte-identically.
//
// A snapshot read back from disk is untrusted input.  Whatever its bytes,
// Network::restore either succeeds or throws SnapshotError — any other
// exception, a crash, a failed assert or a sanitizer report is a defect.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "snapshot/serialize.hpp"
#include "traffic/traffic_gen.hpp"

namespace dxbar {
namespace {

/// What the CHAN section holds: how many channels have a staged flit
/// and how many a flit on the wire.
struct ChannelCensus {
  int channels = 0;
  int staged = 0;
  int in_flight = 0;
  int arrived = 0;
};

ChannelCensus census(const std::vector<std::uint8_t>& bytes) {
  SnapshotReader r(bytes);
  std::vector<std::uint8_t> skip;
  for (std::uint32_t tag :
       {section_tag("NETW"), section_tag("ENRG"), section_tag("FLTP")}) {
    const std::uint64_t len = r.expect_section(tag);
    skip.resize(static_cast<std::size_t>(len));
    r.bytes(skip.data(), skip.size());
  }
  (void)r.expect_section(section_tag("CHAN"));
  ChannelCensus c;
  c.channels = static_cast<int>(r.count());
  for (int i = 0; i < c.channels; ++i) {
    (void)r.i32();
    (void)r.i32();
    const std::uint64_t nvc = r.count(4);
    for (std::uint64_t v = 0; v < 2 * nvc; ++v) (void)r.i32();
    (void)r.u64();
    (void)r.boolean();
    (void)r.boolean();
    c.staged += load_optional_flit(r).has_value() ? 1 : 0;
    c.in_flight += load_optional_flit(r).has_value() ? 1 : 0;
    c.arrived += load_optional_flit(r).has_value() ? 1 : 0;
  }
  return c;
}

std::vector<std::uint8_t> read_fixture(const std::string& name) {
  std::ifstream in(std::string(DXBAR_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The configuration the fixtures were recorded with: a 4x4 mesh at
/// offered load 0.3, snapshotted after 60 cycles of UR traffic.
SimConfig fixture_cfg(RouterDesign design) {
  SimConfig cfg;
  cfg.design = design;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.offered_load = 0.3;
  cfg.warmup_cycles = 20;
  cfg.measure_cycles = 1000;
  cfg.seed = 11;
  return cfg;
}

constexpr Cycle kFixtureCycle = 60;

TEST(SnapshotFixture, EarlierFormatRestoresAndResavesByteIdentically) {
  for (auto [design, file] :
       {std::pair{RouterDesign::DXbar, "parent_snapshot_dxbar.bin"},
        std::pair{RouterDesign::BufferedVC,
                  "parent_snapshot_buffered_vc.bin"}}) {
    SCOPED_TRACE(file);
    const std::vector<std::uint8_t> fixture = read_fixture(file);
    ASSERT_FALSE(fixture.empty());
    // The fixture exercises the link registers that changed layout.
    const ChannelCensus c = census(fixture);
    EXPECT_GT(c.staged, 0);
    EXPECT_GT(c.in_flight, 0);
    EXPECT_EQ(c.arrived, 0);  // a step boundary holds no arrival

    const SimConfig cfg = fixture_cfg(design);
    Network restored(cfg);
    restored.restore(fixture);
    EXPECT_EQ(restored.now(), kFixtureCycle);
    EXPECT_EQ(restored.snapshot(), fixture);

    // The same run, simulated by this build, writes the same bytes.
    Network fresh(cfg);
    SyntheticWorkload w(cfg, fresh.mesh());
    fresh.set_workload(&w);
    for (Cycle t = 0; t < kFixtureCycle; ++t) fresh.step();
    EXPECT_EQ(fresh.snapshot(), fixture);
  }
}

/// Restores `bytes`; anything but success or SnapshotError fails.
void expect_clean_restore(Network& target,
                          const std::vector<std::uint8_t>& bytes,
                          const std::string& what) {
  try {
    target.restore(bytes);
  } catch (const SnapshotError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << e.what();
  }
}

/// A mid-run snapshot of `cfg` with flits staged and in flight on the
/// links and queued at the sources; for SCARAB, taken right after a
/// cycle that dropped a flit, so its NACK is still pending.
std::vector<std::uint8_t> mid_run_snapshot(const SimConfig& cfg) {
  Network net(cfg);
  SyntheticWorkload w(cfg, net.mesh());
  net.set_workload(&w);
  for (Cycle t = 0; t < 40; ++t) net.step();
  if (cfg.design == RouterDesign::Scarab) {
    for (int t = 0; t < 5000; ++t) {
      const std::uint64_t dropped = net.flits_dropped();
      net.step();
      if (net.flits_dropped() != dropped) break;
    }
    EXPECT_GT(net.flits_dropped(), 0u);
  }
  std::vector<std::uint8_t> bytes = net.snapshot();
  const ChannelCensus c = census(bytes);
  EXPECT_GT(c.staged, 0);
  EXPECT_GT(c.in_flight, 0);
  EXPECT_GT(net.flits_created(), net.flits_delivered());
  return bytes;
}

TEST(SnapshotFuzz, FlippedTruncatedOrExtendedBytesRestoreOrThrowSnapshotError) {
  for (RouterDesign design : {RouterDesign::DXbar, RouterDesign::BufferedVC,
                              RouterDesign::Scarab}) {
    SCOPED_TRACE(to_string(design));
    SimConfig cfg = fixture_cfg(design);
    if (design == RouterDesign::Scarab) cfg.offered_load = 0.6;
    const std::vector<std::uint8_t> golden = mid_run_snapshot(cfg);
    Network target(cfg);
    target.restore(golden);
    ASSERT_EQ(target.snapshot(), golden);

    for (std::size_t i = 0; i < golden.size(); ++i) {
      for (std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80},
                                std::uint8_t{0xFF}}) {
        std::vector<std::uint8_t> bytes = golden;
        bytes[i] ^= mask;
        expect_clean_restore(target, bytes,
                             "flip byte " + std::to_string(i) + " mask " +
                                 std::to_string(mask));
      }
    }
    for (std::size_t len = 0; len < golden.size(); ++len) {
      expect_clean_restore(
          target,
          std::vector<std::uint8_t>(
              golden.begin(), golden.begin() + static_cast<std::ptrdiff_t>(len)),
          "truncate to " + std::to_string(len));
    }
    for (std::size_t extra : {1u, 8u, 64u}) {
      for (std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
        std::vector<std::uint8_t> bytes = golden;
        bytes.insert(bytes.end(), extra, fill);
        expect_clean_restore(target, bytes,
                             "extend by " + std::to_string(extra));
      }
    }
    // After all that, the intact stream still restores exactly.
    target.restore(golden);
    EXPECT_EQ(target.snapshot(), golden);
  }
}

}  // namespace
}  // namespace dxbar
