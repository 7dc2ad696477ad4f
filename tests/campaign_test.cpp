// Crash-resumable campaign runner tests.
//
// The contract under test: a campaign interrupted at arbitrary points
// (budget pauses model SIGKILL — no extra checkpoint is written) and
// resumed by fresh Campaign instances produces results bit-identical to
// an uninterrupted run, and damaged persistence (torn result tail,
// corrupt or stale checkpoint) degrades to recomputation, never to
// wrong numbers.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/dxbar.hpp"

namespace dxbar {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> stats_bytes(const RunStats& s) {
  SnapshotWriter w;
  save_run_stats(w, s);
  return w.take();
}

std::vector<SimConfig> tiny_points() {
  std::vector<SimConfig> points;
  for (RouterDesign d : {RouterDesign::DXbar, RouterDesign::FlitBless}) {
    for (double load : {0.10, 0.25}) {
      SimConfig cfg;
      cfg.mesh_width = 4;
      cfg.mesh_height = 4;
      cfg.design = d;
      cfg.pattern = TrafficPattern::UniformRandom;
      cfg.offered_load = load;
      cfg.warmup_cycles = 150;
      cfg.measure_cycles = 200;
      points.push_back(cfg);
    }
  }
  return points;
}

/// Fresh scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("campaign_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void expect_same_results(const Campaign& a, const Campaign& b) {
  const auto& ra = a.results();
  const auto& rb = b.results();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_TRUE(ra[i].has_value()) << "point " << i;
    ASSERT_TRUE(rb[i].has_value()) << "point " << i;
    EXPECT_EQ(stats_bytes(*ra[i]), stats_bytes(*rb[i])) << "point " << i;
  }
}

TEST(Campaign, UninterruptedRunCompletesAndMatchesOpenLoop) {
  const auto points = tiny_points();
  Campaign campaign(points, scratch_dir("straight"), 100);
  const CampaignStatus st = campaign.run();
  EXPECT_TRUE(st.finished);
  EXPECT_EQ(st.completed, points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(campaign.results()[i].has_value());
    EXPECT_EQ(stats_bytes(*campaign.results()[i]),
              stats_bytes(run_open_loop(points[i])))
        << "point " << i;
  }
}

TEST(Campaign, BudgetSlicedCrashResumeIsBitExact) {
  const auto points = tiny_points();

  const std::string ref_dir = scratch_dir("crash_ref");
  Campaign reference(points, ref_dir, 100);
  ASSERT_TRUE(reference.run().finished);

  // Simulate a batch queue that SIGKILLs the job every ~300 simulated
  // cycles: each slice is a FRESH Campaign instance (no carried state),
  // and budget pauses deliberately skip the courtesy checkpoint, so
  // every resume goes through the real crash-recovery path.
  const std::string dir = scratch_dir("crash_sliced");
  bool finished = false;
  int slices = 0;
  while (!finished) {
    ASSERT_LT(++slices, 200) << "campaign failed to make progress";
    Campaign slice(points, dir, 100);
    finished = slice.run(300).finished;
  }
  EXPECT_GT(slices, 2) << "budget too generous to exercise resume";

  Campaign done(points, dir, 100);
  EXPECT_TRUE(done.status().finished);
  expect_same_results(done, reference);

  // The persisted artifacts themselves must agree byte-for-byte.
  std::ifstream fa(fs::path(ref_dir) / "results.bin", std::ios::binary);
  std::ifstream fb(fs::path(dir) / "results.bin", std::ios::binary);
  const std::string ba((std::istreambuf_iterator<char>(fa)), {});
  const std::string bb((std::istreambuf_iterator<char>(fb)), {});
  EXPECT_EQ(ba, bb);
}

TEST(Campaign, SameInstanceResumesAfterBudgetPause) {
  const auto points = tiny_points();
  Campaign reference(points, scratch_dir("same_ref"), 100);
  ASSERT_TRUE(reference.run().finished);

  Campaign campaign(points, scratch_dir("same_inst"), 100);
  int calls = 0;
  while (!campaign.run(400).finished) {
    ASSERT_LT(++calls, 200);
  }
  expect_same_results(campaign, reference);
}

TEST(Campaign, FreshInstanceSeesPersistedCompletion) {
  const auto points = tiny_points();
  const std::string dir = scratch_dir("reopen");
  {
    Campaign campaign(points, dir, 100);
    ASSERT_TRUE(campaign.run().finished);
  }
  Campaign reopened(points, dir, 100);
  // status() alone must report completion — no simulation needed.
  EXPECT_TRUE(reopened.status().finished);
  EXPECT_EQ(reopened.status().completed, points.size());
  for (const auto& r : reopened.results()) EXPECT_TRUE(r.has_value());
}

TEST(Campaign, TornResultTailIsDroppedAndRecomputed) {
  const auto points = tiny_points();
  const std::string dir = scratch_dir("torn");
  {
    Campaign campaign(points, dir, 100);
    ASSERT_TRUE(campaign.run().finished);
  }

  // A crash mid-append leaves a half-written final frame: model it by
  // chopping a few bytes off the end of results.bin.
  const fs::path results = fs::path(dir) / "results.bin";
  const auto size = fs::file_size(results);
  fs::resize_file(results, size - 5);

  Campaign damaged(points, dir, 100);
  const CampaignStatus before = damaged.status();
  EXPECT_FALSE(before.finished);
  EXPECT_EQ(before.completed, points.size() - 1);  // only the tail is lost

  ASSERT_TRUE(damaged.run().finished);
  Campaign reference(points, scratch_dir("torn_ref"), 100);
  ASSERT_TRUE(reference.run().finished);
  expect_same_results(damaged, reference);
}

TEST(Campaign, TornTailConvergesOnNextOpen) {
  const auto points = tiny_points();
  const std::string dir = scratch_dir("torn_converges");
  {
    Campaign campaign(points, dir, 100);
    ASSERT_TRUE(campaign.run().finished);
  }
  const fs::path results = fs::path(dir) / "results.bin";
  fs::resize_file(results, fs::file_size(results) - 5);
  {
    Campaign damaged(points, dir, 100);
    ASSERT_TRUE(damaged.run().finished);
  }

  // The recomputed point must be readable: a fresh instance reports
  // completion without simulating anything.
  Campaign reopened(points, dir, 100);
  EXPECT_TRUE(reopened.status().finished);
  EXPECT_EQ(reopened.status().completed, points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(reopened.results()[i].has_value()) << "point " << i;
    EXPECT_EQ(stats_bytes(*reopened.results()[i]),
              stats_bytes(run_open_loop(points[i])))
        << "point " << i;
  }
}

TEST(Campaign, DirectoryReusedWithDifferentPointsReruns) {
  const std::string dir = scratch_dir("reused");
  {
    Campaign campaign(tiny_points(), dir, 100);
    ASSERT_TRUE(campaign.run().finished);
  }
  // Same directory, same point count, different seed: the finished
  // results belong to another point list and must not be served.
  auto other_points = tiny_points();
  for (auto& p : other_points) p.seed = 7;
  Campaign other(other_points, dir, 100);
  EXPECT_EQ(other.status().completed, 0u);
  ASSERT_TRUE(other.run().finished);
  for (std::size_t i = 0; i < other_points.size(); ++i) {
    ASSERT_TRUE(other.results()[i].has_value()) << "point " << i;
    EXPECT_EQ(stats_bytes(*other.results()[i]),
              stats_bytes(run_open_loop(other_points[i])))
        << "point " << i;
  }
}

TEST(Campaign, CorruptCheckpointFallsBackToColdStart) {
  const auto points = tiny_points();
  const std::string dir = scratch_dir("corrupt_ckpt");
  {
    Campaign campaign(points, dir, 100);
    campaign.run(300);  // pause mid-point, checkpoint on disk
  }
  const fs::path ckpt = fs::path(dir) / "checkpoint.bin";
  ASSERT_TRUE(fs::exists(ckpt));
  {
    // Scribble over the middle of the checkpoint.
    std::fstream f(ckpt, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(ckpt) / 2));
    const char junk[8] = {0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A};
    f.write(junk, sizeof junk);
  }

  Campaign damaged(points, dir, 100);
  ASSERT_TRUE(damaged.run().finished);
  Campaign reference(points, scratch_dir("corrupt_ref"), 100);
  ASSERT_TRUE(reference.run().finished);
  expect_same_results(damaged, reference);
}

TEST(Campaign, CheckpointFromDifferentCampaignIsIgnored) {
  const auto points = tiny_points();
  const std::string dir = scratch_dir("foreign_ckpt");
  {
    Campaign campaign(points, dir, 100);
    campaign.run(300);  // leaves a checkpoint for THIS point list
  }
  // Re-open the directory with a different point list (different seed →
  // different fingerprint): the stale checkpoint must not be restored.
  auto other_points = tiny_points();
  for (auto& p : other_points) p.seed = 77;
  Campaign other(other_points, dir, 100);
  ASSERT_TRUE(other.run().finished);

  Campaign reference(other_points, scratch_dir("foreign_ref"), 100);
  ASSERT_TRUE(reference.run().finished);
  expect_same_results(other, reference);
}

// The checkpoint's campaign cursor — CAMP section: point u32, stage u8
// (1 once the point has stepped past its measurement window), drain_t
// u64 (drain cycles taken) — sits right after the 8-byte stream header
// and the 12-byte section header.
constexpr std::size_t kCursorPoint = 8 + 12;
constexpr std::size_t kCursorStage = kCursorPoint + 4;
constexpr std::size_t kCursorDrain = kCursorStage + 1;

std::vector<std::uint8_t> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

std::uint64_t cursor_drain(const std::vector<std::uint8_t>& b) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(b[kCursorDrain + i]) << (8 * i);
  }
  return v;
}

/// One saturated point: its drain runs for hundreds of cycles, so a
/// budget pause can land mid-drain with flits still in flight.
std::vector<SimConfig> saturated_point() {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.design = RouterDesign::DXbar;
  cfg.pattern = TrafficPattern::UniformRandom;
  cfg.offered_load = 1.0;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 400;
  cfg.drain_cycles = 5000;
  return {cfg};
}

/// Pauses a campaign over `points` after `budget` cycles (interval 100),
/// lets `patch` rewrite the checkpoint, resumes with a fresh instance
/// and requires the uninterrupted reference results.
template <typename Patch>
void expect_patched_checkpoint_resumes_exactly(
    const std::vector<SimConfig>& points, std::uint64_t budget,
    const std::string& name, Patch patch) {
  const std::string dir = scratch_dir(name);
  {
    Campaign campaign(points, dir, 100);
    ASSERT_FALSE(campaign.run(budget).finished);
  }
  const fs::path ckpt = fs::path(dir) / "checkpoint.bin";
  ASSERT_TRUE(fs::exists(ckpt));
  std::vector<std::uint8_t> bytes = read_bytes(ckpt);
  ASSERT_GT(bytes.size(), kCursorDrain + 8);
  patch(bytes);
  write_bytes(ckpt, bytes);

  Campaign resumed(points, dir, 100);
  ASSERT_TRUE(resumed.run().finished);
  Campaign reference(points, scratch_dir(name + "_ref"), 100);
  ASSERT_TRUE(reference.run().finished);
  expect_same_results(resumed, reference);
}

TEST(Campaign, MidMeasurementCheckpointClaimingDrainRestartsCold) {
  // Paused at cycle 250: the checkpoint is from cycle 200, inside the
  // measurement window (warmup 100 + measure 400).  A stage byte of 1
  // contradicts the restored clock, so the point must restart cold
  // instead of skipping the rest of its measurement.
  expect_patched_checkpoint_resumes_exactly(
      saturated_point(), 250, "stage_lie", [](std::vector<std::uint8_t>& b) {
        ASSERT_EQ(b[kCursorStage], 0u);
        b[kCursorStage] = 1;
      });
}

TEST(Campaign, MidDrainCheckpointClaimingFullDrainRestartsCold) {
  // Paused at cycle 650: the checkpoint is from cycle 600, 100 cycles
  // into the drain of a saturated network.  A drain_t equal to the
  // drain cap contradicts the restored clock, so the point must restart
  // cold instead of ending the drain with flits still in flight.
  const std::vector<SimConfig> points = saturated_point();
  expect_patched_checkpoint_resumes_exactly(
      points, 650, "drain_lie", [&](std::vector<std::uint8_t>& b) {
        ASSERT_EQ(b[kCursorStage], 1u);
        ASSERT_EQ(cursor_drain(b), 100u);
        const Cycle cap = points[0].drain_cycles;
        for (std::size_t i = 0; i < 8; ++i) {
          b[kCursorDrain + i] = static_cast<std::uint8_t>(cap >> (8 * i));
        }
      });
}

}  // namespace
}  // namespace dxbar
