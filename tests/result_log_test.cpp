// ResultLog: the hash-framed record log behind every resumable run.
//
// The contract under test: a reopened log returns exactly the records
// appended under its fingerprint; a torn or corrupted frame ends the
// readable prefix, its point and every later one re-run, and the file
// is truncated there so later appends are read back; no byte pattern
// makes opening throw or return a wrong record.  Concurrent appends
// (closed-loop jobs land from a parallel_for) all persist.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sim/result_log.hpp"
#include "sim/sim_runner.hpp"

namespace dxbar {
namespace {

namespace fs = std::filesystem;

/// Fresh results.bin path in its own scratch directory.
std::string scratch_log(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("result_log_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return (dir / "results.bin").string();
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

// --- closed-loop records: point-level resume -----------------------------

ClosedLoopResult sample_result(std::uint64_t i) {
  ClosedLoopResult r;
  r.completion_cycles = 1000 + i;
  r.finished = true;
  r.packets = 50 * (i + 1);
  r.energy_nj = 1.25 * static_cast<double>(i);
  r.energy_per_packet_nj = 0.5 + static_cast<double>(i);
  r.avg_packet_latency = 20.0 + static_cast<double>(i);
  return r;
}

void expect_result(const ClosedLoopResult& a, const ClosedLoopResult& b) {
  EXPECT_EQ(a.completion_cycles, b.completion_cycles);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.energy_nj, b.energy_nj);
  EXPECT_EQ(a.energy_per_packet_nj, b.energy_per_packet_nj);
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
}

void record(ResultLog& log, std::size_t point, const ClosedLoopResult& r) {
  SnapshotWriter w;
  save_closed_loop_result(w, r);
  log.append(point, w.data());
}

std::vector<std::optional<ClosedLoopResult>> results(const ResultLog& log) {
  return log.decode(&load_closed_loop_result);
}

TEST(ClosedLoopResultLog, ResumeSkipsCompletedPoints) {
  const std::string path = scratch_log("resume");
  constexpr std::uint64_t kFp = 0xfeedface;

  {
    ResultLog c(path, kFp, 4);
    EXPECT_EQ(c.completed(), 0u);
    record(c, 0, sample_result(0));
    record(c, 2, sample_result(2));
    EXPECT_EQ(c.completed(), 2u);
  }
  {
    ResultLog c(path, kFp, 4);
    EXPECT_EQ(c.completed(), 2u);
    const auto r = results(c);
    ASSERT_TRUE(r[0].has_value());
    EXPECT_FALSE(r[1].has_value());
    ASSERT_TRUE(r[2].has_value());
    expect_result(*r[0], sample_result(0));
    expect_result(*r[2], sample_result(2));
    record(c, 1, sample_result(1));
    record(c, 3, sample_result(3));
  }
  ResultLog c(path, kFp, 4);
  EXPECT_EQ(c.completed(), 4u);
  const auto r = results(c);
  for (std::uint64_t i = 0; i < 4; ++i) {
    expect_result(*r[i], sample_result(i));
  }
}

TEST(ClosedLoopResultLog, ForeignFingerprintFramesAreIgnored) {
  const std::string path = scratch_log("foreign");

  {
    ResultLog quick(path, /*fingerprint=*/111, 3);
    record(quick, 0, sample_result(0));
    record(quick, 1, sample_result(1));
  }
  // A full run sharing the file: the quick run's frames must not leak
  // in as completed points.
  {
    ResultLog full(path, /*fingerprint=*/222, 3);
    EXPECT_EQ(full.completed(), 0u);
    record(full, 2, sample_result(7));
  }
  // And back: each fingerprint still sees exactly its own frames.
  ResultLog quick(path, 111, 3);
  EXPECT_EQ(quick.completed(), 2u);
  ResultLog full(path, 222, 3);
  ASSERT_EQ(full.completed(), 1u);
  expect_result(*results(full)[2], sample_result(7));
}

TEST(ClosedLoopResultLog, TornTailIsDroppedNotFatal) {
  const std::string path = scratch_log("torn");
  constexpr std::uint64_t kFp = 42;

  {
    ResultLog c(path, kFp, 2);
    record(c, 0, sample_result(0));
  }
  {
    // Simulate a crash mid-append: garbage after the last valid frame.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("\x13\x37\x13", 3);
  }
  ResultLog c(path, kFp, 2);
  EXPECT_EQ(c.completed(), 1u);
  expect_result(*results(c)[0], sample_result(0));
}

TEST(ClosedLoopResultLog, ConcurrentAppendsAllLoadBitExactly) {
  const std::string path = scratch_log("concurrent");
  constexpr std::uint64_t kFp = 0xc0ffee;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 16;
  constexpr std::size_t kPoints = kThreads * kPerThread;

  {
    ResultLog log(path, kFp, kPoints);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&log, t] {
        for (std::size_t j = 0; j < kPerThread; ++j) {
          const std::size_t point = t * kPerThread + j;
          record(log, point, sample_result(point));
        }
      });
    }
    // A reader polls while the appends land, as a progress display
    // would; the log must guard its in-memory view too.
    std::size_t seen = 0;
    std::thread reader([&log, &seen] {
      while (seen < kPoints) seen = log.completed();
    });
    for (std::thread& th : threads) th.join();
    reader.join();
    EXPECT_EQ(seen, kPoints);
    EXPECT_EQ(log.completed(), kPoints);
  }

  ResultLog reopened(path, kFp, kPoints);
  ASSERT_EQ(reopened.completed(), kPoints);
  const auto r = results(reopened);
  for (std::size_t i = 0; i < kPoints; ++i) {
    ASSERT_TRUE(r[i].has_value()) << "point " << i;
    SnapshotWriter got, want;
    save_closed_loop_result(got, *r[i]);
    save_closed_loop_result(want, sample_result(i));
    EXPECT_EQ(got.data(), want.data()) << "point " << i;
  }
}

// --- byte fuzz of the one reader ----------------------------------------

constexpr std::uint64_t kFpA = 0xA11CE;
constexpr std::uint64_t kFpB = 0xB0B;
constexpr std::size_t kFuzzPoints = 3;

std::uint64_t load_u64(SnapshotReader& r) { return r.u64(); }

void append_u64(ResultLog& log, std::size_t point, std::uint64_t v) {
  SnapshotWriter w;
  w.u64(v);
  log.append(point, w.data());
}

/// One golden frame: which fingerprint wrote it, for which point, with
/// which value, and the byte offset where the frame ends.
struct GoldenFrame {
  std::uint64_t fp;
  std::size_t point;
  std::uint64_t value;
  std::size_t end = 0;
};

/// Expected view of a log opened with `fp` when only frames ending at or
/// before `prefix` are readable.
std::vector<std::optional<std::uint64_t>> expected_view(
    const std::vector<GoldenFrame>& frames, std::uint64_t fp,
    std::size_t prefix) {
  std::vector<std::optional<std::uint64_t>> want(kFuzzPoints);
  for (const GoldenFrame& f : frames) {
    if (f.end <= prefix && f.fp == fp) want[f.point] = f.value;
  }
  return want;
}

/// Opens a damaged copy whose readable prefix is `prefix` bytes and
/// checks the loaded view, the truncation, and that an append after
/// the open is read back.
void check_damaged(const std::string& path,
                   const std::vector<std::uint8_t>& bytes,
                   const std::vector<GoldenFrame>& frames, std::size_t prefix,
                   const std::string& what) {
  SCOPED_TRACE(what);
  write_bytes(path, bytes);
  for (std::uint64_t fp : {kFpB, kFpA}) {
    std::optional<ResultLog> log;
    ASSERT_NO_THROW(log.emplace(path, fp, kFuzzPoints));
    EXPECT_EQ(log->decode(&load_u64), expected_view(frames, fp, prefix));
  }
  EXPECT_EQ(fs::file_size(path), prefix);

  std::vector<std::optional<std::uint64_t>> want =
      expected_view(frames, kFpA, prefix);
  {
    ResultLog log(path, kFpA, kFuzzPoints);
    append_u64(log, 1, 0xA99E11DULL);
    want[1] = 0xA99E11DULL;
  }
  ResultLog reopened(path, kFpA, kFuzzPoints);
  EXPECT_EQ(reopened.decode(&load_u64), want);
}

TEST(ResultLog, ByteFuzzNeverThrowsOrReturnsDamagedRecords) {
  const std::string golden_path = scratch_log("fuzz_golden");
  std::vector<GoldenFrame> frames = {
      {kFpA, 0, 0x1111222233334444ULL},
      {kFpB, 1, 0x5555666677778888ULL},
      {kFpA, 2, 0x99990000AAAABBBBULL},
  };
  for (GoldenFrame& f : frames) {
    ResultLog log(golden_path, f.fp, kFuzzPoints);
    append_u64(log, f.point, f.value);
    f.end = static_cast<std::size_t>(fs::file_size(golden_path));
  }
  const std::vector<std::uint8_t> golden = read_file(golden_path);
  ASSERT_EQ(golden.size(), frames.back().end);

  // The intact log: both fingerprints see exactly their own frames.
  check_damaged(golden_path, golden, frames, golden.size(), "intact");

  const std::string path = scratch_log("fuzz");
  // Every single-byte flip: the damaged frame and all later ones are
  // missing; earlier frames load intact.
  for (std::size_t i = 0; i < golden.size(); ++i) {
    std::size_t prefix = 0;
    for (const GoldenFrame& f : frames) {
      if (f.end > i) break;
      prefix = f.end;
    }
    for (std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80},
                              std::uint8_t{0xFF}}) {
      std::vector<std::uint8_t> bytes = golden;
      bytes[i] ^= mask;
      check_damaged(path, bytes, frames, prefix,
                    "flip byte " + std::to_string(i) + " mask " +
                        std::to_string(mask));
    }
  }
  // Every truncation length: only whole frames survive.
  for (std::size_t len = 0; len < golden.size(); ++len) {
    std::size_t prefix = 0;
    for (const GoldenFrame& f : frames) {
      if (f.end <= len) prefix = f.end;
    }
    check_damaged(path,
                  std::vector<std::uint8_t>(
                      golden.begin(),
                      golden.begin() + static_cast<std::ptrdiff_t>(len)),
                  frames, prefix, "truncate to " + std::to_string(len));
  }
}

TEST(ResultLog, HashValidFrameTooShortForItsHeaderEndsThePrefix) {
  const std::string path = scratch_log("short_frame");
  {
    ResultLog log(path, kFpA, kFuzzPoints);
    append_u64(log, 0, 42);
  }
  const auto good_size = static_cast<std::size_t>(fs::file_size(path));

  // A frame whose payload is too short to hold the fingerprint and
  // point, yet hashes correctly: framing fails, so the prefix ends.
  std::vector<std::uint8_t> bytes = read_file(path);
  const auto put_le = [&bytes](std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  const std::uint8_t payload[4] = {1, 2, 3, 4};
  put_le(section_tag("RLOG"), 4);
  put_le(sizeof payload, 8);
  bytes.insert(bytes.end(), std::begin(payload), std::end(payload));
  put_le(fnv1a(payload, sizeof payload), 8);
  write_bytes(path, bytes);

  ResultLog log(path, kFpA, kFuzzPoints);
  EXPECT_EQ(log.completed(), 1u);
  EXPECT_EQ(fs::file_size(path), good_size);
}

}  // namespace
}  // namespace dxbar
