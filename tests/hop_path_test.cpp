// The per-hop data path: the 32-byte Flit and the bounds that keep its
// narrow fields exact, the two-slot Channel, port-mask route sets and
// the inline deflection ranking.
//
// Two oracles keep the previous implementations as references: a copy
// of the three-register Channel (staged / in flight / arrived, each a
// std::optional<Flit>) that the two-slot link must match observable for
// observable and byte for byte, and the stable insertion sort the
// deflection ranking is defined by.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "routing/deflect.hpp"
#include "routing/route.hpp"
#include "sim/network.hpp"
#include "snapshot/serialize.hpp"
#include "topology/channel.hpp"
#include "traffic/trace_io.hpp"

namespace dxbar {
namespace {

// ---- reference: the three-register channel --------------------------

/// The Channel as it was before the two-slot layout, minus the
/// active-list plumbing: three optional registers shifted by copy.
class LegacyChannel {
 public:
  explicit LegacyChannel(int credits)
      : credits_(credits), limited_(credits != kUnlimitedCredits) {}
  LegacyChannel(int num_vcs, int per_vc_credits)
      : credits_(num_vcs * per_vc_credits),
        limited_(true),
        vc_credits_(static_cast<std::size_t>(num_vcs), per_vc_credits),
        vc_pending_(static_cast<std::size_t>(num_vcs), 0) {}

  bool can_send_vc(int vc) const {
    if (staged_.has_value() || stop_) return false;
    return vc_credits_[static_cast<std::size_t>(vc)] > 0;
  }
  void send_vc(const Flit& f, int vc) {
    --vc_credits_[static_cast<std::size_t>(vc)];
    --credits_;
    staged_ = f;
    staged_->vc = static_cast<std::uint8_t>(vc);
    ++total_sends_;
  }
  void return_credit_vc(int vc) {
    ++vc_pending_[static_cast<std::size_t>(vc)];
    ++pending_credits_;
  }
  bool can_send() const {
    if (staged_.has_value() || stop_) return false;
    return !limited_ || credits_ > 0;
  }
  bool can_send_ignoring_stop() const {
    if (staged_.has_value()) return false;
    return !limited_ || credits_ > 0;
  }
  void send(const Flit& f) {
    if (limited_) --credits_;
    staged_ = f;
    ++total_sends_;
  }
  void bump_staged_hops() { ++staged_->hops; }
  std::uint64_t total_sends() const { return total_sends_; }
  int credits() const { return credits_; }
  std::optional<Flit> take_arrival() {
    auto out = arrived_;
    arrived_.reset();
    return out;
  }
  bool has_arrival() const { return arrived_.has_value(); }
  void return_credit() {
    if (limited_) ++pending_credits_;
  }
  void set_stop(bool stop) { stop_pending_ = stop; }
  void advance() {
    arrived_ = in_flight_;
    in_flight_ = staged_;
    staged_.reset();
    credits_ += pending_credits_;
    pending_credits_ = 0;
    for (std::size_t v = 0; v < vc_credits_.size(); ++v) {
      vc_credits_[v] += vc_pending_[v];
      vc_pending_[v] = 0;
    }
    stop_ = stop_pending_;
  }
  int occupancy() const {
    return (staged_ ? 1 : 0) + (in_flight_ ? 1 : 0) + (arrived_ ? 1 : 0);
  }
  bool quiescent() const {
    return !staged_ && !in_flight_ && !arrived_ && pending_credits_ == 0 &&
           stop_ == stop_pending_;
  }
  void save(SnapshotWriter& w) const {
    w.i32(credits_);
    w.i32(pending_credits_);
    w.u64(vc_credits_.size());
    for (int c : vc_credits_) w.i32(c);
    for (int c : vc_pending_) w.i32(c);
    w.u64(total_sends_);
    w.boolean(stop_);
    w.boolean(stop_pending_);
    save_optional_flit(w, staged_);
    save_optional_flit(w, in_flight_);
    save_optional_flit(w, arrived_);
  }

 private:
  int credits_;
  bool limited_;
  int pending_credits_ = 0;
  std::vector<int> vc_credits_;
  std::vector<int> vc_pending_;
  std::uint64_t total_sends_ = 0;
  bool stop_ = false;
  bool stop_pending_ = false;
  std::optional<Flit> staged_;
  std::optional<Flit> in_flight_;
  std::optional<Flit> arrived_;
};

template <typename C>
std::vector<std::uint8_t> channel_bytes(const C& ch) {
  SnapshotWriter w;
  ch.save(w);
  return w.take();
}

bool same_flit(const std::optional<Flit>& a, const std::optional<Flit>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  SnapshotWriter wa;
  SnapshotWriter wb;
  save_flit(wa, *a);
  save_flit(wb, *b);
  return wa.data() == wb.data();
}

/// Drives a Channel and a LegacyChannel through the same random op
/// sequence, in the order the network's cycle protocol allows (advance,
/// then the arrival is taken before any send), and compares every
/// observable and the saved bytes after each operation.
void run_oracle(Channel& ch, LegacyChannel& ref, int num_vcs,
                std::uint64_t seed) {
  Rng rng(seed);
  PacketId next = 1;
  const auto expect_same = [&](int cycle, const char* op) {
    SCOPED_TRACE(std::string(op) + " at cycle " + std::to_string(cycle));
    ASSERT_EQ(ch.can_send(), ref.can_send());
    ASSERT_EQ(ch.can_send_ignoring_stop(), ref.can_send_ignoring_stop());
    ASSERT_EQ(ch.credits(), ref.credits());
    ASSERT_EQ(ch.occupancy(), ref.occupancy());
    ASSERT_EQ(ch.has_arrival(), ref.has_arrival());
    ASSERT_EQ(ch.quiescent(), ref.quiescent());
    ASSERT_EQ(ch.total_sends(), ref.total_sends());
    for (int v = 0; v < num_vcs; ++v) {
      ASSERT_EQ(ch.can_send_vc(v), ref.can_send_vc(v)) << "vc " << v;
    }
    ASSERT_EQ(channel_bytes(ch), channel_bytes(ref));
  };
  const auto make_flit = [&] {
    Flit f;
    f.packet = next++;
    f.seq = static_cast<std::uint8_t>(rng.below(5));
    f.packet_len = 5;
    f.src = static_cast<NodeId>(rng.below(64));
    f.dst = static_cast<NodeId>(rng.below(64));
    f.born_at = static_cast<FlitCycle>(rng.below(1000));
    f.injected_at = rng.bernoulli(0.1) ? kNotInjected : f.born_at + 1;
    f.hops = static_cast<std::uint16_t>(rng.below(20));
    return f;
  };

  for (int cycle = 0; cycle < 3000; ++cycle) {
    ch.advance();
    ref.advance();
    expect_same(cycle, "advance");
    // Receiver-side effects may come before or after the arrival is
    // taken; sender-side sends only after it.
    const auto receiver_ops = [&] {
      if (rng.bernoulli(0.3)) {
        if (num_vcs > 0) {
          const int v =
              static_cast<int>(rng.below(static_cast<std::uint32_t>(num_vcs)));
          ch.return_credit_vc(v);
          ref.return_credit_vc(v);
        } else {
          ch.return_credit();
          ref.return_credit();
        }
        expect_same(cycle, "return_credit");
      }
      if (rng.bernoulli(0.1)) {
        const bool stop = rng.bernoulli(0.5);
        ch.set_stop(stop);
        ref.set_stop(stop);
        expect_same(cycle, "set_stop");
      }
    };
    receiver_ops();
    const auto got = ch.take_arrival();
    const auto want = ref.take_arrival();
    ASSERT_TRUE(same_flit(got, want)) << "take_arrival at cycle " << cycle;
    expect_same(cycle, "take_arrival");
    receiver_ops();

    if (!rng.bernoulli(0.7)) continue;
    const Flit f = make_flit();
    if (num_vcs > 0) {
      const int v =
          static_cast<int>(rng.below(static_cast<std::uint32_t>(num_vcs)));
      if (!ch.can_send_vc(v)) continue;
      ch.send_vc(f, v);
      ref.send_vc(f, v);
    } else {
      // Sometimes override stop, as the liveness valves do.
      const bool ignore_stop = rng.bernoulli(0.2);
      if (!(ignore_stop ? ch.can_send_ignoring_stop() : ch.can_send())) {
        continue;
      }
      ch.send(f);
      ref.send(f);
    }
    expect_same(cycle, "send");
    if (rng.bernoulli(0.5)) {
      ch.bump_staged_hops();
      ref.bump_staged_hops();
      expect_same(cycle, "bump_staged_hops");
    }
  }
}

TEST(ChannelOracle, MatchesTheThreeRegisterChannel) {
  for (int credits : {kUnlimitedCredits, 1, 2, 4}) {
    SCOPED_TRACE("credits " + std::to_string(credits));
    Channel ch(credits);
    LegacyChannel ref(credits);
    run_oracle(ch, ref, 0, 100 + static_cast<std::uint64_t>(credits + 1));
  }
  for (int per_vc : {1, 2}) {
    SCOPED_TRACE("2 VCs x " + std::to_string(per_vc));
    Channel ch(2, per_vc);
    LegacyChannel ref(2, per_vc);
    run_oracle(ch, ref, 2, 200 + static_cast<std::uint64_t>(per_vc));
  }
}

TEST(ChannelOracle, LoadRestoresWhatTheOptionalLayoutDescribes) {
  // Save a legacy channel mid-pipeline, load it into a two-slot one, and
  // both must save the same bytes and move the same flits afterwards.
  LegacyChannel ref(3);
  ref.send(Flit{.packet = 1});
  ref.advance();
  ref.send(Flit{.packet = 2});
  ref.advance();
  // in flight: 2, arrived: 1
  Channel ch(3);
  {
    const auto bytes = channel_bytes(ref);
    SnapshotReader r(bytes);
    ch.load(r);
  }
  EXPECT_EQ(channel_bytes(ch), channel_bytes(ref));
  EXPECT_TRUE(same_flit(ch.take_arrival(), ref.take_arrival()));
  ch.send(Flit{.packet = 3});
  ref.send(Flit{.packet = 3});
  EXPECT_EQ(channel_bytes(ch), channel_bytes(ref));
  ch.advance();
  ref.advance();
  EXPECT_EQ(channel_bytes(ch), channel_bytes(ref));
  EXPECT_TRUE(same_flit(ch.take_arrival(), ref.take_arrival()));
}

TEST(ChannelOracle, StagedFlitAndArrivalTogetherAreACorruptStream) {
  // The optional layout can describe a staged flit next to an untaken
  // arrival; no step boundary produces one, and the two share a slot.
  LegacyChannel ref(kUnlimitedCredits);
  ref.send(Flit{.packet = 1});
  ref.advance();
  ref.advance();  // arrived: 1
  ref.send(Flit{.packet = 2});  // staged: 2 beside the arrival
  const auto bytes = channel_bytes(ref);
  Channel ch(kUnlimitedCredits);
  SnapshotReader r(bytes);
  EXPECT_THROW(ch.load(r), SnapshotError);
}

// ---- route sets as port masks ---------------------------------------

TEST(RouteSetMask, KeepsOrderAndAnswersContainsFromTheMask) {
  RouteSet r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.mask(), 0u);
  r.push_back(Direction::North);
  r.push_back(Direction::West);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], Direction::North);
  EXPECT_EQ(r[1], Direction::West);
  EXPECT_EQ(r.mask(), (1u << port_index(Direction::North)) |
                          (1u << port_index(Direction::West)));
  for (Direction d : kAllPorts) {
    EXPECT_EQ(r.contains(d), d == Direction::North || d == Direction::West);
  }
  std::vector<Direction> walked(r.begin(), r.end());
  EXPECT_EQ(walked, (std::vector<Direction>{Direction::North,
                                            Direction::West}));
  r.push_back(Direction::Local);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.contains(Direction::Local));
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.mask(), 0u);
}

// ---- reference: the insertion-sort deflection ranking ---------------

std::array<Direction, kNumLinkDirs> legacy_ranking(int dx, int dy,
                                                   unsigned link_mask,
                                                   std::uint64_t salt) {
  const std::array<int, kNumLinkDirs> progress = {dx, -dx, dy, -dy};
  struct Ranked {
    Direction dir;
    int score;
  };
  std::array<Ranked, kNumLinkDirs> ranked{};
  for (int i = 0; i < kNumLinkDirs; ++i) {
    int score = -1000;
    if ((link_mask >> i) & 1u) {
      const int p = progress[static_cast<std::size_t>(i)];
      score = p > 0 ? 100 + p : p < 0 ? -10 : 0;
      score = score * 4 + static_cast<int>((salt >> (i * 2)) & 3);
    }
    int k = i;
    for (; k > 0 && ranked[static_cast<std::size_t>(k - 1)].score < score;
         --k) {
      ranked[static_cast<std::size_t>(k)] =
          ranked[static_cast<std::size_t>(k - 1)];
    }
    ranked[static_cast<std::size_t>(k)] = {
        kLinkDirs[static_cast<std::size_t>(i)], score};
  }
  std::array<Direction, kNumLinkDirs> out{};
  for (int k = 0; k < kNumLinkDirs; ++k) {
    out[static_cast<std::size_t>(k)] = ranked[static_cast<std::size_t>(k)].dir;
  }
  return out;
}

TEST(DeflectionRankingOracle, SortingNetworkMatchesTheStableInsertionSort) {
  // Exhaustive over small offsets, every link mask and every 8-bit salt
  // (the ranking reads salt bits [0, 8) only), then random wide offsets
  // up to the largest mesh the packed coordinates allow.
  for (int dx = -3; dx <= 3; ++dx) {
    for (int dy = -3; dy <= 3; ++dy) {
      for (unsigned mask = 0; mask < 16; ++mask) {
        for (std::uint64_t salt = 0; salt < 256; ++salt) {
          ASSERT_EQ(deflection_ranking(dx, dy, mask, salt),
                    legacy_ranking(dx, dy, mask, salt))
              << dx << "," << dy << " mask " << mask << " salt " << salt;
        }
      }
    }
  }
  Rng rng(2112);
  for (int i = 0; i < 200000; ++i) {
    const int dx = static_cast<int>(rng.below(32767)) - 16383;
    const int dy = static_cast<int>(rng.below(32767)) - 16383;
    const auto mask = static_cast<unsigned>(rng.below(16));
    const std::uint64_t salt = rng();
    ASSERT_EQ(deflection_ranking(dx, dy, mask, salt),
              legacy_ranking(dx, dy, mask, salt))
        << dx << "," << dy << " mask " << mask << " salt " << salt;
  }
}

// ---- Flit bounds ----------------------------------------------------

TEST(FlitBounds, ValidateRejectsPacketsLongerThan255Flits) {
  for (int len : {256, 65537}) {
    SimConfig cfg;
    cfg.packet_length = len;
    EXPECT_FALSE(cfg.validate().empty()) << len;

    SimConfig over;
    const std::string arg = "packet_length=" + std::to_string(len);
    const char* args[] = {arg.c_str()};
    ASSERT_EQ(apply_overrides(over, args), "");
    EXPECT_EQ(over.packet_length, len);
    EXPECT_FALSE(over.validate().empty()) << len;
  }
  SimConfig ok;
  ok.packet_length = 255;
  EXPECT_EQ(ok.validate(), "");
  ok.request_length = 256;
  EXPECT_FALSE(ok.validate().empty());

  // A value the field cannot hold is a bad value, not a wrap back into
  // range: 2^32 + 1 once became a 1-flit packet length.
  SimConfig wrap;
  const char* wide[] = {"packet_length=4294967297"};
  EXPECT_NE(apply_overrides(wrap, wide), "");
  EXPECT_EQ(wrap.packet_length, SimConfig{}.packet_length);
  const char* negative[] = {"warmup=-1"};
  EXPECT_NE(apply_overrides(wrap, negative), "");
  EXPECT_EQ(wrap.warmup_cycles, SimConfig{}.warmup_cycles);
}

TEST(FlitBounds, ValidateRejectsRunsThatReachTheCycleLimit) {
  SimConfig cfg;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = kCycleLimit;
  cfg.drain_cycles = 0;
  EXPECT_EQ(cfg.validate(), "");  // cycles 0 .. 2^32 - 2
  cfg.drain_cycles = 1;
  EXPECT_FALSE(cfg.validate().empty());
  cfg.measure_cycles = std::numeric_limits<Cycle>::max();
  EXPECT_FALSE(cfg.validate().empty());  // the sum would wrap
  cfg.warmup_cycles = Cycle{1} << 31;
  cfg.measure_cycles = Cycle{1} << 31;
  cfg.drain_cycles = 0;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(FlitBounds, TraceLengthAbove255IsMalformed) {
  {
    std::stringstream out;
    StreamingTraceWriter w(out);
    w.append({0, 0, 1, 255});
    try {
      w.append({1, 1, 0, 256});
      FAIL() << "writer accepted length 256";
    } catch (const TraceError& err) {
      EXPECT_EQ(err.kind(), TraceError::Kind::Malformed);
    }
  }

  // A DXTR stream whose second record says 256: header 16 bytes, then
  // 20-byte records with the u32 length at offset 16.
  std::stringstream ss;
  write_trace_binary(ss, std::vector<TraceEntry>{{0, 0, 1, 255},
                                                 {1, 1, 0, 255}});
  std::string bytes = ss.str();
  bytes[16 + 20 + 16] = '\x00';
  bytes[16 + 20 + 17] = '\x01';
  std::stringstream in(bytes);
  try {
    StreamingTraceReader reader(in);
    TraceEntry e;
    while (reader.next(e)) {
    }
    FAIL() << "length 256 accepted";
  } catch (const TraceError& err) {
    EXPECT_EQ(err.kind(), TraceError::Kind::Malformed);
  }

  std::stringstream text("0 0 1 255\n1 1 0 256\n");
  try {
    (void)read_trace(text);
    FAIL() << "length 256 accepted";
  } catch (const TraceError& err) {
    EXPECT_EQ(err.kind(), TraceError::Kind::Malformed);
  }
}

SimConfig tiny_cfg() {
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 100000;
  return cfg;
}

TEST(FlitBounds, InjectRejectsLengthsOutsideOneTo255) {
  Network net(tiny_cfg());
  EXPECT_THROW(net.inject_packet(0, 3, 256, 0), std::invalid_argument);
  EXPECT_THROW(net.inject_packet(0, 3, 0, 0), std::invalid_argument);
  EXPECT_EQ(net.packets_created(), 0u);
}

TEST(FlitBounds, A255FlitPacketIsOnePacket) {
  // The longest packet a Flit can describe reassembles as exactly one
  // packet; before the bounds, a 65537-flit packet wrapped seq and
  // packet_len at u16 and was counted as 65537 delivered packets.
  Network net(tiny_cfg());
  net.inject_packet(0, 3, 255, 0);
  for (int t = 0; t < 5000 && !net.idle(); ++t) net.step();
  ASSERT_TRUE(net.idle());
  EXPECT_EQ(net.flits_delivered(), 255u);
  EXPECT_EQ(net.packets_delivered(), 1u);
}

/// Byte offset of the NETW clock: header (8), section tag and length
/// (12), structural fingerprint (8).
constexpr std::size_t kClockOffset = 28;

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

TEST(FlitBounds, StepThrowsInsteadOfRunningTheCycleLimit) {
  Network net(tiny_cfg());
  std::vector<std::uint8_t> bytes = net.snapshot();
  put_u64(bytes, kClockOffset, kCycleLimit - 1);
  net.restore(bytes);
  ASSERT_EQ(net.now(), kCycleLimit - 1);
  net.step();
  EXPECT_EQ(net.now(), kCycleLimit);
  EXPECT_THROW(net.step(), ClockOverflow);
  EXPECT_EQ(net.now(), kCycleLimit);

  put_u64(bytes, kClockOffset, kCycleLimit + 1);
  EXPECT_THROW(net.restore(bytes), SnapshotError);
}

/// Byte offsets inside one save_flit record.
constexpr std::size_t kFlitSeq = 8;
constexpr std::size_t kFlitInjected = 20;
constexpr std::size_t kFlitBorn = 28;

std::vector<std::uint8_t> flit_record(const Flit& f) {
  SnapshotWriter w;
  save_flit(w, f);
  std::vector<std::uint8_t> bytes = w.take();
  return {bytes.begin() + 8, bytes.end()};  // drop the stream header
}

TEST(FlitBounds, SnapshotFormatKeepsTheWideFields) {
  Flit f;
  f.packet = 77;
  f.born_at = 12;
  f.injected_at = kNotInjected;
  const std::vector<std::uint8_t> rec = flit_record(f);
  ASSERT_EQ(rec.size(), 42u);  // u64 u16 u16 u32 u32 u64 u64 4*u8 u16
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rec[kFlitInjected + i], 0xFF) << "not-injected is ~u64{0}";
  }
}

TEST(FlitBounds, SnapshotValuesAFlitCannotHoldThrow) {
  // A queued flit inside a whole network snapshot, patched in place.
  Network net(tiny_cfg());
  net.inject_packet(0, 3, 1, 5);
  const std::vector<std::uint8_t> clean = net.snapshot();
  Flit queued;
  queued.packet = 1;
  queued.packet_len = 1;
  queued.src = 0;
  queued.dst = 3;
  queued.born_at = 5;
  queued.injected_at = kNotInjected;
  const std::vector<std::uint8_t> rec = flit_record(queued);
  const auto it = std::search(clean.begin(), clean.end(), rec.begin(),
                              rec.end());
  ASSERT_NE(it, clean.end());
  const auto at = static_cast<std::size_t>(it - clean.begin());

  Network target(tiny_cfg());
  target.restore(clean);
  EXPECT_EQ(target.snapshot(), clean);

  std::vector<std::uint8_t> bad = clean;
  put_u64(bad, at + kFlitBorn, std::uint64_t{1} << 32);
  EXPECT_THROW(target.restore(bad), SnapshotError);

  bad = clean;
  bad[at + kFlitSeq] = 0x00;
  bad[at + kFlitSeq + 1] = 0x01;  // seq = 256
  EXPECT_THROW(target.restore(bad), SnapshotError);

  bad = clean;
  put_u64(bad, at + kFlitInjected, kCycleLimit);  // reads as a stamp
  EXPECT_THROW(target.restore(bad), SnapshotError);
}

}  // namespace
}  // namespace dxbar
