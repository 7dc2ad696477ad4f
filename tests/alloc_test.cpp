// Unit and property tests for alloc/: arbiters, separable allocator,
// unified dual-input allocator, fairness counter.
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

#include "alloc/arbiter.hpp"
#include "alloc/fairness.hpp"
#include "alloc/separable_allocator.hpp"
#include "alloc/unified_allocator.hpp"
#include "common/rng.hpp"
#include "common/small_vec.hpp"

namespace dxbar {
namespace {

TEST(RoundRobin, GrantsRotate) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.grant(0b1111), 0);
  EXPECT_EQ(arb.grant(0b1111), 1);
  EXPECT_EQ(arb.grant(0b1111), 2);
  EXPECT_EQ(arb.grant(0b1111), 3);
  EXPECT_EQ(arb.grant(0b1111), 0);
}

TEST(RoundRobin, SkipsNonRequesters) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.grant(0b0100), 2);
  EXPECT_EQ(arb.grant(0b0011), 0);  // priority pointer at 3, wraps to 0
  EXPECT_EQ(arb.grant(0b0010), 1);
}

TEST(RoundRobin, NoRequests) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.grant(0), -1);
  EXPECT_EQ(arb.pick(0), -1);
}

TEST(RoundRobin, FairnessOverManyCycles) {
  RoundRobinArbiter arb(3);
  int wins[3] = {0, 0, 0};
  for (int i = 0; i < 300; ++i) ++wins[arb.grant(0b111)];
  EXPECT_EQ(wins[0], 100);
  EXPECT_EQ(wins[1], 100);
  EXPECT_EQ(wins[2], 100);
}

TEST(RoundRobin, SnapshotRejectsPointerOutOfRange) {
  // pick() shifts by the pointer, so a restored pointer must lie in
  // [0, n); a corrupt stream is refused instead.
  for (const std::int32_t bad : {-1, 4, 32}) {
    SnapshotWriter w;
    w.i32(bad);
    SnapshotReader r(w.data());
    RoundRobinArbiter arb(4);
    EXPECT_THROW(arb.load(r), SnapshotError) << bad;
  }
  SnapshotWriter w;
  w.i32(3);
  SnapshotReader r(w.data());
  RoundRobinArbiter arb(4);
  arb.load(r);
  EXPECT_EQ(arb.grant(0b1001), 3);
  EXPECT_EQ(arb.priority_pointer(), 0);
}

TEST(PickOldest, FindsOldestAndHandlesNulls) {
  Flit a{.packet = 1, .born_at = 30};
  Flit b{.packet = 2, .born_at = 10};
  Flit c{.packet = 3, .born_at = 20};
  const Flit* cands[4] = {&a, nullptr, &b, &c};
  EXPECT_EQ(pick_oldest(cands), 2);

  const Flit* none[2] = {nullptr, nullptr};
  EXPECT_EQ(pick_oldest(none), -1);
}

// ---- separable allocator -----------------------------------------------

bool grants_are_legal(std::span<const std::uint32_t> req,
                      const std::array<int, kNumPorts>& grant,
                      int num_outputs) {
  std::vector<int> out_owner(static_cast<std::size_t>(num_outputs), -1);
  for (std::size_t i = 0; i < grant.size(); ++i) {
    const int o = grant[i];
    if (o < 0) continue;
    if (i >= req.size()) return false;                  // grant to no input
    if (!(req[i] & (1u << o))) return false;            // unrequested grant
    if (out_owner[static_cast<std::size_t>(o)] >= 0) return false;  // dup
    out_owner[static_cast<std::size_t>(o)] = static_cast<int>(i);
  }
  return true;
}

TEST(Separable, SingleRequestGranted) {
  SeparableAllocator alloc(5, 5);
  std::array<std::uint32_t, 5> req{};
  req[2] = 0b00010;  // input 2 wants output 1
  const auto g = alloc.allocate(req);
  EXPECT_EQ(g[2], 1);
  EXPECT_TRUE(grants_are_legal(req, g, 5));
}

TEST(Separable, ConflictGrantsExactlyOne) {
  SeparableAllocator alloc(5, 5);
  std::array<std::uint32_t, 5> req{};
  req[0] = req[1] = req[2] = 0b00001;  // all want output 0
  const auto g = alloc.allocate(req);
  int winners = 0;
  for (int i = 0; i < 5; ++i) {
    if (g[static_cast<std::size_t>(i)] == 0) ++winners;
  }
  EXPECT_EQ(winners, 1);
  EXPECT_TRUE(grants_are_legal(req, g, 5));
}

TEST(Separable, DisjointRequestsAllGranted) {
  SeparableAllocator alloc(5, 5);
  std::array<std::uint32_t, 5> req{};
  for (int i = 0; i < 5; ++i) req[static_cast<std::size_t>(i)] = 1u << i;
  const auto g = alloc.allocate(req);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(g[static_cast<std::size_t>(i)], i);
}

// Property: random request matrices always yield legal matchings, and
// any input whose every requested output went ungranted to anyone would
// contradict output-first arbitration (maximality at the output stage).
TEST(Separable, RandomRequestsAlwaysLegal) {
  SeparableAllocator alloc(5, 5);
  Rng rng(123);
  for (int iter = 0; iter < 2000; ++iter) {
    std::array<std::uint32_t, 5> req{};
    for (auto& r : req) r = static_cast<std::uint32_t>(rng()) & 0x1F;
    const auto g = alloc.allocate(req);
    ASSERT_TRUE(grants_are_legal(req, g, 5));
    // Output-stage maximality: a requested output with no winner at all
    // means no input requested it (stage 1 always picks a requester).
    std::uint32_t requested = 0, granted = 0;
    for (int i = 0; i < 5; ++i) {
      requested |= req[static_cast<std::size_t>(i)];
      if (g[static_cast<std::size_t>(i)] >= 0) {
        granted |= 1u << g[static_cast<std::size_t>(i)];
      }
    }
    // Every requested output was won by someone at stage 1; stage 2 can
    // drop it only if that input also won another output.  So at least
    // one grant exists whenever any request exists.
    if (requested != 0) {
      ASSERT_NE(granted, 0u);
    }
  }
}

TEST(Separable, LongRunFairness) {
  SeparableAllocator alloc(2, 1);
  const std::array<std::uint32_t, 2> req = {1, 1};  // both want output 0
  int wins[2] = {0, 0};
  for (int i = 0; i < 1000; ++i) {
    const auto g = alloc.allocate(req);
    for (int k = 0; k < 2; ++k) {
      if (g[static_cast<std::size_t>(k)] == 0) ++wins[k];
    }
    EXPECT_EQ(g[2], -1);  // past num_inputs: never granted
  }
  EXPECT_EQ(wins[0] + wins[1], 1000);
  EXPECT_NEAR(wins[0], 500, 1);
}

// ---- unified dual-input allocator --------------------------------------

UnifiedCandidate cand(std::uint32_t mask, std::uint64_t age,
                      bool elevated = false) {
  return {true, mask, age, elevated};
}

bool unified_legal(const std::array<UnifiedPortRequest, kNumPorts>& req,
                   const UnifiedGrants& g) {
  std::array<int, kNumPorts> owner;
  owner.fill(-1);
  for (int p = 0; p < kNumPorts; ++p) {
    const auto& pg = g.port[static_cast<std::size_t>(p)];
    const auto& pr = req[static_cast<std::size_t>(p)];
    if (pg.incoming_out >= 0) {
      if (!pr.incoming.valid) return false;
      if (!(pr.incoming.request_mask & (1u << pg.incoming_out))) return false;
      if (owner[static_cast<std::size_t>(pg.incoming_out)] >= 0) return false;
      owner[static_cast<std::size_t>(pg.incoming_out)] = p;
    }
    if (pg.buffered_out >= 0) {
      if (!pr.buffered.valid) return false;
      if (!(pr.buffered.request_mask & (1u << pg.buffered_out))) return false;
      if (owner[static_cast<std::size_t>(pg.buffered_out)] >= 0) return false;
      owner[static_cast<std::size_t>(pg.buffered_out)] = p;
    }
  }
  return true;
}

TEST(Unified, DualGrantSameInputPort) {
  // The headline capability: I0 -> O2 while I0' -> O3 simultaneously.
  UnifiedAllocator alloc;
  std::array<UnifiedPortRequest, kNumPorts> req{};
  req[0].incoming = cand(1u << 2, 10);
  req[0].buffered = cand(1u << 3, 20);
  const auto g = alloc.allocate(req, true);
  EXPECT_EQ(g.port[0].incoming_out, 2);
  EXPECT_EQ(g.port[0].buffered_out, 3);
  EXPECT_TRUE(unified_legal(req, g));
}

TEST(Unified, ConflictSwapFiresWhenBindingsCross) {
  // Both flits of port 1 won outputs, but the naive binding crosses:
  // incoming wants only O4, buffered wants only O2; the won set is
  // {O2, O4} with O2 first — direct binding fails, swap fixes it.
  UnifiedAllocator alloc;
  std::array<UnifiedPortRequest, kNumPorts> req{};
  req[1].incoming = cand(1u << 4, 5);
  req[1].buffered = cand(1u << 2, 7);
  const auto g = alloc.allocate(req, true);
  EXPECT_EQ(g.port[1].incoming_out, 4);
  EXPECT_EQ(g.port[1].buffered_out, 2);
  EXPECT_GE(g.swaps, 1);
  EXPECT_TRUE(unified_legal(req, g));
}

TEST(Unified, IncomingPriorityWinsContestedOutput) {
  UnifiedAllocator alloc;
  std::array<UnifiedPortRequest, kNumPorts> req{};
  req[0].incoming = cand(1u << 1, 50);  // younger incoming
  req[2].buffered = cand(1u << 1, 10);  // older buffered
  const auto g = alloc.allocate(req, /*incoming_priority=*/true);
  EXPECT_EQ(g.port[0].incoming_out, 1);
  EXPECT_EQ(g.port[2].buffered_out, -1);

  // Fairness flip: the buffered flit now outranks the incoming one.
  const auto flipped = alloc.allocate(req, /*incoming_priority=*/false);
  EXPECT_EQ(flipped.port[0].incoming_out, -1);
  EXPECT_EQ(flipped.port[2].buffered_out, 1);
}

TEST(Unified, AgeBreaksTiesWithinClass) {
  UnifiedAllocator alloc;
  std::array<UnifiedPortRequest, kNumPorts> req{};
  req[0].incoming = cand(1u << 0, 30);
  req[1].incoming = cand(1u << 0, 10);  // older, must win
  const auto g = alloc.allocate(req, true);
  EXPECT_EQ(g.port[0].incoming_out, -1);
  EXPECT_EQ(g.port[1].incoming_out, 0);
}

TEST(Unified, ElevatedCandidateOutranksFavouredClass) {
  UnifiedAllocator alloc;
  std::array<UnifiedPortRequest, kNumPorts> req{};
  req[0].incoming = cand(1u << 0, 5);
  req[1].buffered = cand(1u << 0, 50, /*elevated=*/true);
  const auto g = alloc.allocate(req, true);
  // Elevated buffered ties at class 0 with the incoming flit; the older
  // (age 5) incoming still wins on age.
  EXPECT_EQ(g.port[0].incoming_out, 0);

  req[1].buffered.age = 1;  // now older too
  const auto g2 = alloc.allocate(req, true);
  EXPECT_EQ(g2.port[1].buffered_out, 0);
}

// Property: random request matrices always produce legal grants, and
// whenever a port's two flits requested two disjoint singleton outputs
// that no other port contests, both get granted.
TEST(Unified, RandomRequestsAlwaysLegal) {
  UnifiedAllocator alloc;
  Rng rng(77);
  for (int iter = 0; iter < 3000; ++iter) {
    std::array<UnifiedPortRequest, kNumPorts> req{};
    for (int p = 0; p < kNumPorts; ++p) {
      if (rng.bernoulli(0.6)) {
        req[static_cast<std::size_t>(p)].incoming =
            cand(static_cast<std::uint32_t>(rng()) & 0x1F, rng() & 0xFF);
      }
      if (rng.bernoulli(0.6)) {
        req[static_cast<std::size_t>(p)].buffered =
            cand(static_cast<std::uint32_t>(rng()) & 0x1F, rng() & 0xFF);
      }
    }
    const bool prio = rng.bernoulli(0.5);
    const auto g = alloc.allocate(req, prio);
    ASSERT_TRUE(unified_legal(req, g));
  }
}

TEST(Unified, UncontestedDisjointSingletonsBothGranted) {
  UnifiedAllocator alloc;
  Rng rng(99);
  for (int iter = 0; iter < 500; ++iter) {
    const int o1 = static_cast<int>(rng.below(kNumPorts));
    int o2 = static_cast<int>(rng.below(kNumPorts));
    if (o2 == o1) o2 = (o1 + 1) % kNumPorts;
    std::array<UnifiedPortRequest, kNumPorts> req{};
    req[3].incoming = cand(1u << o1, rng() & 0xFF);
    req[3].buffered = cand(1u << o2, rng() & 0xFF);
    const auto g = alloc.allocate(req, true);
    EXPECT_EQ(g.port[3].incoming_out, o1);
    EXPECT_EQ(g.port[3].buffered_out, o2);
  }
}

// ---- differential oracles ----------------------------------------------
//
// The allocators compute with bitmask arithmetic.  These reference copies
// are the straightforward scan/sort formulations they replaced; the
// tests below hold the two bit-exact: same grants, same swaps and the
// same arbiter-pointer evolution over long random request sequences.

namespace ref {

/// Modulo-scan round-robin arbiter.
class RoundRobin {
 public:
  explicit RoundRobin(int n) : n_(n) {}

  [[nodiscard]] int pick(std::uint32_t requests) const {
    if (requests == 0) return -1;
    for (int k = 0; k < n_; ++k) {
      const int i = (next_ + k) % n_;
      if (requests & (1u << i)) return i;
    }
    return -1;
  }

  int grant(std::uint32_t requests) {
    const int winner = pick(requests);
    if (winner >= 0) next_ = (winner + 1) % n_;
    return winner;
  }

  [[nodiscard]] int priority_pointer() const { return next_; }
  void save(SnapshotWriter& w) const { w.i32(next_); }

 private:
  int n_;
  int next_ = 0;
};

/// Two-stage separable allocator over heap vectors.
class Separable {
 public:
  Separable(int num_inputs, int num_outputs)
      : num_inputs_(num_inputs), num_outputs_(num_outputs) {
    for (int o = 0; o < num_outputs; ++o) output_arbiters_.emplace_back(num_inputs);
    for (int i = 0; i < num_inputs; ++i) input_arbiters_.emplace_back(num_outputs);
  }

  std::vector<int> allocate(const std::vector<std::uint32_t>& requests) {
    std::vector<int> output_winner(static_cast<std::size_t>(num_outputs_), -1);
    for (int o = 0; o < num_outputs_; ++o) {
      std::uint32_t req = 0;
      for (int i = 0; i < num_inputs_; ++i) {
        if (requests[static_cast<std::size_t>(i)] & (1u << o)) req |= 1u << i;
      }
      output_winner[static_cast<std::size_t>(o)] =
          output_arbiters_[static_cast<std::size_t>(o)].pick(req);
    }
    std::vector<int> grant(static_cast<std::size_t>(num_inputs_), -1);
    for (int i = 0; i < num_inputs_; ++i) {
      std::uint32_t won = 0;
      for (int o = 0; o < num_outputs_; ++o) {
        if (output_winner[static_cast<std::size_t>(o)] == i) won |= 1u << o;
      }
      grant[static_cast<std::size_t>(i)] =
          input_arbiters_[static_cast<std::size_t>(i)].pick(won);
    }
    for (int i = 0; i < num_inputs_; ++i) {
      const int o = grant[static_cast<std::size_t>(i)];
      if (o >= 0) {
        input_arbiters_[static_cast<std::size_t>(i)].grant(1u << o);
        output_arbiters_[static_cast<std::size_t>(o)].grant(1u << i);
      }
    }
    return grant;
  }

  void save(SnapshotWriter& w) const {
    for (const RoundRobin& a : output_arbiters_) a.save(w);
    for (const RoundRobin& a : input_arbiters_) a.save(w);
  }

 private:
  int num_inputs_;
  int num_outputs_;
  std::vector<RoundRobin> output_arbiters_;
  std::vector<RoundRobin> input_arbiters_;
};

/// Unified allocator with (class, age) struct keys and a won-output list.
struct PriorityKey {
  int klass;
  std::uint64_t age;

  [[nodiscard]] bool beats(const PriorityKey& o) const {
    if (klass != o.klass) return klass < o.klass;
    return age < o.age;
  }
};

PriorityKey key_of(const UnifiedCandidate& c, bool is_incoming,
                   bool incoming_priority) {
  const bool favoured = c.elevated || (is_incoming == incoming_priority);
  return {favoured ? 0 : 1, c.age};
}

UnifiedGrants unified(const std::array<UnifiedPortRequest, kNumPorts>& req,
                      bool incoming_priority) {
  UnifiedGrants result;
  std::array<int, kNumPorts> output_winner;
  output_winner.fill(-1);
  for (int o = 0; o < kNumPorts; ++o) {
    int best_port = -1;
    PriorityKey best_key{2, ~std::uint64_t{0}};
    for (int p = 0; p < kNumPorts; ++p) {
      const UnifiedPortRequest& r = req[static_cast<std::size_t>(p)];
      PriorityKey port_key{2, ~std::uint64_t{0}};
      bool requests = false;
      if (r.incoming.valid && (r.incoming.request_mask & (1u << o))) {
        port_key = key_of(r.incoming, true, incoming_priority);
        requests = true;
      }
      if (r.buffered.valid && (r.buffered.request_mask & (1u << o))) {
        const PriorityKey k = key_of(r.buffered, false, incoming_priority);
        if (!requests || k.beats(port_key)) port_key = k;
        requests = true;
      }
      if (requests && (best_port < 0 || port_key.beats(best_key))) {
        best_port = p;
        best_key = port_key;
      }
    }
    output_winner[static_cast<std::size_t>(o)] = best_port;
  }

  for (int p = 0; p < kNumPorts; ++p) {
    const UnifiedPortRequest& r = req[static_cast<std::size_t>(p)];
    SmallVec<int, kNumPorts> won;
    for (int o = 0; o < kNumPorts; ++o) {
      if (output_winner[static_cast<std::size_t>(o)] == p) won.push_back(o);
    }
    if (won.empty()) continue;
    const std::uint32_t in_mask = r.incoming.valid ? r.incoming.request_mask : 0;
    const std::uint32_t buf_mask = r.buffered.valid ? r.buffered.request_mask : 0;
    const int o1 = won[0];
    const int o2 = won.size() > 1 ? won[1] : -1;
    auto legal = [](std::uint32_t mask, int o) {
      return o >= 0 && (mask & (1u << o)) != 0;
    };
    const int direct = (legal(in_mask, o1) ? 1 : 0) + (legal(buf_mask, o2) ? 1 : 0);
    const int swapped = (legal(in_mask, o2) ? 1 : 0) + (legal(buf_mask, o1) ? 1 : 0);
    UnifiedPortGrant& g = result.port[static_cast<std::size_t>(p)];
    if (swapped > direct) {
      if (legal(in_mask, o2)) g.incoming_out = o2;
      if (legal(buf_mask, o1)) g.buffered_out = o1;
      if (o2 >= 0) ++result.swaps;
    } else {
      if (legal(in_mask, o1)) g.incoming_out = o1;
      if (legal(buf_mask, o2)) g.buffered_out = o2;
    }
  }
  return result;
}

}  // namespace ref

TEST(AllocOracle, RoundRobinExhaustiveUpToEight) {
  // Every (pointer, request) pair, with one stray bit above n that both
  // implementations must ignore.
  for (int n = 1; n <= 8; ++n) {
    for (int ptr = 0; ptr < n; ++ptr) {
      for (std::uint32_t req = 0; req < (1u << (n + 1)); ++req) {
        RoundRobinArbiter arb(n);
        ref::RoundRobin oracle(n);
        if (ptr > 0) {
          arb.grant(1u << (ptr - 1));
          oracle.grant(1u << (ptr - 1));
        }
        ASSERT_EQ(arb.priority_pointer(), ptr);
        ASSERT_EQ(arb.pick(req), oracle.pick(req)) << n << " " << ptr << " " << req;
        ASSERT_EQ(arb.grant(req), oracle.grant(req)) << n << " " << ptr << " " << req;
        ASSERT_EQ(arb.priority_pointer(), oracle.priority_pointer());
      }
    }
  }
}

TEST(AllocOracle, RoundRobinRandomSequencesAllWidths) {
  Rng rng(2024);
  for (int n = 1; n <= 32; ++n) {
    RoundRobinArbiter arb(n);
    ref::RoundRobin oracle(n);
    for (int step = 0; step < 20000; ++step) {
      // Mix dense, sparse and empty request words.
      std::uint32_t req = static_cast<std::uint32_t>(rng());
      switch (rng.below(4)) {
        case 0: req &= static_cast<std::uint32_t>(rng()); break;
        case 1: req &= static_cast<std::uint32_t>(rng()) &
                       static_cast<std::uint32_t>(rng()); break;
        case 2: req = rng.bernoulli(0.5) ? 0 : 1u << rng.below(32); break;
        default: break;
      }
      ASSERT_EQ(arb.pick(req), oracle.pick(req)) << n << " " << req;
      if (rng.bernoulli(0.8)) {
        ASSERT_EQ(arb.grant(req), oracle.grant(req)) << n << " " << req;
      }
      ASSERT_EQ(arb.priority_pointer(), oracle.priority_pointer());
    }
  }
}

TEST(AllocOracle, SeparableMatchesReferenceForEveryShape) {
  Rng rng(31337);
  for (int ni = 1; ni <= kNumPorts; ++ni) {
    for (int no = 1; no <= kNumPorts; ++no) {
      SeparableAllocator alloc(ni, no);
      ref::Separable oracle(ni, no);
      for (int step = 0; step < 5000; ++step) {
        // Request words carry stray bits above `no`, which both ignore.
        const double density = rng.uniform();
        std::vector<std::uint32_t> req(static_cast<std::size_t>(ni));
        for (auto& r : req) {
          for (int o = 0; o < no + 1; ++o) {
            if (rng.bernoulli(density)) r |= 1u << o;
          }
        }
        const auto g = alloc.allocate(req);
        const auto expect = oracle.allocate(req);
        for (int i = 0; i < kNumPorts; ++i) {
          ASSERT_EQ(g[static_cast<std::size_t>(i)],
                    i < ni ? expect[static_cast<std::size_t>(i)] : -1)
              << ni << "x" << no << " step " << step << " input " << i;
        }
        SnapshotWriter a, b;
        alloc.save(a);
        oracle.save(b);
        ASSERT_EQ(a.data(), b.data()) << ni << "x" << no << " step " << step;
      }
    }
  }
}

TEST(AllocOracle, UnifiedMatchesReference) {
  Rng rng(4242);
  for (int step = 0; step < 200000; ++step) {
    // Narrow age ranges force equal ages inside and across ports.
    const std::uint64_t age_range = step % 3 == 0 ? 2 : step % 3 == 1 ? 16 : 1u << 20;
    const double valid = rng.uniform();
    std::array<UnifiedPortRequest, kNumPorts> req{};
    for (auto& p : req) {
      for (UnifiedCandidate* c : {&p.incoming, &p.buffered}) {
        // Invalid candidates keep a stale mask that both must ignore.
        *c = {rng.bernoulli(valid), static_cast<std::uint32_t>(rng()) & 0x3F,
              rng() % age_range, rng.bernoulli(0.2)};
      }
    }
    for (bool prio : {true, false}) {
      const UnifiedGrants g = UnifiedAllocator{}.allocate(req, prio);
      const UnifiedGrants expect = ref::unified(req, prio);
      ASSERT_EQ(g.swaps, expect.swaps) << "step " << step;
      for (int p = 0; p < kNumPorts; ++p) {
        const auto& a = g.port[static_cast<std::size_t>(p)];
        const auto& b = expect.port[static_cast<std::size_t>(p)];
        ASSERT_EQ(a.incoming_out, b.incoming_out) << "step " << step << " port " << p;
        ASSERT_EQ(a.buffered_out, b.buffered_out) << "step " << step << " port " << p;
      }
    }
  }
}

// ---- fairness counter ---------------------------------------------------

TEST(Fairness, FlipsAfterThresholdConsecutiveWins) {
  FairnessCounter fc(4);
  for (int i = 0; i < 3; ++i) {
    fc.record(true, false, true);
    EXPECT_FALSE(fc.flipped());
  }
  fc.record(true, false, true);
  EXPECT_TRUE(fc.flipped());
}

TEST(Fairness, WaitingWinResets) {
  FairnessCounter fc(4);
  fc.record(true, false, true);
  fc.record(true, false, true);
  fc.record(true, true, true);  // a waiting flit got through
  EXPECT_EQ(fc.count(), 0);
  EXPECT_FALSE(fc.flipped());
}

TEST(Fairness, CounterIdleWithoutWaiters) {
  FairnessCounter fc(2);
  for (int i = 0; i < 10; ++i) fc.record(false, false, true);
  EXPECT_FALSE(fc.flipped());
  EXPECT_EQ(fc.count(), 0);
}

TEST(Fairness, FlipClearsOnceServed) {
  FairnessCounter fc(2);
  fc.record(true, false, true);
  fc.record(true, false, true);
  EXPECT_TRUE(fc.flipped());
  fc.record(true, true, false);  // flip cycle: waiting flit served
  EXPECT_FALSE(fc.flipped());
}

}  // namespace
}  // namespace dxbar
