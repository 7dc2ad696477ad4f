// The router activity gate and the DAMQ grant sweep it relies on.
//
// Network::step skips a router whose input registers and source queue
// are empty and whose concrete type reports quiescent().  That is only
// sound if such a step would change nothing; the Quiescence tests step
// gated routers directly — after a drain and at every step boundary of a
// live run — and require that neither the router's own state nor
// anything it can reach (channels, energy, ejections) moves.  The DAMQ
// oracle keeps the credit-grant fixpoint as first written, which
// recomputed the shared-region use for every probe and rotated a stored
// round-robin pointer once per step, as a reference for the router's
// clock-derived, running-count sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "router/afc_router.hpp"
#include "router/bless_router.hpp"
#include "router/buffered_router.hpp"
#include "router/damq_router.hpp"
#include "router/dxbar_router.hpp"
#include "router/factory.hpp"
#include "router/minbd_router.hpp"
#include "router/scarab_router.hpp"
#include "router/unified_router.hpp"
#include "router/vc_router.hpp"
#include "sim/network.hpp"
#include "traffic/traffic_gen.hpp"

namespace dxbar {
namespace {

constexpr RouterDesign kDesigns[] = {
    RouterDesign::FlitBless, RouterDesign::Scarab,
    RouterDesign::Buffered4,  RouterDesign::Buffered8,
    RouterDesign::DXbar,      RouterDesign::UnifiedXbar,
    RouterDesign::BufferedVC, RouterDesign::Afc,
    RouterDesign::Damq,       RouterDesign::MinBD};

template <typename ConcreteRouter>
bool skips_as(Router& r) {
  return r.inputs_idle() && static_cast<ConcreteRouter&>(r).quiescent();
}

/// The gate's verdict for `r`, dispatched on the design the way
/// Network::step_routers_shard dispatches.
bool gate_skips(RouterDesign design, Router& r) {
  switch (design) {
    case RouterDesign::FlitBless: return skips_as<BlessRouter>(r);
    case RouterDesign::Scarab: return skips_as<ScarabRouter>(r);
    case RouterDesign::Buffered4:
    case RouterDesign::Buffered8: return skips_as<BufferedRouter>(r);
    case RouterDesign::DXbar: return skips_as<DXbarRouter>(r);
    case RouterDesign::UnifiedXbar: return skips_as<UnifiedRouter>(r);
    case RouterDesign::BufferedVC: return skips_as<VcRouter>(r);
    case RouterDesign::Afc: return skips_as<AfcRouter>(r);
    case RouterDesign::Damq: return skips_as<DamqRouter>(r);
    case RouterDesign::MinBD: return skips_as<MinBDRouter>(r);
  }
  return false;
}

std::vector<std::uint8_t> router_bytes(const Router& r) {
  SnapshotWriter w;
  r.save_state(w);
  return w.take();
}

SimConfig gate_cfg(RouterDesign design) {
  SimConfig cfg;
  cfg.design = design;
  cfg.mesh_width = 5;
  cfg.mesh_height = 5;
  cfg.packet_length = 3;
  cfg.offered_load = 0.15;
  cfg.warmup_cycles = 0;
  // The window stays open for the whole test, so energy charged by a
  // stray step would reach the network meter and the snapshot.
  cfg.measure_cycles = 1000000;
  cfg.seed = 7;
  return cfg;
}

/// Two identical networks under identical synthetic traffic.
struct Twin {
  explicit Twin(const SimConfig& cfg)
      : probed(cfg), plain(cfg), wp(cfg, probed.mesh()),
        wq(cfg, plain.mesh()) {
    probed.set_workload(&wp);
    plain.set_workload(&wq);
  }
  void step() {
    probed.step();
    plain.step();
  }
  Network probed;
  Network plain;
  SyntheticWorkload wp;
  SyntheticWorkload wq;
};

TEST(Quiescence, IdleStepIsANoOp) {
  constexpr int kIdleSteps = 5;
  for (RouterDesign design : kDesigns) {
    SCOPED_TRACE(to_string(design));
    const SimConfig cfg = gate_cfg(design);
    Twin twin(cfg);
    for (Cycle t = 0; t < 300; ++t) twin.step();
    twin.wp.set_injection_enabled(false);
    twin.wq.set_injection_enabled(false);
    for (Cycle t = 0; t < 20000 && !twin.probed.idle(); ++t) twin.step();
    ASSERT_TRUE(twin.probed.idle());
    if (design == RouterDesign::Afc) {
      // AFC's arrival-rate EMA decays by 31/32 per step and is flushed
      // to 0 once below 2^-64: about 1,400 idle steps after an EMA of 1.
      for (int t = 0; t < 1500; ++t) twin.step();
    }

    int skipped = 0;
    for (NodeId n = 0; n < static_cast<NodeId>(cfg.num_nodes()); ++n) {
      Router& r = twin.probed.router(n);
      if (!gate_skips(design, r)) continue;
      ++skipped;
      const auto before = router_bytes(r);
      for (int k = 0; k < kIdleSteps; ++k) {
        // Any clock value: the gate may skip a router for arbitrarily
        // many cycles, so its next real step sees a later clock.
        r.step(twin.probed.now() + static_cast<Cycle>(k) * 37);
        ASSERT_EQ(router_bytes(r), before) << "node " << n << " step " << k;
        ASSERT_TRUE(r.ejected.empty());
      }
    }
    // A drained network is idle everywhere, so the gate covers every
    // router — the check above is not vacuous.
    EXPECT_EQ(skipped, cfg.num_nodes());

    // Whatever the direct steps did outside the routers (credits, stop
    // signals, energy events) shows up once the next cycle commits.
    twin.step();
    EXPECT_EQ(twin.probed.snapshot(), twin.plain.snapshot());
  }
}

TEST(Quiescence, ExtraIdleStepsLeaveALiveRunUnchanged) {
  // At every step boundary of a loaded run, step each router the gate
  // would skip once more before the network steps: mid-run idle states
  // (fairness counters, wait counters, parked DAMQ credits, crossbar
  // faults) must make that extra step a no-op too.
  std::vector<SimConfig> cfgs;
  for (RouterDesign design : kDesigns) cfgs.push_back(gate_cfg(design));
  SimConfig faulty = gate_cfg(RouterDesign::DXbar);
  faulty.fault_fraction = 0.5;
  faulty.fault_onset_spread = 200;
  faulty.fault_detect_delay = 20;
  cfgs.push_back(faulty);

  for (const SimConfig& cfg : cfgs) {
    SCOPED_TRACE(std::string(to_string(cfg.design)) +
                 (cfg.fault_fraction > 0.0 ? " faulty" : ""));
    Twin twin(cfg);
    std::uint64_t extra = 0;
    for (Cycle t = 0; t < 600; ++t) {
      for (NodeId n = 0; n < static_cast<NodeId>(cfg.num_nodes()); ++n) {
        Router& r = twin.probed.router(n);
        if (!gate_skips(cfg.design, r)) continue;
        r.step(twin.probed.now());
        ASSERT_TRUE(r.ejected.empty());
        ++extra;
      }
      twin.step();
    }
    EXPECT_EQ(twin.probed.snapshot(), twin.plain.snapshot());
    if (cfg.design != RouterDesign::Afc) {
      EXPECT_GT(extra, 0u);
    }
  }
}

// ---- DAMQ grant oracle ----------------------------------------------------

namespace ref {

/// The DAMQ grant sweep as first written: a fixpoint over the ports,
/// starting at `first`, that re-derives the shared-region use on every
/// probe.  Returns the outstanding credits after the sweep.
std::array<int, kNumLinkDirs> damq_grants(
    const std::array<int, kNumLinkDirs>& queued,
    std::array<int, kNumLinkDirs> outstanding,
    const std::array<bool, kNumLinkDirs>& live, int depth, int first) {
  const int window = std::min(DamqRouter::kGrantWindow, depth);
  int live_ports = 0;
  for (bool l : live) live_ports += l ? 1 : 0;
  const int shared = kNumLinkDirs * depth - live_ports * window;
  const auto claim = [&](int d) {
    return queued[static_cast<std::size_t>(d)] +
           outstanding[static_cast<std::size_t>(d)];
  };
  const auto shared_used = [&] {
    int used = 0;
    for (int d = 0; d < kNumLinkDirs; ++d) {
      if (claim(d) > window) used += claim(d) - window;
    }
    return used;
  };
  const auto can_grant = [&](int d) {
    if (!live[static_cast<std::size_t>(d)]) return false;
    if (outstanding[static_cast<std::size_t>(d)] >= window) return false;
    return claim(d) < window || shared_used() < shared;
  };
  bool granted = true;
  while (granted) {
    granted = false;
    for (int k = 0; k < kNumLinkDirs; ++k) {
      const int d = (first + k) % kNumLinkDirs;
      if (!can_grant(d)) continue;
      ++outstanding[static_cast<std::size_t>(d)];
      granted = true;
    }
  }
  return outstanding;
}

}  // namespace ref

/// A standalone DAMQ router whose surroundings the test drives: arrivals
/// are written straight into its input registers against the credits it
/// granted, and its output links drain at random, so queues and the
/// shared region fill and empty.
struct DamqBench {
  DamqBench(int depth, NodeId id)
      : cfg(make_cfg(depth)),
        mesh(cfg.mesh_width, cfg.mesh_height),
        energy(cfg),
        faults(FaultPlan::none(cfg.num_nodes())),
        lookup(cfg.routing, mesh) {
    links.reserve(2 * kNumLinkDirs);
    RouterEnv env;
    env.cfg = &cfg;
    env.mesh = &mesh;
    env.energy = &energy;
    env.faults = &faults;
    env.route_lookup = &lookup;
    for (Direction d : kLinkDirs) {
      const auto di = static_cast<std::size_t>(port_index(d));
      live[di] = mesh.neighbor(id, d).has_value();
      if (!live[di]) continue;
      links.emplace_back(0);  // DAMQ upstreams start with no credits
      env.in_links[di] = &links.back();
      links.emplace_back(kUnlimitedCredits);
      env.out_links[di] = &links.back();
    }
    source.attach(&clock, nullptr, &pool);
    router = make_router(id, env);
    router->source = &source;
    damq = dynamic_cast<DamqRouter*>(router.get());
  }

  static SimConfig make_cfg(int depth) {
    SimConfig cfg;
    cfg.design = RouterDesign::Damq;
    cfg.mesh_width = 3;
    cfg.mesh_height = 3;
    cfg.buffer_depth = depth;
    return cfg;
  }

  [[nodiscard]] std::array<int, kNumLinkDirs> queued() const {
    std::array<int, kNumLinkDirs> q{};
    for (int d = 0; d < kNumLinkDirs; ++d) {
      q[static_cast<std::size_t>(d)] = damq->queued(d);
    }
    return q;
  }
  [[nodiscard]] std::array<int, kNumLinkDirs> outstanding() const {
    std::array<int, kNumLinkDirs> o{};
    for (int d = 0; d < kNumLinkDirs; ++d) {
      o[static_cast<std::size_t>(d)] = damq->outstanding(d);
    }
    return o;
  }

  SimConfig cfg;
  Mesh mesh;
  EnergyMeter energy;
  FaultPlan faults;
  RouteLookup lookup;
  std::vector<Channel> links;
  std::array<bool, kNumLinkDirs> live{};
  FlitPool pool;
  InjectionQueue source;
  Cycle clock = 0;
  std::unique_ptr<Router> router;
  DamqRouter* damq = nullptr;
};

TEST(DamqGrantOracle, MatchesTheFixpointReference) {
  Rng rng(1852);
  PacketId next_packet = 1;
  for (int depth : {1, 2, 3, 4, 6}) {
    for (NodeId id : {NodeId{4}, NodeId{1}, NodeId{0}}) {  // 4, 3, 2 inputs
      SCOPED_TRACE("depth " + std::to_string(depth) + " node " +
                   std::to_string(id));
      DamqBench bench(depth, id);
      ASSERT_NE(bench.damq, nullptr);
      // The constructor seeds the credits with a sweep starting at port 0.
      ASSERT_EQ(bench.outstanding(),
                ref::damq_grants({}, {}, bench.live, depth, 0));

      int order_sensitive = 0;
      Cycle now = 0;
      for (int step = 0; step < 4000; ++step) {
        // Skipped cycles, as the activity gate produces them.
        now += 1 + rng.below(3);
        bench.clock = now;
        const auto q0 = bench.queued();
        const auto o0 = bench.outstanding();
        std::array<int, kNumLinkDirs> arrived{};
        const auto make_flit = [&] {
          Flit f;
          f.packet = next_packet++;
          f.dst = static_cast<NodeId>(rng.below(9));
          f.src = id == 0 ? 8 : 0;
          f.born_at = now;
          return f;
        };
        for (int d = 0; d < kNumLinkDirs; ++d) {
          if (o0[static_cast<std::size_t>(d)] > 0 && rng.bernoulli(0.7)) {
            bench.router->in[static_cast<std::size_t>(d)] = make_flit();
            arrived[static_cast<std::size_t>(d)] = 1;
          }
        }
        if (rng.bernoulli(0.4)) bench.source.push_back(make_flit());
        // Output links free up at random; a link left undrained keeps
        // its staged flit and blocks that output this cycle.
        for (std::size_t i = 1; i < bench.links.size(); i += 2) {
          if (!rng.bernoulli(0.35)) continue;
          bench.links[i].advance();
          (void)bench.links[i].take_arrival();
        }

        bench.router->step(now);
        bench.router->ejected.clear();

        const auto q1 = bench.queued();
        std::array<int, kNumLinkDirs> before_grant{};
        for (int d = 0; d < kNumLinkDirs; ++d) {
          const auto i = static_cast<std::size_t>(d);
          const int popped = q0[i] + arrived[i] - q1[i];
          ASSERT_TRUE(popped == 0 || popped == 1) << "port " << d;
          before_grant[i] = o0[i] - arrived[i];
        }
        const int first = static_cast<int>((now + 1) % kNumLinkDirs);
        const auto expect =
            ref::damq_grants(q1, before_grant, bench.live, depth, first);
        ASSERT_EQ(bench.outstanding(), expect) << "step " << step;
        for (int other = 0; other < kNumLinkDirs; ++other) {
          if (ref::damq_grants(q1, before_grant, bench.live, depth, other) !=
              expect) {
            ++order_sensitive;
            break;
          }
        }
      }
      // The pool ran short often enough for the sweep's starting port to
      // decide who got the last shared slots — the rotation was tested.
      // Wherever a shared region exists, the pool ran short often enough
      // for the sweep's starting port to decide who got its last slots —
      // so the clock-derived rotation was exercised, not just carried.
      int live_ports = 0;
      for (bool l : bench.live) live_ports += l ? 1 : 0;
      const int window = std::min(DamqRouter::kGrantWindow, depth);
      if (kNumLinkDirs * depth > live_ports * window) {
        EXPECT_GT(order_sensitive, 100);
      }
    }
  }
}

}  // namespace
}  // namespace dxbar
