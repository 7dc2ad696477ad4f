// Unit and property tests for routing/: DOR, West-First turn model,
// deflection ranking, and the offset-class RouteLookup held exactly to
// the routing functions it is derived from.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "routing/deflect.hpp"
#include "routing/dor.hpp"
#include "routing/route_lookup.hpp"
#include "routing/routing_algorithm.hpp"
#include "routing/west_first.hpp"

namespace dxbar {
namespace {

TEST(Dor, ResolvesXBeforeY) {
  const Mesh m(8, 8);
  EXPECT_EQ(dor_route(m, m.node(2, 2), m.node(5, 6)), Direction::East);
  EXPECT_EQ(dor_route(m, m.node(5, 2), m.node(5, 6)), Direction::North);
  EXPECT_EQ(dor_route(m, m.node(5, 6), m.node(2, 2)), Direction::West);
  EXPECT_EQ(dor_route(m, m.node(2, 6), m.node(2, 2)), Direction::South);
  EXPECT_EQ(dor_route(m, m.node(3, 3), m.node(3, 3)), Direction::Local);
}

// Property: following DOR from any source always reaches the destination
// in exactly the Manhattan distance.
TEST(Dor, AlwaysMinimalAndTerminates) {
  const Mesh m(6, 5);
  for (NodeId s = 0; s < static_cast<NodeId>(m.num_nodes()); ++s) {
    for (NodeId d = 0; d < static_cast<NodeId>(m.num_nodes()); ++d) {
      NodeId cur = s;
      int hops = 0;
      while (cur != d) {
        const Direction dir = dor_route(m, cur, d);
        ASSERT_NE(dir, Direction::Local);
        const auto next = m.neighbor(cur, dir);
        ASSERT_TRUE(next.has_value());
        cur = *next;
        ++hops;
        ASSERT_LE(hops, m.distance(s, d));
      }
      EXPECT_EQ(hops, m.distance(s, d));
    }
  }
}

TEST(WestFirst, WestIsExclusiveWhenDestinationIsWest) {
  const Mesh m(8, 8);
  const RouteSet r = wf_routes(m, m.node(5, 3), m.node(2, 6));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], Direction::West);
}

TEST(WestFirst, AdaptiveWhenDestinationIsEastOrAligned) {
  const Mesh m(8, 8);
  const RouteSet r = wf_routes(m, m.node(2, 2), m.node(5, 6));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.contains(Direction::East));
  EXPECT_TRUE(r.contains(Direction::North));

  const RouteSet straight = wf_routes(m, m.node(2, 2), m.node(5, 2));
  ASSERT_EQ(straight.size(), 1u);
  EXPECT_EQ(straight[0], Direction::East);
}

TEST(WestFirst, LocalWhenArrived) {
  const Mesh m(4, 4);
  const RouteSet r = wf_routes(m, m.node(1, 1), m.node(1, 1));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], Direction::Local);
}

TEST(WestFirst, TurnLegality) {
  // Forbidden: entering West after travelling North or South.
  EXPECT_FALSE(wf_turn_legal(Direction::North, Direction::West));
  EXPECT_FALSE(wf_turn_legal(Direction::South, Direction::West));
  EXPECT_TRUE(wf_turn_legal(Direction::West, Direction::West));
  EXPECT_TRUE(wf_turn_legal(Direction::East, Direction::West));  // U-turnish
  EXPECT_TRUE(wf_turn_legal(Direction::North, Direction::East));
  EXPECT_TRUE(wf_turn_legal(Direction::South, Direction::North));
}

// Property: every route WF produces is minimal AND never makes a
// forbidden turn across two consecutive hops, for every (src, dst) pair
// and every adaptive choice.
TEST(WestFirst, NoIllegalTurnReachableProperty) {
  const Mesh m(5, 5);
  for (NodeId s = 0; s < static_cast<NodeId>(m.num_nodes()); ++s) {
    for (NodeId d = 0; d < static_cast<NodeId>(m.num_nodes()); ++d) {
      if (s == d) continue;
      // BFS over (position, last direction) states reachable via WF.
      struct State {
        NodeId at;
        Direction came;
      };
      std::vector<State> stack{{s, Direction::Local}};
      int guard = 0;
      while (!stack.empty() && ++guard < 1000) {
        const State st = stack.back();
        stack.pop_back();
        if (st.at == d) continue;
        const RouteSet routes = wf_routes(m, st.at, d);
        ASSERT_FALSE(routes.empty());
        for (Direction dir : routes) {
          ASSERT_NE(dir, Direction::Local);
          if (st.came != Direction::Local) {
            ASSERT_TRUE(wf_turn_legal(st.came, dir))
                << "illegal turn " << to_string(st.came) << "->"
                << to_string(dir);
          }
          const auto next = m.neighbor(st.at, dir);
          ASSERT_TRUE(next.has_value());
          ASSERT_LT(m.distance(*next, d), m.distance(st.at, d));
          stack.push_back({*next, dir});
        }
      }
    }
  }
}

TEST(Deflect, ProductivePortsRankFirst) {
  const Mesh m(8, 8);
  const NodeId cur = m.node(2, 2);
  const NodeId dst = m.node(5, 5);
  const auto ranking = deflection_ranking(m, cur, dst, 0);
  // First two must be the productive East/North in some order.
  EXPECT_TRUE((ranking[0] == Direction::East && ranking[1] == Direction::North) ||
              (ranking[0] == Direction::North && ranking[1] == Direction::East));
}

TEST(Deflect, MissingEdgeLinksRankLast) {
  const Mesh m(4, 4);
  const NodeId corner = m.node(0, 0);
  const auto ranking = deflection_ranking(m, corner, m.node(3, 3), 0);
  // West and South do not exist at the corner and must rank behind the
  // two existing links.
  EXPECT_TRUE(ranking[2] == Direction::West || ranking[2] == Direction::South);
  EXPECT_TRUE(ranking[3] == Direction::West || ranking[3] == Direction::South);
}

TEST(Deflect, IsProductiveMatchesDistance) {
  const Mesh m(8, 8);
  const NodeId cur = m.node(4, 4);
  EXPECT_TRUE(is_productive(m, cur, m.node(6, 4), Direction::East));
  EXPECT_FALSE(is_productive(m, cur, m.node(6, 4), Direction::West));
  EXPECT_FALSE(is_productive(m, cur, m.node(6, 4), Direction::North));
  EXPECT_FALSE(is_productive(m, cur, m.node(4, 4), Direction::East));
}

TEST(Deflect, RankingIsAPermutation) {
  const Mesh m(8, 8);
  for (std::uint64_t salt = 0; salt < 16; ++salt) {
    const auto r = deflection_ranking(m, m.node(3, 3), m.node(1, 6), salt);
    std::array<bool, kNumLinkDirs> seen{};
    for (Direction d : r) seen[port_index(d)] = true;
    for (bool b : seen) EXPECT_TRUE(b);
  }
}

// Reference formulation of deflection_ranking: link existence through
// Mesh::has_link and a std::sort of the scored directions.
std::array<Direction, kNumLinkDirs> reference_deflection_ranking(
    const Mesh& mesh, NodeId cur, NodeId dst, std::uint64_t salt) {
  const int dx = mesh.offset_x(cur, dst);
  const int dy = mesh.offset_y(cur, dst);
  struct Ranked {
    Direction dir;
    int score;
  };
  std::array<Ranked, kNumLinkDirs> ranked{};
  int i = 0;
  for (Direction dir : kLinkDirs) {
    int score = 0;
    if (!mesh.has_link(cur, dir)) {
      score = -1000;
    } else {
      int progress = 0;
      switch (dir) {
        case Direction::East: progress = dx; break;
        case Direction::West: progress = -dx; break;
        case Direction::North: progress = dy; break;
        case Direction::South: progress = -dy; break;
        case Direction::Local: break;
      }
      if (progress > 0) {
        score = 100 + progress;
      } else if (progress < 0) {
        score = -10;
      }
      score = score * 4 + static_cast<int>((salt >> (port_index(dir) * 2)) & 3);
    }
    ranked[i++] = {dir, score};
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) { return a.score > b.score; });
  std::array<Direction, kNumLinkDirs> out{};
  for (int k = 0; k < kNumLinkDirs; ++k) out[k] = ranked[k].dir;
  return out;
}

// Every (cur, dst) pair and 64 salts, on meshes with and without wrap
// links and on the thinnest legal meshes (Mesh needs both sides >= 2),
// where one axis is all edge.
TEST(Deflect, RankingMatchesSortReference) {
  const std::array<Mesh, 4> meshes = {Mesh(8, 8), Mesh(4, 4, /*wrap=*/true),
                                      Mesh(2, 8), Mesh(8, 2)};
  Rng rng(8);
  for (const Mesh& m : meshes) {
    const auto n = static_cast<NodeId>(m.num_nodes());
    for (NodeId cur = 0; cur < n; ++cur) {
      for (NodeId dst = 0; dst < n; ++dst) {
        for (int s = 0; s < 64; ++s) {
          // Salt 0 ties every pair of equal-progress directions.
          const std::uint64_t salt = s == 0 ? 0 : rng();
          ASSERT_EQ(deflection_ranking(m, cur, dst, salt),
                    reference_deflection_ranking(m, cur, dst, salt))
              << m.width() << "x" << m.height() << (m.wraps() ? " torus" : "")
              << " cur " << cur << " dst " << dst << " salt " << salt;
        }
      }
    }
  }
}

TEST(RoutingAlgorithm, DispatchesPerAlgo) {
  const Mesh m(8, 8);
  const RouteSet dor = compute_routes(RoutingAlgo::DOR, m, m.node(2, 2),
                                      m.node(5, 6));
  ASSERT_EQ(dor.size(), 1u);
  EXPECT_EQ(dor[0], Direction::East);

  const RouteSet wf = compute_routes(RoutingAlgo::WestFirst, m, m.node(2, 2),
                                     m.node(5, 6));
  EXPECT_EQ(wf.size(), 2u);
}

// Property sweep: for every pair, DOR's port is always contained in some
// minimal direction set and WF contains DOR's x-first choice when the
// destination is not to the west.
TEST(RoutingAlgorithm, DorConsistentWithWf) {
  const Mesh m(6, 6);
  for (NodeId s = 0; s < static_cast<NodeId>(m.num_nodes()); ++s) {
    for (NodeId d = 0; d < static_cast<NodeId>(m.num_nodes()); ++d) {
      if (s == d) continue;
      const Direction xy = dor_route(m, s, d);
      const RouteSet wf = wf_routes(m, s, d);
      if (m.coord(d).x != m.coord(s).x) {
        // X not resolved: DOR goes east/west; WF must offer the same.
        EXPECT_TRUE(wf.contains(xy));
      }
    }
  }
}

// --- offset-class route lookup --------------------------------------------

// Meshes from the smallest legal one up to 33x33 (past 1024 nodes), with
// odd, even and unequal sides; tori whose even sides hit the offset tie
// (delta == k/2, broken positive) and whose 2-wide sides never produce a
// negative offset.
std::vector<Mesh> lookup_topologies() {
  return {Mesh(2, 2),        Mesh(2, 7),        Mesh(3, 3),
          Mesh(5, 4),        Mesh(8, 8),        Mesh(33, 33),
          Mesh(2, 2, true),  Mesh(3, 3, true),  Mesh(4, 4, true),
          Mesh(4, 5, true),  Mesh(8, 8, true)};
}

std::string topology_name(const Mesh& m) {
  return std::to_string(m.width()) + "x" + std::to_string(m.height()) +
         (m.wraps() ? " torus" : " mesh");
}

bool same_routes(const RouteSet& a, const RouteSet& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

TEST(RouteLookup, MatchesRoutingFunctionsOnEveryPair) {
  constexpr std::array<RoutingAlgo, 4> kAlgos = {
      RoutingAlgo::DOR, RoutingAlgo::WestFirst, RoutingAlgo::NegativeFirst,
      RoutingAlgo::NorthLast};
  for (const Mesh& m : lookup_topologies()) {
    std::vector<RouteLookup> lookups;
    for (RoutingAlgo a : kAlgos) lookups.emplace_back(a, m);
    const auto n = static_cast<NodeId>(m.num_nodes());
    for (NodeId cur = 0; cur < n; ++cur) {
      for (NodeId dst = 0; dst < n; ++dst) {
        for (std::size_t a = 0; a < kAlgos.size(); ++a) {
          ASSERT_TRUE(same_routes(lookups[a].routes(cur, dst),
                                  compute_routes(kAlgos[a], m, cur, dst)))
              << topology_name(m) << " " << to_string(kAlgos[a]) << " cur "
              << cur << " dst " << dst;
          ASSERT_TRUE(same_routes(lookups[a].minimal(cur, dst),
                                  minimal_routes(m, cur, dst)))
              << topology_name(m) << " minimal cur " << cur << " dst " << dst;
        }
      }
    }
  }
}

TEST(RouteLookup, OffsetsAndLinkMaskMatchTheMesh) {
  for (const Mesh& m : lookup_topologies()) {
    const RouteLookup lookup(RoutingAlgo::DOR, m);
    const auto n = static_cast<NodeId>(m.num_nodes());
    for (NodeId cur = 0; cur < n; ++cur) {
      for (Direction d : kLinkDirs) {
        ASSERT_EQ((lookup.link_mask(cur) >> port_index(d)) & 1u,
                  m.has_link(cur, d) ? 1u : 0u)
            << topology_name(m) << " node " << cur << " dir " << to_string(d);
      }
      for (NodeId dst = 0; dst < n; ++dst) {
        ASSERT_EQ(lookup.offset_x(cur, dst), m.offset_x(cur, dst))
            << topology_name(m) << " cur " << cur << " dst " << dst;
        ASSERT_EQ(lookup.offset_y(cur, dst), m.offset_y(cur, dst))
            << topology_name(m) << " cur " << cur << " dst " << dst;
      }
    }
  }
}

TEST(RouteLookup, DeflectionRankingMatchesMeshOracle) {
  Rng rng(16);
  // Salt 0 ties every pair of equal-progress directions.
  const std::array<std::uint64_t, 4> salts = {0, rng(), rng(), rng()};
  for (const Mesh& m : lookup_topologies()) {
    const RouteLookup lookup(RoutingAlgo::WestFirst, m);
    const auto n = static_cast<NodeId>(m.num_nodes());
    for (NodeId cur = 0; cur < n; ++cur) {
      for (NodeId dst = 0; dst < n; ++dst) {
        for (std::uint64_t salt : salts) {
          ASSERT_EQ(lookup.deflection_ranking(cur, dst, salt),
                    deflection_ranking(m, cur, dst, salt))
              << topology_name(m) << " cur " << cur << " dst " << dst
              << " salt " << salt;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dxbar
