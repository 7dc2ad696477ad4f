// Deflection-routing port preference for bufferless designs.
//
// Flit-Bless assigns *every* incoming flit to some output port each
// cycle: productive ports first, then the least-harmful non-productive
// ports.  The ranking below orders all four link directions so that the
// age-ordered assignment loop can walk it and take the first free port.
#pragma once

#include <array>
#include <cstdint>

#include "common/types.hpp"
#include "topology/mesh.hpp"

namespace dxbar {

/// All four link directions ranked for a flit at `cur` heading to `dst`:
/// productive dimensions first (larger remaining offset preferred), then
/// non-productive ones (the reverse of a productive port last).  `salt`
/// deterministically breaks ties between equally attractive ports so
/// deflections do not always pick the same victim direction.
std::array<Direction, kNumLinkDirs> deflection_ranking(const Mesh& mesh,
                                                       NodeId cur, NodeId dst,
                                                       std::uint64_t salt);

/// The same ranking from precomputed inputs: the wrap-aware offsets
/// `dx` / `dy` to the destination and the mask of links leaving the
/// current node (bit port_index(d) set when the link exists).  The Mesh
/// overload above derives those inputs by division and is the oracle
/// the RouteLookup-fed path is tested against.
///
/// Runs once per deflection-routed flit per hop, so it is inline and
/// branch-free: each direction i gets the unique key
/// ((score + 8192) << 2) | (3 - i), and a 5-comparator network sorts the
/// four keys descending.  Equal scores then order by direction index —
/// exactly the stable sort this ranking is defined by.
inline std::array<Direction, kNumLinkDirs> deflection_ranking(
    int dx, int dy, unsigned link_mask, std::uint64_t salt) noexcept {
  // Signed offset remaining along each direction's axis, positive when
  // the direction is productive (indexed like kLinkDirs).
  const int progress[kNumLinkDirs] = {dx, -dx, dy, -dy};
  int key[kNumLinkDirs];
  for (int i = 0; i < kNumLinkDirs; ++i) {
    // Score: progress made (productive ports first, larger remaining
    // offsets preferred; the reverse of a productive port last), with a
    // salted 2-bit tie-break so deflections spread over directions.  A
    // missing edge link scores below everything and is never picked.
    const int p = progress[i];
    const int base = p > 0 ? 100 + p : p < 0 ? -10 : 0;
    const int tie = static_cast<int>((salt >> (i * 2)) & 3);
    const int score = ((link_mask >> i) & 1u) ? base * 4 + tie : -1000;
    key[i] = ((score + 8192) << 2) | (3 - i);
  }
  const auto order = [&key](int a, int b) {
    const int hi = key[a] > key[b] ? key[a] : key[b];
    const int lo = key[a] > key[b] ? key[b] : key[a];
    key[a] = hi;
    key[b] = lo;
  };
  order(0, 1);
  order(2, 3);
  order(0, 2);
  order(1, 3);
  order(1, 2);
  std::array<Direction, kNumLinkDirs> out{};
  for (int k = 0; k < kNumLinkDirs; ++k) {
    out[static_cast<std::size_t>(k)] = port_from_index(3 - (key[k] & 3));
  }
  return out;
}

/// True when `dir` strictly reduces the distance to `dst` from `cur`.
bool is_productive(const Mesh& mesh, NodeId cur, NodeId dst, Direction dir);

}  // namespace dxbar
