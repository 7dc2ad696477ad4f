// Deflection-routing port preference for bufferless designs.
//
// Flit-Bless assigns *every* incoming flit to some output port each
// cycle: productive ports first, then the least-harmful non-productive
// ports.  The ranking below orders all four link directions so that the
// age-ordered assignment loop can walk it and take the first free port.
#pragma once

#include <array>

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
std::array<Direction, kNumLinkDirs> deflection_ranking(int dx, int dy,
                                                       unsigned link_mask,
                                                       std::uint64_t salt);

/// True when `dir` strictly reduces the distance to `dst` from `cur`.
bool is_productive(const Mesh& mesh, NodeId cur, NodeId dst, Direction dir);

}  // namespace dxbar
