#include "routing/route_lookup.hpp"

#include <cassert>

namespace dxbar {

RouteLookup::RouteLookup(RoutingAlgo algo, const Mesh& mesh)
    : width_(mesh.width()), height_(mesh.height()), wrap_(mesh.wraps()) {
  assert(width_ <= static_cast<int>(kAxisMask) + 1 &&
         height_ <= static_cast<int>(kAxisMask) + 1 &&
         "mesh dimension exceeds the packed coordinate width");
  packed_.resize(static_cast<std::size_t>(mesh.num_nodes()));
  for (NodeId n = 0; n < static_cast<NodeId>(mesh.num_nodes()); ++n) {
    const Coord c = mesh.coord(n);
    std::uint32_t mask = 0;
    for (Direction d : kLinkDirs) {
      if (mesh.has_link(n, d)) mask |= 1u << port_index(d);
    }
    packed_[n] = static_cast<std::uint32_t>(c.x) |
                 (static_cast<std::uint32_t>(c.y) << kAxisBits) |
                 (mask << kMaskShift);
  }

  // One representative (cur, dst) pair per offset class: unit steps
  // from a node that has room on the needed side.  Classes the topology
  // cannot produce (a negative offset on a 2-wide torus, where ties
  // break positive) keep an empty set; offset_class never yields them.
  for (int sx = -1; sx <= 1; ++sx) {
    for (int sy = -1; sy <= 1; ++sy) {
      const Coord from{sx < 0 ? 1 : 0, sy < 0 ? 1 : 0};
      const NodeId cur = mesh.node(from);
      const NodeId dst = mesh.node(from.x + sx, from.y + sy);
      const std::size_t k = offset_class(cur, dst);
      if (k != static_cast<std::size_t>(3 * sx + sy + 4)) continue;
      algo_[k] = compute_routes(algo, mesh, cur, dst);
      minimal_[k] = minimal_routes(mesh, cur, dst);
    }
  }
}

}  // namespace dxbar
