#include "routing/deflect.hpp"

namespace dxbar {

bool is_productive(const Mesh& mesh, NodeId cur, NodeId dst, Direction dir) {
  const auto next = mesh.neighbor(cur, dir);
  if (!next) return false;
  return mesh.distance(*next, dst) < mesh.distance(cur, dst);
}

std::array<Direction, kNumLinkDirs> deflection_ranking(const Mesh& mesh,
                                                       NodeId cur, NodeId dst,
                                                       std::uint64_t salt) {
  // Link existence from the current coordinate: a torus has every link,
  // a mesh lacks the ones leaving its edge.
  unsigned link_mask = 0;
  for (Direction d : kLinkDirs) {
    if (mesh.has_link(cur, d)) link_mask |= 1u << port_index(d);
  }
  // Wrap-aware signed offsets: on a torus the shorter way around wins.
  return deflection_ranking(mesh.offset_x(cur, dst), mesh.offset_y(cur, dst),
                            link_mask, salt);
}

}  // namespace dxbar
