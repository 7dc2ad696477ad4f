#include "routing/route_table.hpp"

#include <cassert>

namespace dxbar {

RouteTable::RouteTable(const Mesh& mesh,
                       const std::function<bool(NodeId, Direction)>& alive)
    : n_(mesh.num_nodes()),
      next_mask_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_),
                 0),
      dist_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_), -1) {
  // One reverse BFS per destination over live links.
  std::vector<NodeId> queue;
  queue.reserve(static_cast<std::size_t>(n_));
  for (NodeId dst = 0; dst < static_cast<NodeId>(n_); ++dst) {
    queue.clear();
    queue.push_back(dst);
    dist_[index(dst, dst)] = 0;
    std::size_t head = 0;
    while (head < queue.size()) {
      const NodeId cur = queue[head++];
      for (Direction d : kLinkDirs) {
        if (!mesh.has_link(cur, d) || !alive(cur, d)) continue;
        const NodeId nb = *mesh.neighbor(cur, d);
        if (dist_[index(nb, dst)] < 0) {
          dist_[index(nb, dst)] = dist_[index(cur, dst)] + 1;
          queue.push_back(nb);
        }
      }
    }
    assert(queue.size() == static_cast<std::size_t>(n_) &&
           "live topology must be connected");

    // Next hops: every live neighbour one step closer to dst.
    for (NodeId cur = 0; cur < static_cast<NodeId>(n_); ++cur) {
      if (cur == dst) continue;
      std::uint8_t mask = 0;
      for (Direction d : kLinkDirs) {
        if (!mesh.has_link(cur, d) || !alive(cur, d)) continue;
        const NodeId nb = *mesh.neighbor(cur, d);
        if (dist_[index(nb, dst)] == dist_[index(cur, dst)] - 1) {
          mask |= static_cast<std::uint8_t>(1u << port_index(d));
        }
      }
      next_mask_[index(cur, dst)] = mask;
    }
  }
}

RouteSet RouteTable::routes(NodeId cur, NodeId dst) const {
  RouteSet out;
  if (cur == dst) {
    out.push_back(Direction::Local);
    return out;
  }
  const std::uint8_t mask = next_mask_[index(cur, dst)];
  for (Direction d : kLinkDirs) {
    if (mask & (1u << port_index(d))) {
      out.push_back(d);
      if (out.size() == RouteSet::kCapacity) break;
    }
  }
  return out;
}

}  // namespace dxbar
