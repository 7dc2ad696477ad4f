// Routing lookup for a healthy topology, keyed by offset class.
//
// Every routing function the simulator offers — DOR, the three turn
// models and the minimal-adaptive set — depends only on the signs of
// the wrap-aware (x, y) offset from the current node to the
// destination: 3 x 3 = 9 offset classes.  The lookup derives one
// RouteSet per class from `compute_routes` / `minimal_routes` once, and
// answers each hot-path query from a packed per-node coordinate table:
// two loads, two subtractions and a 9-entry table read, in O(N) memory
// for any mesh size.
//
// The same coordinate table feeds the deflection ranking (wrap-aware
// offsets plus the node's edge-link mask), so no hot-path query divides
// by the mesh width.  Degraded topologies (link faults) route through
// the BFS RouteTable instead; the lookup still serves their geometric
// deflection ranking.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "routing/deflect.hpp"
#include "routing/route.hpp"
#include "routing/routing_algorithm.hpp"
#include "topology/mesh.hpp"

namespace dxbar {

class RouteLookup {
 public:
  RouteLookup(RoutingAlgo algo, const Mesh& mesh);

  /// Preference-ordered productive ports under the configured algorithm;
  /// equal to compute_routes(algo, mesh, cur, dst).
  [[nodiscard]] const RouteSet& routes(NodeId cur, NodeId dst) const {
    return algo_[offset_class(cur, dst)];
  }

  /// Minimal-adaptive set; equal to minimal_routes(mesh, cur, dst).
  [[nodiscard]] const RouteSet& minimal(NodeId cur, NodeId dst) const {
    return minimal_[offset_class(cur, dst)];
  }

  /// Wrap-aware signed x / y offsets from `cur` to `dst`; equal to
  /// Mesh::offset_x / offset_y (torus ties break positive).
  [[nodiscard]] int offset_x(NodeId cur, NodeId dst) const noexcept {
    return wrap_axis(coord_x(dst) - coord_x(cur), width_);
  }
  [[nodiscard]] int offset_y(NodeId cur, NodeId dst) const noexcept {
    return wrap_axis(coord_y(dst) - coord_y(cur), height_);
  }

  /// Links leaving `n` in the healthy topology, bit port_index(d) set
  /// when Mesh::has_link(n, d).
  [[nodiscard]] unsigned link_mask(NodeId n) const noexcept {
    return packed_[n] >> kMaskShift;
  }

  /// deflection_ranking(mesh, cur, dst, salt), fed from the table.
  [[nodiscard]] std::array<Direction, kNumLinkDirs> deflection_ranking(
      NodeId cur, NodeId dst, std::uint64_t salt) const noexcept {
    return dxbar::deflection_ranking(offset_x(cur, dst), offset_y(cur, dst),
                                     link_mask(cur), salt);
  }

 private:
  // Packed node word: x in bits [0, 14), y in [14, 28), link mask in
  // [28, 32).
  static constexpr unsigned kAxisBits = 14;
  static constexpr std::uint32_t kAxisMask = (1u << kAxisBits) - 1;
  static constexpr unsigned kMaskShift = 2 * kAxisBits;

  [[nodiscard]] int coord_x(NodeId n) const noexcept {
    return static_cast<int>(packed_[n] & kAxisMask);
  }
  [[nodiscard]] int coord_y(NodeId n) const noexcept {
    return static_cast<int>((packed_[n] >> kAxisBits) & kAxisMask);
  }

  /// Mesh::axis_offset for a delta in (-k, k): fold into (-k/2, k/2].
  [[nodiscard]] int wrap_axis(int delta, int k) const noexcept {
    if (wrap_) {
      if (delta > k / 2) {
        delta -= k;
      } else if (delta <= k / 2 - k) {
        delta += k;
      }
    }
    return delta;
  }

  /// 3 * (sign(dx) + 1) + (sign(dy) + 1); class 4 is cur == dst.
  [[nodiscard]] std::size_t offset_class(NodeId cur,
                                         NodeId dst) const noexcept {
    const int dx = offset_x(cur, dst);
    const int dy = offset_y(cur, dst);
    return static_cast<std::size_t>(3 * ((dx > 0) - (dx < 0)) +
                                    ((dy > 0) - (dy < 0)) + 4);
  }

  int width_;
  int height_;
  bool wrap_;
  std::vector<std::uint32_t> packed_;  ///< one word per node
  std::array<RouteSet, 9> algo_{};
  std::array<RouteSet, 9> minimal_{};
};

}  // namespace dxbar
