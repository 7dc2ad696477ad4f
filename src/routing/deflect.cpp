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

std::array<Direction, kNumLinkDirs> deflection_ranking(int dx, int dy,
                                                       unsigned link_mask,
                                                       std::uint64_t salt) {
  // Signed offset remaining along each direction's axis, positive when
  // the direction is productive (indexed like kLinkDirs).
  const std::array<int, kNumLinkDirs> progress = {dx, -dx, dy, -dy};

  // Score each direction: progress made (+2 per productive hop with the
  // larger remaining offset slightly preferred), link existence required.
  struct Ranked {
    Direction dir;
    int score;
  };
  std::array<Ranked, kNumLinkDirs> ranked{};
  for (int i = 0; i < kNumLinkDirs; ++i) {
    int score = -1000;  // never pick a missing edge link
    if ((link_mask >> i) & 1u) {
      const int p = progress[i];
      score = p > 0 ? 100 + p   // productive: larger offsets first
              : p < 0 ? -10     // anti-productive: last resort
                      : 0;
      // Deterministic tie-break so deflections spread over directions.
      score = score * 4 + static_cast<int>((salt >> (i * 2)) & 3);
    }
    // Stable insertion sort, best score first (equal scores keep
    // kLinkDirs order, exactly as std::sort does below 16 elements).
    int k = i;
    for (; k > 0 && ranked[k - 1].score < score; --k) ranked[k] = ranked[k - 1];
    ranked[k] = {kLinkDirs[i], score};
  }

  std::array<Direction, kNumLinkDirs> out{};
  for (int k = 0; k < kNumLinkDirs; ++k) out[k] = ranked[k].dir;
  return out;
}

}  // namespace dxbar
