#include "alloc/unified_allocator.hpp"

#include <bit>
#include <cassert>

namespace dxbar {
namespace {

constexpr std::uint64_t kOtherClass = std::uint64_t{1} << 63;
constexpr std::uint32_t kPortMask = (1u << kNumPorts) - 1u;

/// Packed priority key, lower == higher priority at the output arbiters:
/// bit 63 clear for the flit class favoured this cycle, then the age.
/// Unsigned order on the key is (class, age) lexicographic order.
std::uint64_t key_of(const UnifiedCandidate& c, bool is_incoming,
                     bool incoming_priority) noexcept {
  assert(c.age < kOtherClass);
  const bool favoured = c.elevated || (is_incoming == incoming_priority);
  return (favoured ? 0 : kOtherClass) | c.age;
}

}  // namespace

UnifiedGrants UnifiedAllocator::allocate(
    const std::array<UnifiedPortRequest, kNumPorts>& req,
    bool incoming_priority) const {
  UnifiedGrants result;

  // ---- Stage 1: per-output P:1 arbitration over input *ports* --------
  // Each port's request line for output o is the OR of its two flits'
  // requests; the arbiter grants the port whose best requesting flit has
  // the highest priority (age-ordered within priority class).  Ports
  // offer in ascending order, incoming flit before buffered, and only a
  // strictly better key displaces the standing winner, so the lower port
  // wins ties at an output.
  std::array<int, kNumPorts> output_winner;  // winning port per output
  output_winner.fill(-1);
  std::array<std::uint64_t, kNumPorts> best_key{};
  std::array<std::uint32_t, kNumPorts> in_masks{};
  std::array<std::uint32_t, kNumPorts> buf_masks{};
  auto offer = [&](std::uint32_t mask, std::uint64_t key, int p) {
    for (std::uint32_t m = mask; m != 0; m &= m - 1) {
      const int o = std::countr_zero(m);
      if (output_winner[o] < 0 || key < best_key[o]) {
        output_winner[o] = p;
        best_key[o] = key;
      }
    }
  };
  for (int p = 0; p < kNumPorts; ++p) {
    const UnifiedPortRequest& r = req[p];
    if (r.incoming.valid) {
      in_masks[p] = r.incoming.request_mask & kPortMask;
      offer(in_masks[p], key_of(r.incoming, true, incoming_priority), p);
    }
    if (r.buffered.valid) {
      buf_masks[p] = r.buffered.request_mask & kPortMask;
      offer(buf_masks[p], key_of(r.buffered, false, incoming_priority), p);
    }
  }
  std::array<std::uint32_t, kNumPorts> won{};  // outputs won per port
  for (int o = 0; o < kNumPorts; ++o) {
    if (output_winner[o] >= 0) won[output_winner[o]] |= 1u << o;
  }

  // ---- Stage 2: per-port serial V:1 binding + conflict-free swap -----
  for (int p = 0; p < kNumPorts; ++p) {
    if (won[p] == 0) continue;

    // The hardware binds the first won output via the first V:1 arbiter
    // and (serially) a second won output to the *other* flit.  We take
    // the first two won outputs, evaluate both flit<->output pairings,
    // and keep the better one — the swapped pairing models the
    // conflict-detection multiplexers firing.
    const std::uint32_t rest = won[p] & (won[p] - 1);
    const int o1 = std::countr_zero(won[p]);
    const int o2 = rest != 0 ? std::countr_zero(rest) : -1;

    auto legal = [](std::uint32_t mask, int o) {
      return o >= 0 && (mask & (1u << o)) != 0;
    };
    const std::uint32_t in_mask = in_masks[p];
    const std::uint32_t buf_mask = buf_masks[p];
    const int direct = (legal(in_mask, o1) ? 1 : 0) + (legal(buf_mask, o2) ? 1 : 0);
    const int swapped = (legal(in_mask, o2) ? 1 : 0) + (legal(buf_mask, o1) ? 1 : 0);

    UnifiedPortGrant& g = result.port[p];
    if (swapped > direct) {
      if (legal(in_mask, o2)) g.incoming_out = o2;
      if (legal(buf_mask, o1)) g.buffered_out = o1;
      // A true cross-swap needs both outputs; with a single won output
      // this branch is just the match stage binding the right flit.
      if (o2 >= 0) ++result.swaps;
    } else {
      if (legal(in_mask, o1)) g.incoming_out = o1;
      if (legal(buf_mask, o2)) g.buffered_out = o2;
    }
  }
  return result;
}

}  // namespace dxbar
