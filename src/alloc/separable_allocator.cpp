#include "alloc/separable_allocator.hpp"

#include <bit>
#include <cassert>

namespace dxbar {

SeparableAllocator::SeparableAllocator(int num_inputs, int num_outputs)
    : num_inputs_(num_inputs),
      num_outputs_(num_outputs),
      output_arbiters_(arbiter_bank<kNumPorts>(num_inputs)),
      input_arbiters_(arbiter_bank<kNumPorts>(num_outputs)) {
  assert(num_inputs >= 1 && num_inputs <= kNumPorts);
  assert(num_outputs >= 1 && num_outputs <= kNumPorts);
}

std::array<int, kNumPorts> SeparableAllocator::allocate(
    std::span<const std::uint32_t> requests) {
  assert(static_cast<int>(requests.size()) == num_inputs_);

  // Stage 1: transpose the request rows into per-output columns, then
  // each output picks one requesting input and marks itself in that
  // input's "won" mask for stage 2.
  std::array<std::uint32_t, kNumPorts> column{};
  const std::uint32_t outputs = ~0u >> (32 - num_outputs_);
  for (int i = 0; i < num_inputs_; ++i) {
    for (std::uint32_t m = requests[i] & outputs; m != 0; m &= m - 1) {
      column[std::countr_zero(m)] |= 1u << i;
    }
  }
  std::array<std::uint32_t, kNumPorts> won{};
  for (int o = 0; o < num_outputs_; ++o) {
    const int winner = output_arbiters_[o].pick(column[o]);
    if (winner >= 0) won[winner] |= 1u << o;
  }

  // Stage 2: each input picks one output that granted it.  Only the
  // arbiters whose grants were actually consumed advance, so unmatched
  // requesters keep their priority (work-conserving rotation).
  std::array<int, kNumPorts> grant;
  grant.fill(-1);
  for (int i = 0; i < num_inputs_; ++i) {
    const int o = input_arbiters_[i].grant(won[i]);
    if (o < 0) continue;
    grant[i] = o;
    output_arbiters_[o].grant(1u << i);
  }
  return grant;
}

}  // namespace dxbar
