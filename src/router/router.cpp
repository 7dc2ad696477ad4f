#include "router/router.hpp"

#include <cassert>

namespace dxbar {

Router::Router(NodeId id, const RouterEnv& env)
    : id_(id), env_(env), live_mask_(kLocalBit) {
  assert(env_.cfg != nullptr && env_.mesh != nullptr &&
         env_.energy != nullptr && env_.faults != nullptr);
  for (int d = 0; d < kNumLinkDirs; ++d) {
    if (env_.out_links[static_cast<std::size_t>(d)] != nullptr) {
      live_mask_ |= 1u << d;
    }
  }
}

}  // namespace dxbar
