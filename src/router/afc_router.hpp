// Extension baseline: AFC-style adaptive flow control (Jafri, Hong,
// Thottethodi & Vijaykumar, MICRO'10), the related work the paper calls
// complementary: each router *switches modes* — bufferless deflection
// routing at low load, buffered operation at high load — instead of
// running both paths concurrently like DXbar.
//
// Mode control uses an exponential moving average of the router's
// arrival rate: above `kBufferOn` arrivals/cycle the router buffers,
// below `kBufferOff` (and once its FIFOs drained) it returns to
// bufferless operation.  Links carry no backpressure (as in AFC's
// bufferless substrate); in buffered mode a full FIFO falls back to
// deflection, so no flit is ever lost during mode transitions — the
// per-router handshaking the real AFC needs is exactly the complexity
// the paper criticises, and this model sidesteps it the same way the
// AFC paper's own "lossless transition" mechanism does.
#pragma once

#include <array>

#include "common/fixed_queue.hpp"
#include "router/router.hpp"

namespace dxbar {

class AfcRouter final : public Router {
 public:
  AfcRouter(NodeId id, const RouterEnv& env);

  void step(Cycle now) override;
  [[nodiscard]] int occupancy() const override;
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

  /// Activity gate (see router.hpp): bufferless mode with the
  /// arrival-rate EMA flushed to exactly 0.  With no arrival the EMA
  /// update then computes 0 * (1 - alpha) + 0 = 0, the mode test
  /// (0 > kBufferOn) fails, and the bufferless step gathers no flit —
  /// and bufferless mode holds no buffered flit, so there is nothing else
  /// to move.  The flush (see step()) is what lets an idle EMA reach 0
  /// instead of decaying into subnormals forever.
  [[nodiscard]] bool quiescent() const noexcept {
    return !buffered_mode_ && arrival_ema_ == 0.0;
  }

  // --- introspection for tests ---------------------------------------
  [[nodiscard]] bool buffered_mode() const { return buffered_mode_; }
  [[nodiscard]] std::uint64_t mode_switches() const { return mode_switches_; }

 private:
  /// EMA thresholds in arrivals/cycle (router capacity is ~4).
  static constexpr double kBufferOn = 1.75;
  static constexpr double kBufferOff = 1.0;
  static constexpr double kEmaAlpha = 1.0 / 32.0;
  /// EMA values below 2^-64 are flushed to 0.  That is under half an ulp
  /// of k * kEmaAlpha for any k >= 1, so the next arrival yields exactly
  /// the value an unflushed EMA would, and it is far below both
  /// thresholds, so no mode decision changes either.
  static constexpr double kEmaFlush = 0x1p-64;

  /// Output ports already claimed this cycle, and the ports that could
  /// send at the start of the step (see Router::sendable_mask).
  struct AllocState {
    unsigned taken = 0;
    unsigned sendable;
  };

  void step_bufferless(Cycle now);
  void step_buffered(Cycle now);
  std::optional<Direction> pick_output(const Flit& f, AllocState& st);
  void route_or_deflect(Flit f, AllocState& st);

  int degree_;
  std::array<FixedQueue<Flit>, kNumLinkDirs> buffers_;
  bool buffered_mode_ = false;
  double arrival_ema_ = 0.0;
  std::uint64_t mode_switches_ = 0;
};

}  // namespace dxbar
