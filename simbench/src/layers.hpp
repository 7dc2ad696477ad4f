// Instruments that observe one layer of the simulator from outside,
// through the library's public extension points:
//
//  * TimedInjector / TimedWorkload wrap a WorkloadModel and the
//    Injector the network hands it, timing begin_cycle,
//    on_packet_delivered and inject_packet;
//  * CountingTracer is an EventTracer that counts hops, ejections and
//    created flits, so the flit-event counters can be audited.
//
// Wrapping never changes results: every call is forwarded unchanged, so
// a traced run's RunStats digest equals the untraced one.
#pragma once

#include <cstdint>

#include "common.hpp"

namespace simbench {

class TimedInjector final : public dxbar::Injector {
 public:
  dxbar::PacketId inject_packet(dxbar::NodeId src, dxbar::NodeId dst,
                                int length, Cycle now) override;
  dxbar::PacketId inject_packet(dxbar::NodeId src, dxbar::NodeId dst,
                                int length, Cycle now,
                                dxbar::MsgClass cls) override;

  dxbar::Injector* inner = nullptr;
  bool active = false;
  std::uint64_t ns = 0;
  std::uint64_t packets = 0;
};

class TimedWorkload final : public dxbar::WorkloadModel {
 public:
  TimedWorkload(dxbar::WorkloadModel& inner, const dxbar::Mesh& mesh)
      : inner_(inner), mesh_(mesh) {}

  void begin_cycle(Cycle now, dxbar::Injector& inject) override;
  void on_packet_delivered(const dxbar::PacketRecord& rec, Cycle now,
                           dxbar::Injector& inject) override;
  [[nodiscard]] bool finished() const override { return inner_.finished(); }
  void set_injection_enabled(bool on) override {
    inner_.set_injection_enabled(on);
  }
  void fill_run_stats(RunStats& out) const override {
    inner_.fill_run_stats(out);
  }
  [[nodiscard]] bool quiescent() const override { return inner_.quiescent(); }
  [[nodiscard]] bool snapshot_supported() const override {
    return inner_.snapshot_supported();
  }
  void save_state(dxbar::SnapshotWriter& w) const override {
    inner_.save_state(w);
  }
  void load_state(dxbar::SnapshotReader& r) override { inner_.load_state(r); }

  /// Timing and accounting happen only while active; inactive, every
  /// call is a bare forward.
  void set_active(bool on) {
    active_ = on;
    injector_.active = on;
  }
  /// Callback nanoseconds accumulated since the previous call.
  std::uint64_t take_callback_ns() {
    const std::uint64_t ns = pending_ns_;
    pending_ns_ = 0;
    return ns;
  }

  [[nodiscard]] const TimedInjector& injector() const { return injector_; }
  std::uint64_t begin_ns = 0;
  std::uint64_t begin_calls = 0;
  std::uint64_t delivered_ns = 0;
  std::uint64_t delivered_calls = 0;
  /// Minimal (Manhattan) flit-hops and flit-hops actually taken, over
  /// packets delivered while active.
  std::uint64_t minimal_hops = 0;
  std::uint64_t taken_hops = 0;

 private:
  dxbar::WorkloadModel& inner_;
  const dxbar::Mesh& mesh_;
  TimedInjector injector_;
  bool active_ = false;
  std::uint64_t pending_ns_ = 0;
};

class CountingTracer final : public dxbar::EventTracer {
 public:
  void on_packet_created(dxbar::PacketId, dxbar::NodeId, dxbar::NodeId,
                         int length, Cycle) override {
    flits_created += static_cast<std::uint64_t>(length);
  }
  void on_flit_hop(const dxbar::Flit&, dxbar::NodeId, Cycle) override {
    ++hops;
  }
  void on_flit_ejected(const dxbar::Flit&, Cycle) override { ++ejected; }

  std::uint64_t flits_created = 0;
  std::uint64_t hops = 0;
  std::uint64_t ejected = 0;
};

}  // namespace simbench
