#include "layers.hpp"

namespace simbench {

dxbar::PacketId TimedInjector::inject_packet(dxbar::NodeId src,
                                             dxbar::NodeId dst, int length,
                                             Cycle now) {
  if (!active) return inner->inject_packet(src, dst, length, now);
  const std::int64_t t0 = now_ns();
  const dxbar::PacketId id = inner->inject_packet(src, dst, length, now);
  ns += static_cast<std::uint64_t>(now_ns() - t0);
  ++packets;
  return id;
}

dxbar::PacketId TimedInjector::inject_packet(dxbar::NodeId src,
                                             dxbar::NodeId dst, int length,
                                             Cycle now, dxbar::MsgClass cls) {
  if (!active) return inner->inject_packet(src, dst, length, now, cls);
  const std::int64_t t0 = now_ns();
  const dxbar::PacketId id = inner->inject_packet(src, dst, length, now, cls);
  ns += static_cast<std::uint64_t>(now_ns() - t0);
  ++packets;
  return id;
}

void TimedWorkload::begin_cycle(Cycle now, dxbar::Injector& inject) {
  injector_.inner = &inject;
  if (!active_) {
    inner_.begin_cycle(now, injector_);
    return;
  }
  const std::int64_t t0 = now_ns();
  inner_.begin_cycle(now, injector_);
  const auto ns = static_cast<std::uint64_t>(now_ns() - t0);
  begin_ns += ns;
  pending_ns_ += ns;
  ++begin_calls;
}

void TimedWorkload::on_packet_delivered(const dxbar::PacketRecord& rec,
                                        Cycle now, dxbar::Injector& inject) {
  injector_.inner = &inject;
  if (!active_) {
    inner_.on_packet_delivered(rec, now, injector_);
    return;
  }
  const std::int64_t t0 = now_ns();
  inner_.on_packet_delivered(rec, now, injector_);
  const auto ns = static_cast<std::uint64_t>(now_ns() - t0);
  delivered_ns += ns;
  pending_ns_ += ns;
  ++delivered_calls;
  minimal_hops += static_cast<std::uint64_t>(mesh_.distance(rec.src, rec.dst)) *
                  rec.length;
  taken_hops += rec.total_hops;
}

}  // namespace simbench
