#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/flit.hpp"

namespace dxbar {
namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

bool parse_double(std::string_view v, double& out) {
  // std::from_chars<double> is not universally available; use strtod on a
  // bounded copy.
  std::string buf(v);
  char* end = nullptr;
  const double x = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  out = x;
  return true;
}

/// Parses an integer straight into the field's own type, so a value it
/// cannot hold (a negative cycle count, 2^32 + 1 as an int) is a bad
/// value rather than a silent wrap; `out` is untouched on failure.
template <typename T>
bool parse_int(std::string_view v, T& out) {
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc{} && p == v.data() + v.size();
}

}  // namespace

bool parse_design(std::string_view name, RouterDesign& out) {
  const std::string n = lower(name);
  if (n == "bless" || n == "flit-bless" || n == "flitbless") {
    out = RouterDesign::FlitBless;
  } else if (n == "scarab") {
    out = RouterDesign::Scarab;
  } else if (n == "buffered4" || n == "buffered") {
    out = RouterDesign::Buffered4;
  } else if (n == "buffered8") {
    out = RouterDesign::Buffered8;
  } else if (n == "dxbar") {
    out = RouterDesign::DXbar;
  } else if (n == "unified" || n == "unifiedxbar") {
    out = RouterDesign::UnifiedXbar;
  } else if (n == "bufferedvc" || n == "vc") {
    out = RouterDesign::BufferedVC;
  } else if (n == "afc") {
    out = RouterDesign::Afc;
  } else if (n == "damq") {
    out = RouterDesign::Damq;
  } else if (n == "minbd") {
    out = RouterDesign::MinBD;
  } else {
    return false;
  }
  return true;
}

bool parse_pattern(std::string_view name, TrafficPattern& out) {
  const std::string n = lower(name);
  if (n == "ur" || n == "uniform") {
    out = TrafficPattern::UniformRandom;
  } else if (n == "nur" || n == "hotspot") {
    out = TrafficPattern::NonUniformRandom;
  } else if (n == "br" || n == "bitreversal") {
    out = TrafficPattern::BitReversal;
  } else if (n == "bf" || n == "butterfly") {
    out = TrafficPattern::Butterfly;
  } else if (n == "cp" || n == "complement") {
    out = TrafficPattern::Complement;
  } else if (n == "mt" || n == "transpose") {
    out = TrafficPattern::Transpose;
  } else if (n == "ps" || n == "shuffle") {
    out = TrafficPattern::PerfectShuffle;
  } else if (n == "nb" || n == "neighbor") {
    out = TrafficPattern::Neighbor;
  } else if (n == "tor" || n == "tornado") {
    out = TrafficPattern::Tornado;
  } else {
    return false;
  }
  return true;
}

bool parse_routing(std::string_view name, RoutingAlgo& out) {
  const std::string n = lower(name);
  if (n == "dor" || n == "xy") {
    out = RoutingAlgo::DOR;
  } else if (n == "wf" || n == "west-first" || n == "westfirst") {
    out = RoutingAlgo::WestFirst;
  } else if (n == "nf" || n == "negative-first" || n == "negativefirst") {
    out = RoutingAlgo::NegativeFirst;
  } else if (n == "nl" || n == "north-last" || n == "northlast") {
    out = RoutingAlgo::NorthLast;
  } else {
    return false;
  }
  return true;
}

std::string SimConfig::validate() const {
  if (mesh_width < 2 || mesh_height < 2) {
    return "mesh must be at least 2x2";
  }
  if (buffer_depth < 1) return "buffer_depth must be >= 1";
  if (fairness_threshold < 1) return "fairness_threshold must be >= 1";
  if (stall_escape_delay < 1) return "stall_escape_delay must be >= 1";
  if (num_vcs < 1) return "num_vcs must be >= 1";
  if (design == RouterDesign::BufferedVC && buffer_depth % num_vcs != 0) {
    return "buffer_depth must be divisible by num_vcs for the VC router";
  }
  if (offered_load < 0.0 || offered_load > 1.0) {
    return "offered_load must lie in [0, 1]";
  }
  if (warmup_load > 1.0) {
    return "warmup_load must lie in [0, 1] (or be negative for "
           "\"same as offered_load\")";
  }
  if (packet_length < 1 || packet_length > kMaxPacketLength) {
    return "packet_length must lie in [1, 255]";
  }
  // Flits stamp cycles as u32, so a run may not reach kCycleLimit (each
  // term is bounded first so the sum cannot wrap).
  if (warmup_cycles > kCycleLimit || measure_cycles > kCycleLimit ||
      drain_cycles > kCycleLimit ||
      warmup_cycles + measure_cycles + drain_cycles > kCycleLimit) {
    return "warmup_cycles + measure_cycles + drain_cycles must be < 2^32";
  }
  if (flit_bits < 1) return "flit_bits must be >= 1";
  if (tech_node != 65 && tech_node != 32 && tech_node != 16) {
    return "tech_node must be one of 65, 32, 16 (nm)";
  }
  if (mlp < 1) return "mlp must be >= 1";
  if (request_length < 1 || request_length > kMaxPacketLength) {
    return "request_length must lie in [1, 255]";
  }
  if (hotspot_fraction < 0.0 || hotspot_fraction > 1.0) {
    return "hotspot_fraction must lie in [0, 1]";
  }
  if (read_fraction < 0.0 || read_fraction > 1.0) {
    return "read_fraction must lie in [0, 1]";
  }
  if (workload == WorkloadKind::ClosedLoop &&
      design == RouterDesign::BufferedVC && num_vcs < 2) {
    // Replies ride a reserved VC partition on the VC router; with one VC
    // there is no partition and request-reply cycles could deadlock.
    return "closedloop workload on the VC router requires num_vcs >= 2";
  }
  if (fault_fraction < 0.0 || fault_fraction > 1.0) {
    return "fault_fraction must lie in [0, 1]";
  }
  if (link_fault_fraction < 0.0 || link_fault_fraction > 1.0) {
    return "link_fault_fraction must lie in [0, 1]";
  }
  if (torus && (design == RouterDesign::Buffered4 ||
                design == RouterDesign::Buffered8 ||
                design == RouterDesign::BufferedVC ||
                design == RouterDesign::Damq)) {
    // Wrap links close ring dependency cycles; without VC datelines the
    // credit-based designs (DAMQ included — its grants are credits over
    // a shared pool) can deadlock on a torus.
    return "torus requires a design with a deflection escape valve "
           "(dxbar, unified, bless, scarab, afc, minbd)";
  }
  if (link_fault_fraction > 0.0 &&
      (design == RouterDesign::Buffered4 ||
       design == RouterDesign::Buffered8 ||
       design == RouterDesign::BufferedVC ||
       design == RouterDesign::Damq)) {
    // Fault-aware table routing abandons the turn-model acyclicity the
    // credit-based routers rely on; without a deflection escape valve
    // they can deadlock on a degraded topology.
    return "link faults require a design with a deflection escape valve "
           "(dxbar, unified, bless, scarab, afc, minbd)";
  }
  if (source_queue_depth < 1) return "source_queue_depth must be >= 1";
  if (retransmit_buffer < 1) return "retransmit_buffer must be >= 1";
  if (shards < 1) return "shards must be >= 1";
  return {};
}

std::string SimConfig::describe() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "mesh              %dx%d%s\n"
      "design            %s\n"
      "routing           %s\n"
      "pattern           %s\n"
      "workload          %s (mlp %d, service %llu, req_len %d, "
      "hotspot %.2f, reads %.2f)\n"
      "offered_load      %.3f\n"
      "packet_length     %d flits (%d bits each)\n"
      "tech_node         %d nm\n"
      "buffer_depth      %d\n"
      "num_vcs           %d\n"
      "fairness          %d\n"
      "stall_escape      %d\n"
      "phases            warmup %llu / measure %llu / drain %llu\n"
      "faults            crossbar %.2f (detect %llu, spread %llu), "
      "links %.2f\n"
      "shards            %d\n"
      "seed              %llu\n"
      "measure_seed      %llu\n",
      mesh_width, mesh_height, torus ? " torus" : "",
      std::string(to_string(design)).c_str(),
      std::string(to_string(routing)).c_str(),
      std::string(to_string(pattern)).c_str(),
      std::string(to_string(workload)).c_str(), mlp,
      static_cast<unsigned long long>(service_delay), request_length,
      hotspot_fraction, read_fraction, offered_load, packet_length,
      flit_bits, tech_node, buffer_depth, num_vcs, fairness_threshold,
      stall_escape_delay, static_cast<unsigned long long>(warmup_cycles),
      static_cast<unsigned long long>(measure_cycles),
      static_cast<unsigned long long>(drain_cycles), fault_fraction,
      static_cast<unsigned long long>(fault_detect_delay),
      static_cast<unsigned long long>(fault_onset_spread),
      link_fault_fraction, shards, static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(measure_seed));
  return buf;
}

std::string apply_override(SimConfig& cfg, std::string_view arg) {
  const auto eq = arg.find('=');
  if (eq == std::string_view::npos) {
    return "expected key=value, got '" + std::string(arg) + "'";
  }
  const std::string key = lower(arg.substr(0, eq));
  const std::string_view val = arg.substr(eq + 1);

  auto bad = [&] { return "bad value for '" + key + "'"; };

  double d = 0.0;
  if (key == "width") {
    if (!parse_int(val, cfg.mesh_width)) return bad();
  } else if (key == "height") {
    if (!parse_int(val, cfg.mesh_height)) return bad();
  } else if (key == "topology") {
    const std::string t = lower(val);
    if (t == "torus") {
      cfg.torus = true;
    } else if (t == "mesh") {
      cfg.torus = false;
    } else {
      return bad();
    }
  } else if (key == "design") {
    if (!parse_design(val, cfg.design)) return bad();
  } else if (key == "routing") {
    if (!parse_routing(val, cfg.routing)) return bad();
  } else if (key == "pattern") {
    if (!parse_pattern(val, cfg.pattern)) return bad();
  } else if (key == "buffer_depth") {
    if (!parse_int(val, cfg.buffer_depth)) return bad();
  } else if (key == "fairness_threshold") {
    if (!parse_int(val, cfg.fairness_threshold)) return bad();
  } else if (key == "stall_escape") {
    if (!parse_int(val, cfg.stall_escape_delay)) return bad();
  } else if (key == "num_vcs") {
    if (!parse_int(val, cfg.num_vcs)) return bad();
  } else if (key == "workload") {
    const std::string w = lower(val);
    if (w == "synthetic" || w == "open") {
      cfg.workload = WorkloadKind::Synthetic;
    } else if (w == "closedloop" || w == "closed") {
      cfg.workload = WorkloadKind::ClosedLoop;
    } else {
      return bad();
    }
  } else if (key == "mlp") {
    if (!parse_int(val, cfg.mlp)) return bad();
  } else if (key == "service_delay") {
    if (!parse_int(val, cfg.service_delay)) return bad();
  } else if (key == "request_length") {
    if (!parse_int(val, cfg.request_length)) return bad();
  } else if (key == "hotspot_fraction") {
    if (!parse_double(val, d)) return bad();
    cfg.hotspot_fraction = d;
  } else if (key == "read_fraction") {
    if (!parse_double(val, d)) return bad();
    cfg.read_fraction = d;
  } else if (key == "load") {
    if (!parse_double(val, d)) return bad();
    cfg.offered_load = d;
  } else if (key == "warmup_load") {
    if (!parse_double(val, d)) return bad();
    cfg.warmup_load = d;
  } else if (key == "packet_length") {
    if (!parse_int(val, cfg.packet_length)) return bad();
  } else if (key == "flit_bits") {
    if (!parse_int(val, cfg.flit_bits)) return bad();
  } else if (key == "tech") {
    if (!parse_int(val, cfg.tech_node)) return bad();
  } else if (key == "warmup") {
    if (!parse_int(val, cfg.warmup_cycles)) return bad();
  } else if (key == "measure") {
    if (!parse_int(val, cfg.measure_cycles)) return bad();
  } else if (key == "drain") {
    if (!parse_int(val, cfg.drain_cycles)) return bad();
  } else if (key == "faults") {
    if (!parse_double(val, d)) return bad();
    cfg.fault_fraction = d;
  } else if (key == "link_faults") {
    if (!parse_double(val, d)) return bad();
    cfg.link_fault_fraction = d;
  } else if (key == "fault_onset_spread") {
    if (!parse_int(val, cfg.fault_onset_spread)) return bad();
  } else if (key == "shards") {
    if (!parse_int(val, cfg.shards)) return bad();
  } else if (key == "seed") {
    if (!parse_int(val, cfg.seed)) return bad();
  } else if (key == "measure_seed") {
    if (!parse_int(val, cfg.measure_seed)) return bad();
  } else {
    return "unknown key '" + key + "'";
  }
  return {};
}

std::string apply_overrides(SimConfig& cfg,
                            std::span<const char* const> args) {
  for (const char* a : args) {
    if (auto err = apply_override(cfg, a); !err.empty()) return err;
  }
  return {};
}

}  // namespace dxbar
