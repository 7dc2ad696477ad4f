#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace simbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v, double* pct_out) {
  if (v.empty()) {
    if (pct_out != nullptr) *pct_out = 0.0;
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t idx = n > 10 ? n - 11 : n - 1;
  if (pct_out != nullptr) {
    *pct_out = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  }
  return v[idx];
}

const std::vector<DesignInfo> kZoo = {
    {RouterDesign::FlitBless, "flit_bless"},
    {RouterDesign::Scarab, "scarab"},
    {RouterDesign::Buffered4, "buffered4"},
    {RouterDesign::Buffered8, "buffered8"},
    {RouterDesign::DXbar, "dxbar"},
    {RouterDesign::UnifiedXbar, "unified"},
    {RouterDesign::BufferedVC, "buffered_vc"},
    {RouterDesign::Afc, "afc"},
    {RouterDesign::Damq, "damq"},
    {RouterDesign::MinBD, "minbd"},
};

std::uint64_t digest(const RunStats& s) {
  dxbar::SnapshotWriter w;
  dxbar::save_run_stats(w, s);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : w.data()) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Reference Reference::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference file " + path);
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload;
    std::uint64_t seed = 0;
    ls >> workload >> seed;
    if (!ls) throw std::runtime_error("malformed reference line: " + line);
    auto& points = ref.digests[workload][seed];
    std::string hex;
    while (ls >> hex) points.push_back(std::stoull(hex, nullptr, 16));
  }
  return ref;
}

const std::vector<std::uint64_t>& Reference::points(
    const std::string& workload, std::uint64_t seed) const {
  const auto w = digests.find(workload);
  if (w != digests.end()) {
    const auto s = w->second.find(seed);
    if (s != w->second.end()) return s->second;
  }
  throw std::runtime_error("no reference digests for " + workload +
                           " seed " + std::to_string(seed));
}

std::uint64_t flit_events(const Network& net) {
  std::uint64_t hops = 0;
  for (const auto& u : net.link_usage()) hops += u.flits;
  return net.flits_created() + hops + net.flits_delivered();
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (first_failures.size() < 8) first_failures.push_back(what);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  items_.push_back({name, {value, unit}});
}

std::string Metrics::result_json(const Tally& t) const {
  std::ostringstream o;
  o << "{\"correct\": " << (t.failed == 0 && t.attempted > 0 ? "true" : "false")
    << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : items_) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    o << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << num
      << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  o << "}}";
  return o.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace simbench
