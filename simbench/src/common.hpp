// Shared pieces of the simulator benchmark: clocks, order statistics,
// RunStats digests, the reference-digest table, flit-event counting and
// the metric sink that becomes the result line.
//
// The benchmark observes the library only through public calls (see
// simbench/README.md for the list of interfaces it must not use).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dxbar.hpp"

namespace simbench {

using dxbar::Cycle;
using dxbar::Network;
using dxbar::RouterDesign;
using dxbar::RunStats;
using dxbar::SimConfig;

// ---- clocks -----------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ---- order statistics ---------------------------------------------------

/// Median (mean of the two middle values for even counts); 0 when empty.
double median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it: the
/// 11th-largest value.  With ten or fewer samples there is no such
/// percentile and the maximum is returned.  `pct_out` receives the
/// percentile rank in [0, 100].
double tail(std::vector<double> v, double* pct_out = nullptr);

// ---- designs --------------------------------------------------------------

struct DesignInfo {
  RouterDesign design;
  const char* slug;  ///< metric-name component, e.g. "buffered_vc"
};

/// The ten designs of the router zoo, in the order the zoo kernel runs.
extern const std::vector<DesignInfo> kZoo;

// ---- digests and the reference table ------------------------------------

/// FNV-1a 64 of the save_run_stats serialisation of `s`.
std::uint64_t digest(const RunStats& s);

/// Reference digests recorded from the cold serial paths
/// (run_open_loop, shards=1), one record per (workload, reference seed).
struct Reference {
  /// workload -> seed -> per-point digests, in the order the workload
  /// generates its points.
  std::map<std::string, std::map<std::uint64_t, std::vector<std::uint64_t>>>
      digests;

  static Reference load(const std::string& path);
  [[nodiscard]] const std::vector<std::uint64_t>& points(
      const std::string& workload, std::uint64_t seed) const;
};

/// Number of seeds the reference table covers; a benchmark seed maps to
/// simulation seed 1 + (seed mod kReferenceSeeds).
inline constexpr std::uint64_t kReferenceSeeds = 32;

// ---- counting -------------------------------------------------------------

/// Injections (flits created) + link traversals + ejections since the
/// network was built; a difference of two readings counts the flit
/// events of the cycles in between.
std::uint64_t flit_events(const Network& net);

/// Points checked against the reference; a mismatch or an exception
/// counts as a failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> first_failures;  ///< a few, for the log

  void check(bool ok, const std::string& what);
  void fail(const std::string& what) { check(false, what); }
};

// ---- output ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Named metrics in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<std::pair<std::string, Metric>>& items()
      const noexcept {
    return items_;
  }
  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  [[nodiscard]] std::string result_json(const Tally& t) const;

 private:
  std::vector<std::pair<std::string, Metric>> items_;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace simbench
