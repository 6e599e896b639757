// Per-layer metrics of traced runs: the library counters and histograms
// they are computed from, and the fixed name/unit table they are
// reported in.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "cachegraph/obs/histogram.hpp"
#include "common.hpp"

namespace perfbench {

/// The obs counter registry values the per-layer split reads.
struct Counters {
  std::uint64_t query_settled = 0;
  std::uint64_t query_relaxations = 0;
  std::uint64_t pq_inserts = 0;
  std::uint64_t pq_extract_mins = 0;
  std::uint64_t pq_decrease_keys = 0;
  std::uint64_t sssp_batch_settled = 0;
  std::uint64_t fwr_base_cases = 0;
  std::uint64_t push_edges = 0;
  std::uint64_t wcc_rounds = 0;
  std::uint64_t bfs_rounds = 0;

  [[nodiscard]] static Counters take();
  [[nodiscard]] double pq_ops() const noexcept {
    return static_cast<double>(pq_inserts + pq_extract_mins + pq_decrease_keys);
  }
};

/// The query engine's time-split histograms (nanoseconds).
struct Histos {
  cachegraph::obs::HistogramSnapshot admission;
  cachegraph::obs::HistogramSnapshot queue_wait;
  cachegraph::obs::HistogramSnapshot compute;

  [[nodiscard]] static Histos take();
};

/// Collects per-layer values by name and emits every per-layer metric
/// in table order; names never set read 0.
class LayerValues {
 public:
  /// Throws std::logic_error for a name outside the table.
  void set(const std::string& name, double value);
  [[nodiscard]] static bool known(std::string_view name);
  /// obs.trace_overhead.<m> = traced ÷ untraced for each metric of `plain`.
  void set_overhead(const Report& traced, const Report& plain);
  void emit(Report& out) const;

 private:
  std::map<std::string, double, std::less<>> values_;
};

}  // namespace perfbench
