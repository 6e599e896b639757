// Shared pieces of the benchmark: sample statistics, the metric
// report, seed derivation and the in-memory span log.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double to_s(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
[[nodiscard]] inline double to_ms(Clock::duration d) { return to_s(d) * 1e3; }
[[nodiscard]] inline double to_us(Clock::duration d) { return to_s(d) * 1e6; }

/// Nearest-rank position (1-based) of the p-th percentile among n
/// samples: ceil(p/100 * n), clamped to [1, n]. 0 when n == 0.
[[nodiscard]] std::size_t percentile_rank(std::size_t n, double p);

/// Nearest-rank p-th percentile of an unsorted sample; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);

[[nodiscard]] inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Samples strictly above the nearest-rank p-th percentile position.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// A percentile is reported as supported when at least ten samples lie
/// beyond it.
inline constexpr std::size_t kMinTailSamples = 10;
[[nodiscard]] inline bool tail_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinTailSamples;
}

/// Derives an independent stream seed from (workload, seed, stream), so
/// every schedule, graph and flap sequence is a pure function of the
/// workload name and the run seed.
[[nodiscard]] std::uint64_t derive_seed(std::string_view workload, std::uint64_t seed,
                                        std::uint64_t stream);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the value (0 = a count)
};

/// Ordered metric list. `human()` prints one line per metric with unit
/// and sample count; `json()` is the machine-readable result line.
class Report {
 public:
  void add(std::string name, double value, std::string unit, std::uint64_t samples = 0);
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const Metric* find(std::string_view name) const;
  [[nodiscard]] std::string human(std::string_view prefix) const;
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Formats a double with every significant digit (round-trip exact).
[[nodiscard]] std::string fmt_num(double v);

/// One recorded span. Times are nanoseconds since the log's epoch.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;      ///< index of the enclosing span, -1 = root
  std::uint64_t request = 0;     ///< request id shared by one request's spans
};

/// Spans kept in memory while a traced pass runs and written out as
/// JSON lines when the benchmark ends. Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Records [t0, t1) and returns the span's index (-1 when disabled).
  std::int64_t add(const char* name, Clock::time_point t0, Clock::time_point t1,
                   std::int64_t parent = -1, std::uint64_t request = 0);
  /// Writes one JSON object per line; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
