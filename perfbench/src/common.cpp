#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::size_t percentile_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  auto rank = static_cast<std::size_t>(std::ceil(clamped / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t k = percentile_rank(v.size(), p) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

std::size_t samples_beyond(std::size_t n, double p) { return n - percentile_rank(n, p); }

std::uint64_t derive_seed(std::string_view workload, std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the workload name
  for (const char c : workload) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  // SplitMix64 finaliser over the combined words.
  std::uint64_t z = h ^ (seed * 0x9e3779b97f4a7c15ULL) ^ (stream * 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::add(std::string name, double value, std::string unit, std::uint64_t samples) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

const Metric* Report::find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Report::human(std::string_view prefix) const {
  std::ostringstream os;
  for (const Metric& m : metrics_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", m.value);
    os << prefix << m.name << " = " << buf << ' ' << m.unit;
    if (m.samples > 0) os << "  (n=" << m.samples << ')';
    os << '\n';
  }
  return os.str();
}

std::string Report::json(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": " << fmt_num(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::int64_t SpanLog::add(const char* name, Clock::time_point t0, Clock::time_point t1,
                          std::int64_t parent, std::uint64_t request) {
  if (!enabled_) return -1;
  const auto rel = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  };
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, rel(t0), rel(t1), parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
