// The serve_* workloads: open-loop traffic through serving::Router on a
// road-like grid, a closed-loop capacity probe, seeded link flaps for
// serve_churn, and an oracle check of every OK answer.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cachegraph/common/rng.hpp"
#include "cachegraph/obs/counters.hpp"
#include "cachegraph/obs/metrics.hpp"
#include "cachegraph/sssp/dijkstra.hpp"
#include "cachegraph/store/blocked_file.hpp"
#include "cachegraph/store/writer.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace cg = cachegraph;
using cg::serving::TrafficKind;
using StatusCode = cg::reliability::StatusCode;

namespace {

constexpr vertex_t kSide = 128;
constexpr std::uint32_t kShards = 4;
constexpr vertex_t kNearbyK = 1024;
constexpr std::size_t kBlockBytes = 1024;
constexpr std::chrono::milliseconds kBulkLimit{1000};
constexpr int kSetups = 3;
constexpr double kWarmSeconds = 1.0;
constexpr std::size_t kCapacityMix = 1024;
/// Share of --seconds in the open-loop window; the rest probes capacity.
constexpr double kOpenShare = 0.75;
/// The open-loop window and the capacity probe are each cut into this
/// many equal slices; `p50_ms` and `throughput_per_s` are medians over
/// them, so a host stall that covers a slice or two moves few of them.
constexpr std::size_t kSlices = 10;
/// Service threads sleep until this long before an arrival is due and
/// spin for the rest: on a busy host a vCPU that has gone idle can take
/// milliseconds to be woken, and the request would be charged for it.
constexpr std::chrono::microseconds kSpin{2000};

/// One grid for every serve workload and seed: its weights decide how
/// much of a shard each probe settles, and so how often it faults.
constexpr std::uint64_t kGridSeed = 1;

enum Stream : std::uint64_t {
  kWarmStream = 2,
  kWindowStream,
  kCapacityStream,
  kWindowFlapStream,
  kCapacityFlapStream,
  kRankStream,
};

const std::vector<ServeSpec>& specs() {
  // The rates keep each service thread busy about a fifth of the time.
  static const std::vector<ServeSpec> s{
      {"serve_mem", 1, false, false, true, 150.0, 30.0, 100, 0.0},
      // Probes fault ~3,000 blocks per route, so host stalls stretch the
      // tail several-fold; the limit keeps a healthy run free of misses.
      // 50 req/s keeps >= 1,000 routes in a 22.5 s window.
      {"serve_ooc", 2, true, false, false, 50.0, 0.0, 250, 0.0},
      // Reads right after an intra-shard flap recompute that shard's
      // portal trees inline and queue behind each other for ~0.2 s, so
      // the interactive limit leaves room for one recompute storm.
      {"serve_churn", 1, false, true, true, 150.0, 30.0, 1000, 1.5},
  };
  return s;
}

/// Two service threads (one on a host with fewer than four cores) leave
/// half the cores to everything else, so requests seldom overlap: the
/// default build bumps shared atomic counters on every heap operation,
/// and overlapping searches slow each other down.
int service_threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw / 2, 1, 2);
}

/// Threads for set-up and the oracle, which are not timed per request.
int setup_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
}

/// Runs fn(i) for i in [0, count) on `threads` threads.
template <typename Fn>
void parallel_for(std::size_t count, int threads, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

// ------------------------------------------------------------ fleet

struct Fleet {
  std::unique_ptr<RouterT> router;
  std::uint32_t tenants[2] = {0, 0};  ///< interactive, bulk
  std::chrono::milliseconds interactive_limit{0};

  [[nodiscard]] std::chrono::milliseconds limit_of(TrafficKind k) const {
    return k == TrafficKind::kFullSssp ? kBulkLimit : interactive_limit;
  }
};

std::vector<vertex_t> entry_vertices(const cg::graph::AdjacencyArray<W>& g,
                                     const cg::serving::Partition& part) {
  std::vector<vertex_t> out;
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    for (const auto& nb : g.neighbors(u)) {
      if (part.shard_of(nb.to) != part.shard_of(u)) out.push_back(nb.to);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// A tenth of one shard's blocks. Every shard of the grid has the same
/// shape, so shard 0's blocked file sizes all of them.
std::size_t ooc_budget_blocks(const std::vector<Link>& links, const std::filesystem::path& dir) {
  const cg::serving::Partition part(kSide * kSide, kShards);
  cg::graph::EdgeListGraph<W> local(part.size(0));
  for (const Link& l : links) {
    if (part.shard_of(l.u) == 0 && part.shard_of(l.v) == 0) {
      local.add_edge(l.u, l.v, l.w);
      local.add_edge(l.v, l.u, l.w);
    }
  }
  const cg::graph::AdjacencyArray<W> csr(local);
  const auto path = dir / "probe.cgb";
  cg::store::WriteOptions wo;
  wo.block_bytes = kBlockBytes;
  if (auto st = cg::store::write_blocked(path, csr, wo); !st.is_ok()) {
    throw std::runtime_error("cannot write " + path.string() + ": " + st.to_string());
  }
  auto file = cg::store::BlockedFile<W>::open(path, cg::store::Backend::kPread);
  if (!file) throw std::runtime_error("cannot open " + path.string());
  const std::size_t blocks = (*file)->num_blocks();
  file->reset();
  std::filesystem::remove(path);
  return std::max<std::size_t>(1, blocks / 10);
}

Fleet build_fleet(const ServeSpec& spec, const cg::graph::AdjacencyArray<W>& g,
                  const std::vector<vertex_t>& entries, std::size_t budget,
                  const std::filesystem::path& dir, int threads) {
  Fleet f;
  f.interactive_limit = std::chrono::milliseconds(spec.interactive_limit_ms);
  RouterT::Config cfg;
  cfg.shards = kShards;
  cfg.replicas = spec.replicas;
  f.router = std::make_unique<RouterT>(g, cfg);
  RouterT& r = *f.router;
  if (spec.out_of_core) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    if (auto st = r.enable_out_of_core(dir, kBlockBytes, budget); !st.is_ok()) {
      throw std::runtime_error("enable_out_of_core: " + st.to_string());
    }
  }
  f.tenants[0] = r.add_tenant("interactive", {});
  f.tenants[1] = r.add_tenant("bulk", {});
  // Every entry tree of every replica, built before the first timed call.
  const std::size_t per = entries.size();
  parallel_for(per * spec.replicas, threads, [&](std::size_t i) {
    const vertex_t v = entries[i % per];
    auto& sh = r.replica_set(r.partition().shard_of(v)).replica(static_cast<std::uint32_t>(i / per));
    (void)sh.local_tree(v - sh.begin());
  });
  // Scratch leases: one request of each kind on each set-up thread, at
  // least as many as there are service threads.
  parallel_for(static_cast<std::size_t>(threads), threads, [&](std::size_t i) {
    const auto a = static_cast<vertex_t>(i * 977 % static_cast<std::size_t>(g.num_vertices()));
    const vertex_t b = g.num_vertices() - 1 - a;
    (void)r.dispatch(cg::query::Request<W>{cg::query::PointToPoint{a, b}});
    if (spec.mixed) {
      std::vector<NearItem> near;
      (void)r.k_nearest(a, kNearbyK, near);
      (void)r.dispatch(cg::query::Request<W>{cg::query::FullSSSP{a}});
    }
  });
  return f;
}

// ------------------------------------------------------------ churn

/// Quiescent-point gate: flaps pause new starts, wait for in-flight
/// requests, mutate, and resume. Every request records the graph
/// version (epoch) it ran under.
class Gate {
 public:
  Gate(std::vector<int>& versions, int down) : versions_(versions), down_(down) {
    versions_.push_back(down);
    epoch_ = static_cast<std::uint32_t>(versions_.size() - 1);
  }

  std::uint32_t enter() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !paused_; });
    ++in_flight_;
    return epoch_;
  }

  void leave() {
    bool wake = false;
    {
      const std::lock_guard<std::mutex> lk(mu_);
      --in_flight_;
      wake = paused_ && in_flight_ == 0;
    }
    if (wake) cv_.notify_all();
  }

  struct FlapTime {
    double update_ms = 0.0;  ///< due → mutation applied, drain included
    double drain_ms = 0.0;
    double apply_us = 0.0;
  };

  FlapTime flap(RouterT& r, const std::vector<Link>& links, int link, Clock::time_point due,
                SpanLog& spans) {
    FlapTime out;
    std::unique_lock<std::mutex> lk(mu_);
    paused_ = true;
    cv_.wait(lk, [&] { return in_flight_ == 0; });
    const auto drained = Clock::now();
    const Link& l = links[static_cast<std::size_t>(link)];
    const bool removed = r.remove_edge(l.u, l.v) && r.remove_edge(l.v, l.u);
    if (!removed) throw std::runtime_error("flap: link to remove is missing");
    const auto removed_at = Clock::now();
    if (down_ >= 0) {
      const Link& back = links[static_cast<std::size_t>(down_)];
      r.insert_edge(back.u, back.v, back.w);
      r.insert_edge(back.v, back.u, back.w);
    }
    const auto applied = Clock::now();
    down_ = link;
    versions_.push_back(down_);
    epoch_ = static_cast<std::uint32_t>(versions_.size() - 1);
    paused_ = false;
    lk.unlock();
    cv_.notify_all();
    out.update_ms = to_ms(applied - due);
    out.drain_ms = to_ms(drained - due);
    out.apply_us = to_us(applied - drained);
    const auto root = spans.add("flap", due, applied);
    spans.add("flap.drain", due, drained, root);
    spans.add("router.remove_edge", drained, removed_at, root);
    spans.add("router.insert_edge", removed_at, applied, root);
    return out;
  }

 private:
  std::vector<int>& versions_;
  int down_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = false;
  int in_flight_ = 0;
  std::uint32_t epoch_ = 0;
};

// ---------------------------------------------------------- traffic

struct Rec {
  TrafficKind kind = TrafficKind::kPointToPoint;
  vertex_t source = 0;
  vertex_t target = 0;
  vertex_t k = 0;
  StatusCode code = StatusCode::kOk;
  bool in_limit = false;
  std::uint32_t epoch = 0;
  double lat_ms = 0.0;      ///< completion − due
  double wait_ms = 0.0;     ///< due → start, beyond the generator's own lateness
  double late_ms = 0.0;     ///< generator wake-up lateness
  double service_ms = 0.0;  ///< start → completion
  double done_s = 0.0;      ///< completion, seconds after the loop started
  W dist = 0;
  std::vector<NearItem> near;
  RouterT::TreePtr tree;

  [[nodiscard]] bool ok() const noexcept { return code == StatusCode::kOk && in_limit; }
};

/// One request through the Router, deadline `limit` after `due`.
void serve_one(Fleet& f, const Sched& s, Clock::time_point due, Rec& rec) {
  cg::serving::CallOptions opts;
  opts.deadline = cg::reliability::Deadline::at(due + f.limit_of(s.kind));
  RouterT& r = *f.router;
  rec.kind = s.kind;
  rec.source = s.source;
  rec.target = s.target;
  rec.k = s.k;
  switch (s.kind) {
    case TrafficKind::kPointToPoint: {
      const auto res = r.try_serve(f.tenants[s.tenant],
                                   cg::query::Request<W>{cg::query::PointToPoint{s.source, s.target}},
                                   opts);
      rec.code = res.status.code();
      rec.dist = res.target_dist;
      break;
    }
    case TrafficKind::kKNearest:
      rec.code = r.k_nearest(s.source, s.k, rec.near, opts).code();
      break;
    default: {
      const auto res =
          r.try_serve(f.tenants[s.tenant], cg::query::Request<W>{cg::query::FullSSSP{s.source}}, opts);
      rec.code = res.status.code();
      rec.tree = res.tree;
      break;
    }
  }
}

struct Window {
  std::vector<Rec> recs;
  double seconds = 0.0;
  double busy_s = 0.0;
  std::vector<Gate::FlapTime> flaps;
};

/// Runs flaps at their instants on the calling thread, then joins
/// `pool` (also when a flap throws, before rethrowing).
void run_flaps_and_join(Fleet& f, Gate& gate, const std::vector<Link>& links,
                        const std::vector<Flap>& flaps, Clock::time_point start, SpanLog& spans,
                        Window& w, std::vector<std::thread>& pool) {
  std::exception_ptr err;
  try {
    for (const Flap& fl : flaps) {
      const auto due = start + std::chrono::nanoseconds(static_cast<std::int64_t>(fl.at_s * 1e9));
      std::this_thread::sleep_until(due);
      w.flaps.push_back(gate.flap(*f.router, links, fl.link, due, spans));
    }
  } catch (...) {
    err = std::current_exception();
  }
  for (auto& th : pool) th.join();
  if (err) std::rethrow_exception(err);
}

/// Open loop: each service thread claims the next arrival, waits until
/// it is due and serves it on its own thread (no hand-off). Latency is
/// measured from the scheduled arrival.
Window open_loop(Fleet& f, Gate& gate, const std::vector<Link>& links,
                 const std::vector<Sched>& sched, const std::vector<Flap>& flaps,
                 double seconds, int threads, SpanLog& spans) {
  Window w;
  w.recs.resize(sched.size());
  w.seconds = seconds;
  std::atomic<std::size_t> next{0};
  std::vector<double> busy(static_cast<std::size_t>(threads), 0.0);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = next.fetch_add(1); i < sched.size(); i = next.fetch_add(1)) {
        const auto due = start + std::chrono::nanoseconds(sched[i].at_ns);
        const auto claim = Clock::now();
        std::this_thread::sleep_until(due - kSpin);
        while (Clock::now() < due) {
        }
        const auto woke = Clock::now();
        Rec& rec = w.recs[i];
        rec.epoch = gate.enter();
        const auto t0 = Clock::now();
        serve_one(f, sched[i], due, rec);
        const auto t1 = Clock::now();
        gate.leave();
        const auto ready = std::max(due, claim);
        rec.late_ms = to_ms(woke - ready);
        rec.wait_ms = to_ms(claim > due ? claim - due : Clock::duration::zero()) + to_ms(t0 - woke);
        rec.service_ms = to_ms(t1 - t0);
        rec.lat_ms = to_ms(t1 - due);
        rec.in_limit = t1 - due <= f.limit_of(sched[i].kind);
        busy[static_cast<std::size_t>(t)] += to_s(t1 - t0);
        if (spans.enabled()) {
          const std::uint64_t id = i + 1;
          const auto root = spans.add("request", due, t1, -1, id);
          spans.add("driver.wait", due, t0, root, id);
          spans.add(sched[i].kind == TrafficKind::kKNearest ? "router.k_nearest"
                                                            : "router.try_serve",
                    t0, t1, root, id);
        }
      }
    });
  }
  run_flaps_and_join(f, gate, links, flaps, start, spans, w, pool);
  w.busy_s = std::accumulate(busy.begin(), busy.end(), 0.0);
  return w;
}

/// Closed loop: `clients` threads replay `mix` back to back for
/// `seconds`; returns the median over kSlices equal slices of the rate
/// of OK-within-limit completions, k completions in a slice giving
/// k - 1 intervals between its first and last.
double closed_loop(Fleet& f, Gate& gate, const std::vector<Link>& links,
                   const std::vector<Sched>& mix, const std::vector<Flap>& flaps,
                   double seconds, int clients, SpanLog& spans, std::vector<Rec>& out) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Rec>> per(static_cast<std::size_t>(clients));
  const auto start = Clock::now();
  const auto end = start + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      while (Clock::now() < end) {
        const std::size_t i = next.fetch_add(1) % mix.size();
        Rec rec;
        rec.epoch = gate.enter();
        const auto t0 = Clock::now();
        serve_one(f, mix[i], t0, rec);
        const auto t1 = Clock::now();
        gate.leave();
        rec.service_ms = rec.lat_ms = to_ms(t1 - t0);
        rec.done_s = to_s(t1 - start);
        rec.in_limit = t1 - t0 <= f.limit_of(mix[i].kind) && t1 <= end;
        if (spans.enabled()) spans.add("capacity.request", t0, t1);
        per[static_cast<std::size_t>(c)].push_back(std::move(rec));
      }
    });
  }
  Window w;
  run_flaps_and_join(f, gate, links, flaps, start, spans, w, pool);
  const double slice_s = seconds / kSlices;
  std::vector<std::vector<double>> done(kSlices);
  for (auto& v : per) {
    for (auto& rec : v) {
      const auto slice = static_cast<std::size_t>(rec.done_s / slice_s);
      if (rec.ok()) done[std::min(kSlices - 1, slice)].push_back(rec.done_s);
      out.push_back(std::move(rec));
    }
  }
  std::vector<double> rates;
  for (auto& d : done) {
    if (d.size() < 2) continue;
    const auto [first, last] = std::minmax_element(d.begin(), d.end());
    if (*last > *first) rates.push_back(static_cast<double>(d.size() - 1) / (*last - *first));
  }
  return median(rates);
}

// ----------------------------------------------------------- oracle

struct CheckResult {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
};

/// Compares every OK answer with sssp::dijkstra on the unsharded graph
/// version the request ran under.
CheckResult check_answers(const std::vector<const Rec*>& recs, const std::vector<Link>& links,
                          const std::vector<int>& versions, int threads) {
  std::vector<const Rec*> ok;
  for (const Rec* r : recs) {
    if (r->code == StatusCode::kOk) ok.push_back(r);
  }
  std::sort(ok.begin(), ok.end(), [](const Rec* a, const Rec* b) {
    return a->epoch != b->epoch ? a->epoch < b->epoch : a->source < b->source;
  });
  std::map<int, std::unique_ptr<cg::graph::AdjacencyArray<W>>> graphs;
  for (const Rec* r : ok) {
    const int down = versions[r->epoch];
    if (!graphs.count(down)) {
      graphs[down] = std::make_unique<cg::graph::AdjacencyArray<W>>(
          grid_arcs(kSide * kSide, links, down));
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> groups;  // [begin, end) in ok
  for (std::size_t i = 0; i < ok.size();) {
    std::size_t j = i;
    while (j < ok.size() && ok[j]->epoch == ok[i]->epoch && ok[j]->source == ok[i]->source) ++j;
    groups.emplace_back(i, j);
    i = j;
  }
  std::atomic<std::uint64_t> bad{0};
  parallel_for(groups.size(), threads, [&](std::size_t gi) {
    const auto [b, e] = groups[gi];
    const auto& g = *graphs.at(versions[ok[b]->epoch]);
    const auto oracle = cg::sssp::dijkstra(g, ok[b]->source).dist;
    for (std::size_t i = b; i < e; ++i) {
      const Rec& r = *ok[i];
      bool good = true;
      switch (r.kind) {
        case TrafficKind::kPointToPoint: good = check_route(oracle, r.target, r.dist); break;
        case TrafficKind::kKNearest: good = check_nearby(oracle, r.k, r.near); break;
        default: good = r.tree != nullptr && check_tree(oracle, r.tree->dist); break;
      }
      if (!good) bad.fetch_add(1);
    }
  });
  return CheckResult{ok.size(), bad.load()};
}

// ---------------------------------------------------------- metrics

/// Median over kSlices equal slices of the window (by due time) of each
/// slice's p50 latency of OK routes.
double sliced_route_p50(const std::vector<Rec>& recs, const std::vector<Sched>& sched,
                        double seconds) {
  const double slice_ns = seconds * 1e9 / kSlices;
  std::vector<std::vector<double>> lat(kSlices);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].kind != TrafficKind::kPointToPoint || !recs[i].ok()) continue;
    const auto slice = static_cast<std::size_t>(static_cast<double>(sched[i].at_ns) / slice_ns);
    lat[std::min(kSlices - 1, slice)].push_back(recs[i].lat_ms);
  }
  std::vector<double> p50;
  for (auto& v : lat) {
    if (!v.empty()) p50.push_back(median(std::move(v)));
  }
  return median(p50);
}

/// Latencies of the OK-within-limit requests of one kind.
std::vector<double> lat_of(const std::vector<Rec>& recs, TrafficKind kind) {
  std::vector<double> out;
  for (const Rec& r : recs) {
    if (r.kind == kind && r.ok()) out.push_back(r.lat_ms);
  }
  return out;
}

template <typename Field>
std::vector<double> field_of(const std::vector<Rec>& recs, Field f) {
  std::vector<double> out;
  out.reserve(recs.size());
  for (const Rec& r : recs) out.push_back(f(r));
  return out;
}

/// Stats of every engine, cache and block cache behind one Router.
struct Snap {
  RouterT::Stats router{};
  cg::serving::Coalescer<W>::Stats coalescer{};
  std::uint64_t eng_requests = 0, eng_early = 0, eng_allocs = 0, eng_reuses = 0;
  std::uint64_t rc_hits = 0, rc_misses = 0, rc_invalid = 0, rc_recomputes = 0;
  std::uint64_t bc_hits = 0, bc_misses = 0, bc_evictions = 0, bc_fill_failures = 0;
  std::uint64_t bc_pinned_high = 0;
  std::uint64_t pool_tasks = 0, pool_steals = 0, pool_barrier = 0;
  Counters counters;
  Histos histos;
};

Snap take(RouterT& r, std::uint32_t replicas) {
  Snap s;
  s.router = r.stats();
  s.coalescer = r.coalescer().stats();
  const auto add_engine = [&](const auto& st) {
    s.eng_requests += st.requests;
    s.eng_early += st.early_exits;
    s.eng_allocs += st.scratch_allocs;
    s.eng_reuses += st.scratch_reuses;
  };
  add_engine(r.stitched_engine().stats());
  for (std::uint32_t sh = 0; sh < kShards; ++sh) {
    for (std::uint32_t rep = 0; rep < replicas; ++rep) {
      auto& shard = r.replica_set(sh).replica(rep);
      add_engine(shard.engine().stats());
      const auto rc = shard.cache().stats();
      s.rc_hits += rc.hits;
      s.rc_misses += rc.misses;
      s.rc_invalid += rc.invalidations;
      s.rc_recomputes += rc.recomputes;
      const auto bc = shard.block_cache_stats();
      s.bc_hits += bc.hits;
      s.bc_misses += bc.misses;
      s.bc_evictions += bc.evictions;
      s.bc_fill_failures += bc.fill_failures;
      s.bc_pinned_high = std::max(s.bc_pinned_high, bc.pinned_high_water);
      const auto ps = shard.pool().stats();
      s.pool_tasks += ps.tasks_spawned;
      s.pool_steals += ps.steals;
      s.pool_barrier += ps.barrier_waits;
    }
  }
  s.counters = Counters::take();
  s.histos = Histos::take();
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Pass {
  Fleet fleet;
  Report e2e;
  Report detail;
  Window window;
  std::vector<Rec> capacity;
  std::vector<const Rec*> all;  ///< every record of the pass, for the oracle
  Snap before, after;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double capacity_rps = 0.0;
  std::unique_ptr<Gate> gate;
};

struct Inputs {
  const ServeSpec* spec = nullptr;
  std::vector<Link> links;
  std::unique_ptr<cg::graph::AdjacencyArray<W>> graph;
  std::vector<vertex_t> entries;
  std::size_t budget = 0;
  std::vector<Sched> warm, window, mix;
  std::vector<Flap> window_flaps, capacity_flaps;
  double open_s = 0.0, cap_s = 0.0;
  std::filesystem::path dir;
  int threads = 1;        ///< service threads
  int setup_threads = 1;  ///< set-up and oracle threads
};

void flag_thin_tail(const std::string& name, std::size_t n) {
  if (n > 0 && !tail_supported(n, 99.0)) {
    std::cout << "# flag: " << name << " rests on " << samples_beyond(n, 99.0)
              << " samples beyond it (fewer than " << kMinTailSamples << ")\n";
  }
}

void add_tail(Report& rep, const std::string& name, const std::vector<double>& v) {
  rep.add(name, percentile(v, 99.0), "ms", v.size());
  flag_thin_tail(name, v.size());
}

Pass run_pass(const Inputs& in, std::vector<int>& versions, SpanLog& spans) {
  const ServeSpec& spec = *in.spec;
  Pass p;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    p.fleet = Fleet{};  // the previous fleet is torn down before the next set-up
    const auto t0 = Clock::now();
    p.fleet = build_fleet(spec, *in.graph, in.entries, in.budget, in.dir, in.setup_threads);
    const auto t1 = Clock::now();
    spans.add("setup", t0, t1);
    setups.push_back(to_s(t1 - t0));
  }
  p.gate = std::make_unique<Gate>(versions, -1);
  SpanLog quiet(false);
  // Untimed warm-up slice with its own seed: fills leases and block caches.
  (void)open_loop(p.fleet, *p.gate, in.links, in.warm, {}, kWarmSeconds, in.threads, quiet);

  p.capacity_rps = closed_loop(p.fleet, *p.gate, in.links, in.mix, in.capacity_flaps, in.cap_s,
                               in.threads, spans, p.capacity);
  p.before = take(*p.fleet.router, spec.replicas);
  p.window = open_loop(p.fleet, *p.gate, in.links, in.window, in.window_flaps, in.open_s,
                       in.threads, spans);
  p.after = take(*p.fleet.router, spec.replicas);

  const auto& recs = p.window.recs;
  for (const Rec& r : recs) p.all.push_back(&r);
  for (const Rec& r : p.capacity) p.all.push_back(&r);
  p.attempted = recs.size();
  std::uint64_t ok = 0;
  for (const Rec& r : recs) ok += r.ok() ? 1 : 0;
  p.failed = p.attempted - ok;

  const auto routes = lat_of(recs, TrafficKind::kPointToPoint);
  p.e2e.add("setup_s", median(setups), "s", setups.size());
  p.e2e.add("p50_ms", sliced_route_p50(recs, in.window, in.open_s), "ms", routes.size());
  p.e2e.add("ok_frac", ratio(static_cast<double>(ok), static_cast<double>(p.attempted)), "frac",
            p.attempted);
  p.e2e.add("throughput_per_s", p.capacity_rps, "1/s", p.capacity.size());

  const auto nearby = lat_of(recs, TrafficKind::kKNearest);
  const auto trees = lat_of(recs, TrafficKind::kFullSssp);
  p.detail.add("setup_s", median(setups), "s", setups.size());
  p.detail.add("route_p50_ms", percentile(routes, 50.0), "ms", routes.size());
  add_tail(p.detail, "route_p99_ms", routes);
  if (spec.mixed) {
    p.detail.add("nearby_p50_ms", percentile(nearby, 50.0), "ms", nearby.size());
    p.detail.add("tree_p50_ms", percentile(trees, 50.0), "ms", trees.size());
  }
  p.detail.add("ok_frac", ratio(static_cast<double>(ok), static_cast<double>(p.attempted)),
               "frac", p.attempted);
  p.detail.add("capacity_rps", p.capacity_rps, "1/s", p.capacity.size());
  if (spec.churn) {
    std::vector<double> u;
    for (const auto& fl : p.window.flaps) u.push_back(fl.update_ms);
    p.detail.add("update_ms", median(u), "ms", u.size());
  }
  const auto late = field_of(recs, [](const Rec& r) { return r.late_ms; });
  std::cout << "# samples: route=" << routes.size() << " nearby=" << nearby.size()
            << " tree=" << trees.size() << " attempted=" << p.attempted
            << " capacity_requests=" << p.capacity.size() << " flaps=" << p.window.flaps.size()
            << " generator_lateness_p99_ms=" << percentile(late, 99.0) << '\n';
  return p;
}

/// Serial replay of a sample of the window's requests: exact per-request
/// stats deltas plus direct timings of the layers below the Router.
struct Replay {
  std::vector<double> route_ms, probe_ms, self_ms, tree_hit_us, recompute_ms, read_us;
  std::vector<double> settled_nearby, settled_tree;
};

Replay replay(const Inputs& in, Pass& p) {
  Replay out;
  RouterT& r = *p.fleet.router;
  const auto& part = r.partition();
  constexpr std::size_t kRoutes = 200, kNearby = 40, kTrees = 10, kEntries = 64, kReads = 256;
  // Fresh-entry lookups (every entry tree is cached and valid).
  for (std::size_t i = 0; i < std::min(kEntries, in.entries.size()); ++i) {
    const vertex_t v = in.entries[i * in.entries.size() / kEntries];
    auto& sh = r.replica_set(part.shard_of(v)).current_shard();
    const auto t0 = Clock::now();
    (void)sh.local_tree(v - sh.begin());
    out.tree_hit_us.push_back(to_us(Clock::now() - t0));
  }
  // Stale entries: recompute cost on a fresh shard with empty caches.
  for (std::uint32_t s = 0; s < kShards; ++s) {
    cg::serving::Shard<W> fresh(*in.graph, part, s);
    std::size_t taken = 0;
    for (const vertex_t v : in.entries) {
      if (part.shard_of(v) != s || taken++ >= kEntries / kShards) continue;
      const auto t0 = Clock::now();
      (void)fresh.local_tree(v - fresh.begin());
      out.recompute_ms.push_back(to_ms(Clock::now() - t0));
    }
  }
  const double hit_ms = median(out.tree_hit_us) / 1e3;
  std::vector<W> buf;
  std::vector<vertex_t> targets;
  std::size_t nearby = 0, trees = 0;
  for (const Rec& rec : p.window.recs) {
    if (rec.kind == TrafficKind::kPointToPoint && out.route_ms.size() < kRoutes) {
      const auto s0 = r.stats();
      const auto t0 = Clock::now();
      (void)r.point_to_point(rec.source, rec.target);
      const auto t1 = Clock::now();
      const auto s1 = r.stats();
      const std::uint32_t sid = part.shard_of(rec.source);
      auto& sh = r.replica_set(sid).current_shard();
      targets.assign(sh.exits().begin(), sh.exits().end());
      if (part.shard_of(rec.target) == sid) targets.push_back(rec.target - sh.begin());
      buf.assign(targets.size(), 0);
      const auto p0 = Clock::now();
      (void)sh.local_dists(rec.source - sh.begin(), targets, {}, buf);
      const double probe = to_ms(Clock::now() - p0);
      const double route = to_ms(t1 - t0);
      const auto rows = static_cast<double>(s1.portal_tree_hits - s0.portal_tree_hits);
      out.route_ms.push_back(route);
      out.probe_ms.push_back(probe);
      out.self_ms.push_back(std::max(0.0, route - probe - rows * hit_ms));
    } else if (rec.kind == TrafficKind::kKNearest && nearby < kNearby) {
      ++nearby;
      const auto resp = r.stitched_engine().try_serve(
          cg::query::Request<W>{cg::query::KNearest{rec.source, rec.k}});
      out.settled_nearby.push_back(static_cast<double>(resp.settled));
    } else if (rec.kind == TrafficKind::kFullSssp && trees < kTrees) {
      ++trees;
      const auto resp =
          r.stitched_engine().try_serve(cg::query::Request<W>{cg::query::FullSSSP{rec.source}});
      out.settled_tree.push_back(static_cast<double>(resp.settled));
    }
  }
  if (const auto* file = r.shard(0).ooc_file()) {
    std::vector<std::byte> block(file->block_bytes());
    for (std::uint32_t b = 0; b < std::min<std::uint32_t>(kReads, file->num_blocks()); ++b) {
      const auto t0 = Clock::now();
      (void)file->source().read_block(b, block);
      out.read_us.push_back(to_us(Clock::now() - t0));
    }
  }
  return out;
}

void layer_metrics(const Inputs& in, Pass& traced, const Pass& plain, const Replay& rp,
                   double capacity_scaling, Report& rep) {
  LayerValues v;
  const auto& recs = traced.window.recs;
  const Snap& a = traced.before;
  const Snap& b = traced.after;
  const auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
  double routes = 0;
  for (const Rec& r : recs) routes += r.kind == TrafficKind::kPointToPoint ? 1 : 0;
  const int threads = in.threads;

  // End-to-end figures by their per-workload names.
  for (const Metric& m : traced.detail.metrics()) {
    if (LayerValues::known("e2e." + m.name)) v.set("e2e." + m.name, m.value);
  }

  const auto late = field_of(recs, [](const Rec& r) { return r.late_ms; });
  const auto wait = field_of(recs, [](const Rec& r) { return r.wait_ms; });
  flag_thin_tail("driver.wait_p99_ms", wait.size());
  v.set("driver.lateness_p99_ms", percentile(late, 99.0));
  v.set("driver.wait_p99_ms", percentile(wait, 99.0));
  v.set("driver.busy_frac", ratio(traced.window.busy_s, traced.window.seconds * threads));
  // The nearby and tree tails pool both windows of the traced run (the
  // same schedule twice), so each p99 rests on enough samples.
  for (const auto& [kind, key] : {std::pair{TrafficKind::kKNearest, std::string("nearby")},
                                  std::pair{TrafficKind::kFullSssp, std::string("tree")}}) {
    std::vector<double> lat, svc, wt;
    for (const auto* window : {&plain.window.recs, &recs}) {
      for (const Rec& r : *window) {
        if (r.kind != kind || !r.ok()) continue;
        lat.push_back(r.lat_ms);
        svc.push_back(r.service_ms);
        wt.push_back(r.lat_ms - r.service_ms);
      }
    }
    flag_thin_tail("driver." + key + "_p99_ms", lat.size());
    v.set("driver." + key + "_p99_ms", percentile(lat, 99.0));
    v.set("driver." + key + "_p99_service_ms", percentile(svc, 99.0));
    v.set("driver." + key + "_p99_wait_ms", percentile(wt, 99.0));
  }

  v.set("serving.router.pops_per_route", ratio(d(a.router.portal_pops, b.router.portal_pops), routes));
  const double rows = d(a.router.portal_tree_hits, b.router.portal_tree_hits);
  const double probes = d(a.router.portal_probes, b.router.portal_probes);
  v.set("serving.router.tree_share", ratio(rows, rows + probes));
  v.set("serving.router.probes_per_route", ratio(probes, routes));
  v.set("serving.router.self_ms", median(rp.self_ms));
  v.set("serving.router.failovers", d(a.router.failovers, b.router.failovers));
  v.set("serving.router.unavailable", d(a.router.unavailable, b.router.unavailable));
  v.set("serving.replica.quarantines", d(a.router.quarantines, b.router.quarantines));
  const double joined = d(a.coalescer.joined, b.coalescer.joined);
  v.set("serving.coalescer.join_share",
        ratio(joined, joined + d(a.coalescer.computes, b.coalescer.computes)));
  v.set("serving.shard.probe_ms", median(rp.probe_ms));
  v.set("serving.shard.tree_hit_us", median(rp.tree_hit_us));
  v.set("serving.shard.tree_recompute_ms", median(rp.recompute_ms));

  v.set("query.engine.admission_wait_us", b.histos.admission.minus(a.histos.admission).percentile(50.0) / 1e3);
  v.set("query.engine.queue_wait_us", b.histos.queue_wait.minus(a.histos.queue_wait).percentile(50.0) / 1e3);
  v.set("query.engine.compute_us", b.histos.compute.minus(a.histos.compute).percentile(50.0) / 1e3);
  v.set("query.search.settled_per_nearby", median(rp.settled_nearby));
  v.set("query.search.settled_per_tree", median(rp.settled_tree));
  const double settled = d(a.counters.query_settled, b.counters.query_settled);
  v.set("query.search.relax_per_settled",
        ratio(d(a.counters.query_relaxations, b.counters.query_relaxations), settled));
  v.set("query.search.early_exit_share", ratio(d(a.eng_early, b.eng_early), d(a.eng_requests, b.eng_requests)));
  const double reuses = d(a.eng_reuses, b.eng_reuses);
  v.set("query.engine.scratch_reuse_share", ratio(reuses, reuses + d(a.eng_allocs, b.eng_allocs)));
  const double hits = d(a.rc_hits, b.rc_hits);
  v.set("query.result_cache.hit_rate",
        ratio(hits, hits + d(a.rc_misses, b.rc_misses) + d(a.rc_invalid, b.rc_invalid)));
  const auto nflaps = static_cast<double>(traced.window.flaps.size());
  v.set("query.result_cache.recomputes_per_flap", ratio(d(a.rc_recomputes, b.rc_recomputes), nflaps));
  std::vector<double> apply, drain;
  for (const auto& fl : traced.window.flaps) {
    apply.push_back(fl.apply_us);
    drain.push_back(fl.drain_ms);
  }
  v.set("query.overlay.apply_us", median(apply));
  v.set("query.overlay.drain_ms", median(drain));

  const double bmiss = d(a.bc_misses, b.bc_misses);
  const double bhits = d(a.bc_hits, b.bc_hits);
  v.set("store.block_cache.hit_rate", ratio(bhits, bhits + bmiss));
  v.set("store.block_cache.misses_per_route", ratio(bmiss, routes));
  v.set("store.block_cache.evictions_per_route", ratio(d(a.bc_evictions, b.bc_evictions), routes));
  v.set("store.block_cache.pinned_high_water", static_cast<double>(b.bc_pinned_high));
  v.set("store.block_cache.fill_failures", d(a.bc_fill_failures, b.bc_fill_failures));
  v.set("store.block_source.read_us", median(rp.read_us));
  v.set("store.block_source.mb_per_route", ratio(bmiss * static_cast<double>(kBlockBytes) / 1e6, routes));

  v.set("pq.ops_per_settled", ratio(b.counters.pq_ops() - a.counters.pq_ops(), settled));
  v.set("parallel.pool.tasks", d(a.pool_tasks, b.pool_tasks));
  v.set("parallel.pool.steals", d(a.pool_steals, b.pool_steals));
  v.set("parallel.pool.barrier_waits", d(a.pool_barrier, b.pool_barrier));
  v.set("parallel.scaling.capacity", capacity_scaling);
  v.set_overhead(traced.e2e, plain.e2e);
  v.emit(rep);
}

}  // namespace

// ------------------------------------------------------- public bits

bool is_serve_workload(std::string_view name) {
  return std::any_of(specs().begin(), specs().end(),
                     [&](const ServeSpec& s) { return s.name == name; });
}

const ServeSpec& serve_spec(std::string_view name) {
  for (const ServeSpec& s : specs()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown serve workload");
}

std::vector<Link> make_grid(vertex_t side, std::uint64_t seed) {
  cg::Rng rng(seed);
  std::vector<Link> links;
  for (vertex_t r = 0; r < side; ++r) {
    for (vertex_t c = 0; c < side; ++c) {
      const vertex_t v = r * side + c;
      if (c + 1 < side) links.push_back(Link{v, v + 1, static_cast<W>(rng.uniform_int(10, 100))});
      if (r + 1 < side) {
        links.push_back(Link{v, v + side, static_cast<W>(rng.uniform_int(10, 100))});
      }
    }
  }
  return links;
}

cg::graph::EdgeListGraph<W> grid_arcs(vertex_t n, const std::vector<Link>& links, int skip) {
  cg::graph::EdgeListGraph<W> g(n);
  g.reserve(links.size() * 2);
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (static_cast<int>(i) == skip) continue;
    g.add_edge(links[i].u, links[i].v, links[i].w);
    g.add_edge(links[i].v, links[i].u, links[i].w);
  }
  return g;
}

std::vector<index_t> boundary_arcs(const cg::graph::AdjacencyArray<W>& g, std::uint32_t shards) {
  const cg::serving::Partition part(g.num_vertices(), shards);
  std::vector<index_t> out(shards > 0 ? shards - 1 : 0, 0);
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    for (const auto& nb : g.neighbors(u)) {
      const std::uint32_t a = part.shard_of(u);
      const std::uint32_t b = part.shard_of(nb.to);
      if (a != b) ++out[std::min(a, b)];
    }
  }
  return out;
}

std::vector<Sched> make_schedule(const ServeSpec& spec, std::uint64_t seed, std::uint64_t stream,
                                 double seconds, vertex_t n) {
  struct Tenant {
    double rate_hz, zipf_skew, p2p, nearby;  ///< shares of the mix; the rest are full trees
  };
  const Tenant tenants[] = {{spec.interactive_rps, 1.0, spec.mixed ? 0.75 : 1.0, spec.mixed ? 0.25 : 0.0},
                            {spec.bulk_rps, 1.1, 0.0, 0.0}};
  std::vector<Sched> out;
  for (std::uint32_t t = 0; t < 2; ++t) {
    const Tenant& tp = tenants[t];
    if (tp.rate_hz <= 0.0) continue;
    cg::Rng rank_rng(derive_seed(spec.name, 0, kRankStream + t));
    const cg::serving::ZipfPicker sources(n, tp.zipf_skew, rank_rng);
    cg::Rng rng(derive_seed(spec.name, seed, stream) ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
    for (double at_s = 0.0;;) {
      at_s += -std::log(1.0 - rng.uniform01()) / tp.rate_hz;
      if (at_s >= seconds) break;
      Sched s;
      s.at_ns = static_cast<std::uint64_t>(at_s * 1e9);
      s.tenant = t;
      s.source = sources.pick(rng);
      const double u = rng.uniform01();
      if (u < tp.p2p) {
        s.kind = TrafficKind::kPointToPoint;
        s.target = static_cast<vertex_t>(rng.below(static_cast<std::uint64_t>(n)));
      } else if (u < tp.p2p + tp.nearby) {
        s.kind = TrafficKind::kKNearest;
        s.k = kNearbyK;
      } else {
        s.kind = TrafficKind::kFullSssp;
      }
      out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end(), [](const Sched& a, const Sched& b) {
    return a.at_ns != b.at_ns ? a.at_ns < b.at_ns : a.tenant < b.tenant;
  });
  return out;
}

Strata shard_strata(const std::vector<Link>& links, vertex_t n, std::uint32_t shards) {
  const cg::serving::Partition part(n, shards);
  std::vector<std::size_t> first(shards + 1, links.size());
  for (std::size_t i = links.size(); i-- > 0;) first[part.shard_of(links[i].u)] = i;
  for (std::uint32_t s = shards; s-- > 0;) first[s] = std::min(first[s], first[s + 1]);
  std::vector<std::uint32_t> order{0};
  for (std::uint32_t lo = 1, hi = shards - 1; lo <= hi; ++lo, --hi) {
    order.push_back(lo);
    if (lo != hi) order.push_back(hi);
  }
  Strata out;
  for (const std::uint32_t s : order) out.emplace_back(first[s], first[s + 1]);
  return out;
}

std::vector<Flap> make_flaps(const ServeSpec& spec, std::uint64_t seed, std::uint64_t stream,
                             double seconds, const Strata& strata, int prev) {
  std::vector<Flap> out;
  if (!spec.churn || spec.flap_interval_s <= 0.0 || strata.empty()) return out;
  for (const auto& [first, last] : strata) {
    if (last < first + 2) throw std::invalid_argument("a flap stratum needs two links");
  }
  cg::Rng rng(derive_seed(spec.name, seed, stream));
  std::size_t stratum = rng.below(strata.size());
  // One flap per interval at a seeded offset inside its middle half, so
  // every window of a given length holds the same number of flaps.
  for (double slot = 0.0; slot + spec.flap_interval_s <= seconds + 1e-9;
       slot += spec.flap_interval_s) {
    const double at = slot + spec.flap_interval_s * (0.25 + 0.5 * rng.uniform01());
    const auto [first, last] = strata[stratum++ % strata.size()];
    int link = prev;
    while (link == prev) link = static_cast<int>(first + rng.below(last - first));
    out.push_back(Flap{at, link});
    prev = link;
  }
  return out;
}

bool check_route(const std::vector<W>& oracle, vertex_t target, W got) {
  return target >= 0 && static_cast<std::size_t>(target) < oracle.size() &&
         oracle[static_cast<std::size_t>(target)] == got;
}

bool check_nearby(const std::vector<W>& oracle, vertex_t k, const std::vector<NearItem>& got) {
  std::vector<W> all;
  for (const W d : oracle) {
    if (!cg::is_inf(d)) all.push_back(d);
  }
  const std::size_t want = std::min(all.size(), static_cast<std::size_t>(std::max<vertex_t>(k, 0)));
  if (got.size() != want) return false;
  std::vector<vertex_t> seen;
  std::vector<W> dists;
  for (const NearItem& it : got) {
    if (it.vertex < 0 || static_cast<std::size_t>(it.vertex) >= oracle.size()) return false;
    if (oracle[static_cast<std::size_t>(it.vertex)] != it.dist) return false;
    seen.push_back(it.vertex);
    dists.push_back(it.dist);
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) return false;
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(want), all.end());
  std::sort(dists.begin(), dists.end());
  return std::equal(dists.begin(), dists.end(), all.begin());
}

bool check_tree(const std::vector<W>& oracle, const std::vector<W>& got) { return oracle == got; }

RunResult run_serve(const RunArgs& args) {
  Inputs in;
  in.spec = &serve_spec(args.workload);
  const ServeSpec& spec = *in.spec;
  const vertex_t n = kSide * kSide;
  in.threads = service_threads();
  in.setup_threads = setup_threads();
  in.open_s = args.seconds * kOpenShare;
  in.cap_s = args.seconds - in.open_s;
  in.links = make_grid(kSide, kGridSeed);
  in.graph = std::make_unique<cg::graph::AdjacencyArray<W>>(grid_arcs(n, in.links));
  in.entries = entry_vertices(*in.graph, cg::serving::Partition(n, kShards));
  in.dir = std::filesystem::path(args.work_dir) / spec.name;
  if (spec.out_of_core) {
    std::filesystem::create_directories(in.dir);
    in.budget = ooc_budget_blocks(in.links, in.dir);
  }
  in.warm = make_schedule(spec, args.seed, kWarmStream, kWarmSeconds, n);
  in.window = make_schedule(spec, args.seed, kWindowStream, in.open_s, n);
  // The capacity mix: the same traffic shape, a fixed number of
  // requests replayed back to back (which also bounds the oracle's work).
  in.mix = make_schedule(spec, args.seed, kCapacityStream, 20.0, n);
  in.mix.resize(std::min<std::size_t>(in.mix.size(), kCapacityMix));
  // The capacity probe runs first; the window's first flap must not take
  // down the link the probe's last flap left down.
  const Strata strata = shard_strata(in.links, n, kShards);
  in.capacity_flaps = make_flaps(spec, args.seed, kCapacityFlapStream, in.cap_s, strata);
  in.window_flaps = make_flaps(spec, args.seed, kWindowFlapStream, in.open_s, strata,
                               in.capacity_flaps.empty() ? -1 : in.capacity_flaps.back().link);

  std::vector<int> versions;
  SpanLog off(false);
  RunResult res;
  Pass plain = run_pass(in, versions, off);
  std::vector<const Rec*> all = plain.all;
  res.attempted = plain.attempted;
  res.failed = plain.failed;
  res.detail = plain.detail;
  std::optional<Pass> traced;
  std::vector<Rec> scaling;
  if (args.trace) {
    plain.fleet = Fleet{};  // its answers stay alive in `plain`'s records
    SpanLog spans(true);
    traced.emplace(run_pass(in, versions, spans));
    all.insert(all.end(), traced->all.begin(), traced->all.end());
    const Replay rp = replay(in, *traced);
    // Read-path scaling: the same mix without flaps at full and at one client.
    const double cap_all = closed_loop(traced->fleet, *traced->gate, in.links, in.mix, {},
                                       in.cap_s, in.threads, off, scaling);
    const double cap_one = closed_loop(traced->fleet, *traced->gate, in.links, in.mix, {},
                                       in.cap_s, 1, off, scaling);
    for (const Rec& r : scaling) all.push_back(&r);
    layer_metrics(in, *traced, plain, rp, ratio(cap_all, cap_one), res.report);
    if (!args.spans_path.empty() && !spans.write(args.spans_path)) {
      std::cout << "# could not write spans to " << args.spans_path << '\n';
    }
    res.attempted += traced->attempted;
    res.failed += traced->failed;
  } else {
    res.report = plain.e2e;
  }
  const auto t_check = Clock::now();
  const CheckResult chk = check_answers(all, in.links, versions, in.setup_threads);
  std::cout << "# phase oracle " << to_s(Clock::now() - t_check) << " s\n";
  std::cout << "# oracle: checked " << chk.checked << " OK answers, " << chk.mismatches
            << " mismatches\n";
  res.correct = chk.mismatches == 0;
  if (spec.out_of_core) std::filesystem::remove_all(in.dir);
  return res;
}

}  // namespace perfbench
