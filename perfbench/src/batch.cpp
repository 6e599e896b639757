// The batch workload: the paper's offline kernels at nproc - 1 threads on
// one TaskPool (tiled FW on OpenMP), each output checked against an
// independent library reference after the timed rounds.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cachegraph/analytics/push_sim.hpp"
#include "cachegraph/apsp/fw_parallel.hpp"
#include "cachegraph/apsp/fwr_parallel.hpp"
#include "cachegraph/apsp/run.hpp"
#include "cachegraph/benchlib/workloads.hpp"
#include "cachegraph/common/rng.hpp"
#include "cachegraph/common/union_find.hpp"
#include "cachegraph/graph/generators.hpp"
#include "cachegraph/matching/bipartite_rep.hpp"
#include "cachegraph/matching/cache_friendly.hpp"
#include "cachegraph/matching/partition.hpp"
#include "cachegraph/memsim/hierarchy.hpp"
#include "cachegraph/memsim/machine_configs.hpp"
#include "cachegraph/query/engine.hpp"
#include "cachegraph/sssp/batch_engine.hpp"
#include "cachegraph/sssp/dijkstra.hpp"
#include "cachegraph/traversal/traversal.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace cg = cachegraph;

namespace {

using Csr = cg::graph::AdjacencyArray<W>;
using AnalyticsEngine = cg::query::QueryEngine<Csr>;
using Engine = cg::sssp::BatchEngine<W>;

// Each kernel call takes at most a few tenths of a second at nproc = 4,
// so a 15 s run holds over ten calls of each and its median and p90 rest
// on them. The FW matrix (4 MiB) and both CSRs (~8 and ~16 MiB) still
// exceed a core's 2 MiB L2.
constexpr std::size_t kFwN = 1024;
/// FW tile edge, fixed so every host runs the same tiling. Three tiles
/// (192 KiB) fit a core's L2, and N/B = 8 leaves 49 independent tiles per
/// phase of the tiled kernel for nproc threads (B = 256 would leave 9).
constexpr std::size_t kFwBlock = 128;
constexpr vertex_t kSsspN = 1 << 17;
constexpr std::size_t kSsspSources = 16;
constexpr vertex_t kAnalyticsN = 1 << 18;
constexpr double kOutDegree = 8.0;
constexpr std::uint32_t kPageRankIters = 10;
constexpr std::size_t kBfsSeeds = 4;
constexpr vertex_t kMatchSide = 65536;
constexpr double kMatchDegree = 3.0;
constexpr int kSetups = 5;  // a set-up takes ~0.2 s; five steady its median
constexpr std::size_t kMinRounds = 10;
constexpr std::size_t kCheckRows = 8;

enum Stream : std::uint64_t { kFwStream = 1, kSsspStream, kAnalyticsStream, kMatchStream, kPickStream };

/// nproc - 1 threads: the kernels meet at barriers, so a thread that
/// shares its core with anything else stretches every phase; the spare
/// core takes the rest of the machine's work.
int kernel_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
}

struct Inputs {
  std::vector<W> fw;  ///< row-major kFwN² weights
  cg::graph::EdgeListGraph<W> sssp{0};
  std::vector<vertex_t> sources;
  cg::graph::EdgeListGraph<W> analytics{0};
  std::vector<vertex_t> bfs_seeds;
  cg::graph::BipartiteGraph bip;
  std::optional<cg::matching::BipartiteCsr> bip_rep;  ///< for the validity check
};

/// Program state built before the first timed call.
struct Setup {
  std::unique_ptr<cg::parallel::TaskPool> pool;
  std::unique_ptr<Csr> sssp;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Csr> graph;
  std::unique_ptr<AnalyticsEngine> analytics;
  double workspace_s = 0.0;
};

Setup build(const Inputs& in, int threads) {
  Setup s;
  s.pool = std::make_unique<cg::parallel::TaskPool>(threads);
  s.sssp = std::make_unique<Csr>(in.sssp);
  s.engine = std::make_unique<Engine>(*s.sssp);
  s.graph = std::make_unique<Csr>(in.analytics);
  s.analytics = std::make_unique<AnalyticsEngine>(*s.graph);
  // The analytics workspace (out-degrees, symmetrized CSR) is built
  // lazily by the first request that needs it. A request whose deadline
  // falls inside that build pays for the build and stops at its first
  // round, so the timed calls see a warm workspace.
  const auto t0 = Clock::now();
  std::vector<double> ranks(static_cast<std::size_t>(kAnalyticsN));
  std::vector<vertex_t> labels(static_cast<std::size_t>(kAnalyticsN));
  AnalyticsEngine::ServeOptions so;
  so.deadline = cg::reliability::Deadline::after(std::chrono::milliseconds(2));
  (void)s.analytics->try_serve(cg::query::Request<W>{cg::query::PageRank{0.85, 1, 0.0, false, ranks}}, so);
  so.deadline = cg::reliability::Deadline::after(std::chrono::milliseconds(20));
  (void)s.analytics->try_serve(cg::query::Request<W>{cg::query::Wcc{false, labels}}, so);
  s.workspace_s = to_s(Clock::now() - t0);
  return s;
}

struct Outputs {
  std::vector<W> fwr, tiled;
  std::vector<std::vector<W>> sssp;
  std::vector<double> ranks;
  std::vector<vertex_t> labels, depth;
  cg::matching::Matching matching;
  cg::matching::TwoPhaseStats match_stats;
  std::uint64_t relaxations = 0, settled = 0;
};

struct Times {
  double fwr = 0, tiled = 0, sssp = 0, pagerank = 0, wcc = 0, bfs = 0, partition = 0, match = 0;
  [[nodiscard]] double analytics() const { return pagerank + wcc + bfs; }
  [[nodiscard]] double matching() const { return partition + match; }
  [[nodiscard]] double total() const { return fwr + tiled + sssp + analytics() + matching(); }
};

template <typename Fn>
double timed(SpanLog& spans, const char* name, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  spans.add(name, t0, t1);
  return to_s(t1 - t0);
}

void run_analytics(AnalyticsEngine& eng, cg::parallel::TaskPool& pool,
                   const cg::query::Request<W>& req) {
  bool ok = false;
  eng.run(std::span<const cg::query::Request<W>>(&req, 1), pool,
          [&](std::size_t, const auto&, const auto& resp, const auto&) { ok = resp.status.is_ok(); });
  if (!ok) throw std::runtime_error("analytics request failed");
}

/// One round of every kernel. Outputs land in `out`.
Times round(const Inputs& in, Setup& s, int threads, SpanLog& spans, Outputs& out) {
  Times t;
  t.fwr = timed(spans, "apsp.run_fw.recursive", [&] {
    out.fwr = cg::apsp::run_fw(cg::apsp::FwVariant::kRecursiveMorton, in.fw, kFwN, kFwBlock, threads);
  });
  t.tiled = timed(spans, "apsp.run_fw.tiled", [&] {
    out.tiled = cg::apsp::run_fw(cg::apsp::FwVariant::kTiledBdl, in.fw, kFwN, kFwBlock, threads);
  });
  out.sssp.resize(in.sources.size());
  std::atomic<std::uint64_t> relax{0}, settled{0};
  t.sssp = timed(spans, "sssp.batch.run", [&] {
    s.engine->run_batch(in.sources, *s.pool, [&](std::size_t i, vertex_t, const Engine::Scratch& sc) {
      out.sssp[i] = sc.dist();
      relax.fetch_add(sc.relaxations(), std::memory_order_relaxed);
      settled.fetch_add(sc.settled(), std::memory_order_relaxed);
    });
  });
  out.relaxations = relax.load();
  out.settled = settled.load();
  const auto n = static_cast<std::size_t>(kAnalyticsN);
  out.ranks.assign(n, 0.0);
  out.labels.assign(n, 0);
  out.depth.assign(n, 0);
  t.pagerank = timed(spans, "analytics.pagerank", [&] {
    run_analytics(*s.analytics, *s.pool,
                  cg::query::Request<W>{cg::query::PageRank{0.85, kPageRankIters, 0.0, false, out.ranks}});
  });
  t.wcc = timed(spans, "analytics.wcc", [&] {
    run_analytics(*s.analytics, *s.pool, cg::query::Request<W>{cg::query::Wcc{false, out.labels}});
  });
  t.bfs = timed(spans, "analytics.bfs", [&] {
    run_analytics(*s.analytics, *s.pool,
                  cg::query::Request<W>{cg::query::BfsFromSet{in.bfs_seeds, false, out.depth}});
  });
  cg::matching::Partition part;
  t.partition = timed(spans, "matching.two_way_partition",
                      [&] { part = cg::matching::two_way_partition(in.bip); });
  t.match = timed(spans, "matching.two_phase", [&] {
    out.match_stats =
        cg::matching::cache_friendly_matching_parallel(in.bip, part, out.matching, threads);
  });
  return t;
}

// ----------------------------------------------------------- oracle

/// Checks one matching: valid, and maximum by an independent
/// augmenting-path search. Returns the number of failed checks.
std::uint64_t check_matching(const Inputs& in, const cg::matching::Matching& m) {
  std::uint64_t bad = 0;
  if (!cg::matching::is_valid_matching(*in.bip_rep, m)) {
    ++bad;
    std::cout << "# mismatch: matching is not valid\n";
  }
  if (!is_maximum_matching(in.bip, m)) {
    ++bad;
    std::cout << "# mismatch: matching admits an augmenting path\n";
  }
  return bad;
}

/// Checks one round's outputs against independent references; returns
/// the number of failed checks and prints each failure.
std::uint64_t check(const Inputs& in, const Setup& s, const Outputs& out) {
  std::uint64_t bad = 0;
  const auto fail = [&](const std::string& what) {
    ++bad;
    std::cout << "# mismatch: " << what << '\n';
  };
  // APSP: both variants agree, and sampled rows equal Dijkstra rows.
  if (out.fwr != out.tiled) fail("FW recursive and FW tiled disagree");
  cg::graph::EdgeListGraph<W> dense(static_cast<vertex_t>(kFwN));
  for (std::size_t i = 0; i < kFwN; ++i) {
    for (std::size_t j = 0; j < kFwN; ++j) {
      const W w = in.fw[i * kFwN + j];
      if (i != j && !cg::is_inf(w)) dense.add_edge(static_cast<vertex_t>(i), static_cast<vertex_t>(j), w);
    }
  }
  const Csr dense_csr(dense);
  for (std::size_t k = 0; k < kCheckRows; ++k) {
    const std::size_t row = (k * 977 + 13) % kFwN;
    const auto ref = cg::sssp::dijkstra(dense_csr, static_cast<vertex_t>(row)).dist;
    if (!std::equal(ref.begin(), ref.end(), out.fwr.begin() + static_cast<std::ptrdiff_t>(row * kFwN))) {
      fail("FW row " + std::to_string(row));
    }
  }
  // Batch SSSP: sampled sources equal Dijkstra.
  for (std::size_t k = 0; k < kCheckRows; ++k) {
    const std::size_t i = k * in.sources.size() / kCheckRows;
    if (cg::sssp::dijkstra(*s.sssp, in.sources[i]).dist != out.sssp[i]) {
      fail("batch source " + std::to_string(in.sources[i]));
    }
  }
  // BFS: minimum over per-seed traversal BFS depths.
  const auto n = static_cast<std::size_t>(kAnalyticsN);
  std::vector<cg::index_t> depth(n, -1);
  for (const vertex_t seed : in.bfs_seeds) {
    const auto r = cg::traversal::bfs(*s.graph, seed);
    for (std::size_t v = 0; v < n; ++v) {
      if (r.depth[v] >= 0 && (depth[v] < 0 || r.depth[v] < depth[v])) depth[v] = r.depth[v];
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    const cg::index_t got = out.depth[v] == cg::kNoVertex ? -1 : out.depth[v];
    if (got != depth[v]) {
      fail("BFS depth of vertex " + std::to_string(v));
      break;
    }
  }
  // WCC: labels are the smallest id of each union-find component.
  cg::UnionFind uf(n);
  for (const auto& e : in.analytics.edges()) {
    uf.unite(static_cast<std::size_t>(e.from), static_cast<std::size_t>(e.to));
  }
  std::vector<vertex_t> min_id(n, cg::kNoVertex);
  for (std::size_t v = 0; v < n; ++v) {
    auto& m = min_id[uf.find(v)];
    if (m == cg::kNoVertex) m = static_cast<vertex_t>(v);
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (out.labels[v] != min_id[uf.find(v)]) {
      fail("WCC label of vertex " + std::to_string(v));
      break;
    }
  }
  // PageRank: unit mass, and a serial power iteration agrees.
  std::vector<double> rank(n, 1.0 / static_cast<double>(n)), next(n);
  std::vector<std::size_t> deg(n, 0);
  for (const auto& e : in.analytics.edges()) ++deg[static_cast<std::size_t>(e.from)];
  for (std::uint32_t it = 0; it < kPageRankIters; ++it) {
    double dangling = 0.0;
    for (std::size_t v = 0; v < n; ++v) dangling += deg[v] == 0 ? rank[v] : 0.0;
    const double base = (1.0 - 0.85) / static_cast<double>(n) + 0.85 * dangling / static_cast<double>(n);
    std::fill(next.begin(), next.end(), base);
    for (const auto& e : in.analytics.edges()) {
      const auto u = static_cast<std::size_t>(e.from);
      next[static_cast<std::size_t>(e.to)] += 0.85 * rank[u] / static_cast<double>(deg[u]);
    }
    rank.swap(next);
  }
  const double mass = std::accumulate(out.ranks.begin(), out.ranks.end(), 0.0);
  if (std::abs(mass - 1.0) > 1e-9) fail("PageRank mass " + fmt_num(mass));
  double worst = 0.0;
  for (std::size_t v = 0; v < n; ++v) worst = std::max(worst, std::abs(rank[v] - out.ranks[v]));
  if (worst > 1e-12) fail("PageRank differs from the power iteration by " + fmt_num(worst));
  return bad;
}

std::uint64_t compare(const Outputs& a, const Outputs& b) {
  std::uint64_t bad = 0;
  bad += a.fwr != b.fwr;
  bad += a.tiled != b.tiled;
  bad += a.sssp != b.sssp;
  bad += a.labels != b.labels;
  bad += a.depth != b.depth;
  double worst = 0.0;
  for (std::size_t v = 0; v < a.ranks.size(); ++v) worst = std::max(worst, std::abs(a.ranks[v] - b.ranks[v]));
  bad += worst > 1e-12;
  return bad;
}

struct PassOut {
  Report e2e, detail;
  std::vector<Times> times;
  double setup_s = 0.0;
  std::uint64_t calls = 0, bad = 0;
};

/// Set-up (several times, median reported), then rounds of every kernel
/// until `seconds` of kernel time and at least kMinRounds rounds have
/// run. Every round's matching is checked; its other outputs must
/// reproduce round 1's, which the full oracle checks.
PassOut run_pass(const Inputs& in, double seconds, int threads, SpanLog& spans, Setup& s,
                 Outputs& first, std::vector<double>& workspace) {
  PassOut p;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    s = Setup{};
    const auto t0 = Clock::now();
    s = build(in, threads);
    const auto t1 = Clock::now();
    spans.add("setup", t0, t1);
    setups.push_back(to_s(t1 - t0));
    workspace.push_back(s.workspace_s);
  }
  p.setup_s = median(setups);
  double spent = 0.0;
  while (spent < seconds || p.times.size() < kMinRounds) {
    Outputs out;
    const Times t = round(in, s, threads, spans, out);
    p.times.push_back(t);
    spent += t.total();
    p.calls += 5;
    p.bad += check_matching(in, out.matching);
    if (first.fwr.empty()) {
      first = std::move(out);
    } else {
      const std::uint64_t diff = compare(first, out);
      if (diff != 0) std::cout << "# mismatch: round " << p.times.size() << " differs from round 1\n";
      p.bad += diff;
    }
  }
  std::vector<double> fwr, tiled, sssp, an, mt, job;
  for (const Times& t : p.times) {
    fwr.push_back(t.fwr);
    tiled.push_back(t.tiled);
    sssp.push_back(t.sssp);
    an.push_back(t.analytics());
    mt.push_back(t.matching());
    job.push_back(t.total());
  }
  const std::size_t rounds = p.times.size();
  // One batch job is one round, a call of every kernel: p50 is the
  // median round time.
  p.e2e.add("setup_s", p.setup_s, "s", setups.size());
  p.e2e.add("p50_ms", median(job) * 1e3, "ms", rounds);
  p.e2e.add("ok_frac", 1.0, "frac", p.calls);  // replaced once the oracle has run
  p.e2e.add("throughput_per_s", static_cast<double>(p.calls) / spent, "1/s", p.calls);
  p.detail.add("setup_s", p.setup_s, "s", setups.size());
  p.detail.add("apsp_fwr_s", median(fwr), "s", rounds);
  p.detail.add("apsp_tiled_s", median(tiled), "s", rounds);
  p.detail.add("sssp_batch_s", median(sssp), "s", rounds);
  p.detail.add("analytics_s", median(an), "s", rounds);
  p.detail.add("matching_s", median(mt), "s", rounds);
  std::cout << "# samples: rounds=" << rounds << " kernel_calls=" << p.calls << '\n';
  return p;
}

Report with_ok_frac(const Report& r, double ok_frac) {
  Report out;
  for (const Metric& m : r.metrics()) {
    out.add(m.name, m.name == "ok_frac" ? ok_frac : m.value, m.unit, m.samples);
  }
  return out;
}

/// Deterministic miss counts on the SimpleScalar preset at reduced sizes.
void memsim_layers(std::uint64_t seed, LayerValues& v) {
  const auto machine = cg::memsim::simplescalar_default();
  // N=512 (1 MiB of int32) is four times the preset's 256 KiB L2.
  const auto fw = cg::bench::fw_input(512, seed);
  const auto fwr = cg::bench::fw_sim(cg::apsp::FwVariant::kRecursiveMorton, fw, 512, 32, machine);
  const auto tiled = cg::bench::fw_sim(cg::apsp::FwVariant::kTiledBdl, fw, 512, 32, machine);
  v.set("memsim.fwr.dl1_misses", static_cast<double>(fwr.l1.misses));
  v.set("memsim.fwr.dl2_misses", static_cast<double>(fwr.l2.misses));
  v.set("memsim.tiled.dl2_misses", static_cast<double>(tiled.l2.misses));
  const Csr small(cg::graph::random_digraph<W>(1 << 13, kOutDegree / ((1 << 13) - 1), seed));
  const auto dj = cg::bench::sim_on_rep(small, machine, [](const auto& g, cg::memsim::SimMem& mem) {
    (void)cg::sssp::dijkstra(g, 0, mem);
  });
  v.set("memsim.dijkstra.dl2_misses", static_cast<double>(dj.l2.misses));
  const auto bip = cg::graph::random_bipartite(4096, 4096, kMatchDegree / 4096, seed);
  cg::memsim::CacheHierarchy h(machine);
  cg::memsim::SimMem mem(h);
  cg::matching::Matching m;
  (void)cg::matching::cache_friendly_matching(bip, cg::matching::two_way_partition(bip), m, mem);
  v.set("memsim.matching.dl2_misses", static_cast<double>(h.stats().l2.misses));
  const Csr push_g(cg::graph::random_digraph<W>(1 << 16, kOutDegree / ((1 << 16) - 1), seed));
  const auto layout = cg::analytics::BinLayout::from_machine(1 << 16, sizeof(double), machine);
  const auto push = cg::bench::sim_on_rep(push_g, machine, [&](const auto& g, cg::memsim::SimMem& sm) {
    cg::analytics::sim_push_iteration(g, false, layout, sm);
  });
  v.set("memsim.push.llc_misses", static_cast<double>(push.l2.misses));
}

}  // namespace

bool is_maximum_matching(const cg::graph::BipartiteGraph& g, const cg::matching::Matching& m) {
  std::vector<std::vector<vertex_t>> adj(static_cast<std::size_t>(g.left));
  for (const auto& [l, r] : g.edges) adj[static_cast<std::size_t>(l)].push_back(r);
  std::vector<char> seen_left(static_cast<std::size_t>(g.left), 0);
  std::vector<char> seen_right(static_cast<std::size_t>(g.right), 0);
  std::vector<vertex_t> frontier;
  for (vertex_t l = 0; l < g.left; ++l) {
    if (m.match_left[static_cast<std::size_t>(l)] == cg::kNoVertex) {
      seen_left[static_cast<std::size_t>(l)] = 1;
      frontier.push_back(l);
    }
  }
  while (!frontier.empty()) {
    const vertex_t l = frontier.back();
    frontier.pop_back();
    for (const vertex_t r : adj[static_cast<std::size_t>(l)]) {
      const auto ur = static_cast<std::size_t>(r);
      if (seen_right[ur] || m.match_left[static_cast<std::size_t>(l)] == r) continue;
      seen_right[ur] = 1;
      const vertex_t next = m.match_right[ur];
      if (next == cg::kNoVertex) return false;  // augmenting path found
      if (!seen_left[static_cast<std::size_t>(next)]) {
        seen_left[static_cast<std::size_t>(next)] = 1;
        frontier.push_back(next);
      }
    }
  }
  return true;
}

RunResult run_batch(const RunArgs& args) {
  const auto t_begin = Clock::now();
  const std::string name = args.workload;
  const int threads = kernel_threads();
  Inputs in;
  in.fw = cg::bench::fw_input(kFwN, derive_seed(name, args.seed, kFwStream));
  in.sssp = cg::graph::random_digraph<W>(kSsspN, kOutDegree / (kSsspN - 1),
                                         derive_seed(name, args.seed, kSsspStream));
  in.analytics = cg::graph::random_digraph<W>(kAnalyticsN, kOutDegree / (kAnalyticsN - 1),
                                              derive_seed(name, args.seed, kAnalyticsStream));
  // One matching instance for every seed: the global phase's augmenting
  // searches depend on the instance, and took 0.13-0.25 s over five
  // seeded instances of this size, a spread that would hide most changes.
  in.bip = cg::graph::random_bipartite(kMatchSide, kMatchSide, kMatchDegree / kMatchSide,
                                       derive_seed(name, 0, kMatchStream));
  in.bip_rep.emplace(in.bip);
  cg::Rng pick(derive_seed(name, args.seed, kPickStream));
  for (std::size_t i = 0; i < kSsspSources; ++i) {
    in.sources.push_back(static_cast<vertex_t>(pick.below(kSsspN)));
  }
  for (std::size_t i = 0; i < kBfsSeeds; ++i) {
    in.bfs_seeds.push_back(static_cast<vertex_t>(pick.below(kAnalyticsN)));
  }

  std::cout << "# phase inputs " << to_s(Clock::now() - t_begin) << " s\n";
  RunResult res;
  SpanLog off(false);
  Setup s;
  Outputs first;
  std::vector<double> workspace;
  const auto t_pass = Clock::now();
  PassOut plain = run_pass(in, args.seconds, threads, off, s, first, workspace);
  const auto t_check = Clock::now();
  std::uint64_t bad = plain.bad + check(in, s, first);
  std::cout << "# phase measure " << to_s(t_check - t_pass) << " s, oracle "
            << to_s(Clock::now() - t_check) << " s\n";
  std::uint64_t calls = plain.calls;
  res.detail = plain.detail;
  if (args.trace) {
    SpanLog spans(true);
    Outputs tfirst;
    const auto c0 = Counters::take();
    PassOut traced = run_pass(in, args.seconds, threads, spans, s, tfirst, workspace);
    bad += traced.bad + compare(first, tfirst);
    calls += traced.calls;
    LayerValues v;
    for (const Metric& m : traced.detail.metrics()) {
      if (LayerValues::known("e2e." + m.name)) v.set("e2e." + m.name, m.value);
    }
    // Layer spans around direct calls, one kernel at a time.
    const auto pool0 = s.pool->stats();
    const auto k0 = Counters::take();
    {
      using L = cg::layout::MortonLayout;
      cg::matrix::SquareMatrix<W, L> m(L(cg::layout::padded_size_recursive(kFwN, kFwBlock), kFwBlock), kFwN);
      std::vector<W> outm(kFwN * kFwN);
      const auto t0 = Clock::now();
      m.load_row_major(in.fw.data(), kFwN, *s.pool);
      const auto t1 = Clock::now();
      cg::apsp::fwr_parallel<cg::apsp::KernelMode::kFast>(m, *s.pool);
      const auto t2 = Clock::now();
      m.store_row_major(outm.data(), kFwN, *s.pool);
      const auto t3 = Clock::now();
      spans.add("apsp.fwr.convert", t0, t1);
      spans.add("apsp.fwr_parallel", t1, t2);
      spans.add("apsp.fwr.convert", t2, t3);
      v.set("apsp.fwr.convert_s", to_s(t1 - t0) + to_s(t3 - t2));
      v.set("apsp.fwr.kernel_s", to_s(t2 - t1));
      if (outm != first.fwr) ++bad;
    }
    const auto pool1 = s.pool->stats();
    v.set("apsp.fwr.base_cases", static_cast<double>(Counters::take().fwr_base_cases - k0.fwr_base_cases));
    v.set("parallel.pool.tasks", static_cast<double>(pool1.tasks_spawned - pool0.tasks_spawned));
    v.set("parallel.pool.steals", static_cast<double>(pool1.steals - pool0.steals));
    v.set("parallel.pool.barrier_waits", static_cast<double>(pool1.barrier_waits - pool0.barrier_waits));
    {
      using L = cg::layout::BlockDataLayout;
      cg::matrix::SquareMatrix<W, L> m(L(cg::layout::padded_size_tiled(kFwN, kFwBlock), kFwBlock), kFwN);
      std::vector<W> outm(kFwN * kFwN);
      const auto t0 = Clock::now();
      m.load_row_major(in.fw.data(), kFwN, *s.pool);
      const auto t1 = Clock::now();
      cg::apsp::fw_parallel<cg::apsp::KernelMode::kFast>(m, threads);
      const auto t2 = Clock::now();
      m.store_row_major(outm.data(), kFwN, *s.pool);
      const auto t3 = Clock::now();
      spans.add("apsp.tiled.convert", t0, t1);
      spans.add("apsp.fw_parallel", t1, t2);
      spans.add("apsp.tiled.convert", t2, t3);
      v.set("apsp.tiled.convert_s", to_s(t1 - t0) + to_s(t3 - t2));
      v.set("apsp.tiled.kernel_s", to_s(t2 - t1));
      if (outm != first.fwr) ++bad;
    }
    std::vector<double> pr, wc, bf;
    for (const Times& t : traced.times) {
      pr.push_back(t.pagerank);
      wc.push_back(t.wcc);
      bf.push_back(t.bfs);
    }
    v.set("analytics.pagerank_s", median(pr));
    v.set("analytics.wcc_s", median(wc));
    v.set("analytics.bfs_s", median(bf));
    const auto rounds = static_cast<double>(traced.times.size());
    const auto c1 = Counters::take();
    v.set("analytics.pagerank.edges_pushed", static_cast<double>(c1.push_edges - c0.push_edges) / rounds);
    v.set("analytics.wcc.rounds", static_cast<double>(c1.wcc_rounds - c0.wcc_rounds) / rounds);
    v.set("analytics.bfs.rounds", static_cast<double>(c1.bfs_rounds - c0.bfs_rounds) / rounds);
    v.set("analytics.workspace_build_s", median(workspace));
    std::vector<double> part, per_source;
    for (const Times& t : traced.times) {
      part.push_back(t.partition);
      per_source.push_back(t.sssp * 1e3 / static_cast<double>(kSsspSources));
    }
    v.set("matching.partition_s", median(part));
    v.set("matching.local_share", static_cast<double>(tfirst.match_stats.local_matched) /
                                      static_cast<double>(std::max<std::size_t>(1, tfirst.match_stats.final_matched)));
    v.set("matching.global_searches", static_cast<double>(tfirst.match_stats.global_searches));
    v.set("matching.global_augmentations", static_cast<double>(tfirst.match_stats.global_augmentations));
    v.set("sssp.batch.per_source_ms", median(per_source));
    v.set("sssp.batch.relax_per_settled",
          static_cast<double>(tfirst.relaxations) / static_cast<double>(std::max<std::uint64_t>(1, tfirst.settled)));
    v.set("sssp.batch.scratch_allocs", static_cast<double>(s.engine->stats().scratch_allocs));
    v.set("pq.ops_per_settled", (c1.pq_ops() - c0.pq_ops()) /
                                    static_cast<double>(std::max<std::uint64_t>(1, c1.sssp_batch_settled - c0.sssp_batch_settled)));
    // Scaling: one-thread runs of the threaded kernels.
    {
      std::vector<double> fwr, sssp, an;
      for (const Times& t : traced.times) {
        fwr.push_back(t.fwr);
        sssp.push_back(t.sssp);
        an.push_back(t.analytics());
      }
      Setup one = build(in, 1);
      Outputs o1;
      const Times t1 = round(in, one, 1, off, o1);
      bad += compare(first, o1) + check_matching(in, o1.matching);
      v.set("parallel.scaling.apsp_fwr", t1.fwr / median(fwr));
      v.set("parallel.scaling.sssp_batch", t1.sssp / median(sssp));
      v.set("parallel.scaling.analytics", t1.analytics() / median(an));
    }
    memsim_layers(args.seed, v);
    v.set_overhead(traced.e2e, plain.e2e);
    v.emit(res.report);
    if (!args.spans_path.empty() && !spans.write(args.spans_path)) {
      std::cout << "# could not write spans to " << args.spans_path << '\n';
    }
  }
  std::cout << "# oracle: " << bad << " mismatches\n";
  res.correct = bad == 0;
  res.attempted = calls;
  res.failed = std::min(bad, calls);
  if (!args.trace) {
    res.report = with_ok_frac(plain.e2e, static_cast<double>(calls - res.failed) / static_cast<double>(calls));
  }
  return res;
}

}  // namespace perfbench
