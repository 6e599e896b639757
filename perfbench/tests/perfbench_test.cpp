// Tests for the benchmark's own logic: seeded determinism, the
// percentile rule, the grid's shard cut, the answer checkers and the
// per-layer metric table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cachegraph/common/rng.hpp"
#include "cachegraph/sssp/dijkstra.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Schedule, SameSeedSameArrivals) {
  for (const char* name : {"serve_mem", "serve_ooc", "serve_churn"}) {
    const ServeSpec& spec = serve_spec(name);
    const auto a = make_schedule(spec, 7, 3, 2.0, 16384);
    const auto b = make_schedule(spec, 7, 3, 2.0, 16384);
    const auto c = make_schedule(spec, 8, 3, 2.0, 16384);
    const auto d = make_schedule(spec, 7, 4, 2.0, 16384);
    ASSERT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, b) << name;
    EXPECT_NE(a, c) << name;
    EXPECT_NE(a, d) << name;
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end(), [](const Sched& x, const Sched& y) {
      return x.at_ns < y.at_ns;
    }));
  }
}

TEST(Schedule, WorkloadNameIsPartOfTheSeed) {
  EXPECT_NE(derive_seed("serve_mem", 1, 1), derive_seed("serve_churn", 1, 1));
  EXPECT_NE(derive_seed("serve_mem", 1, 1), derive_seed("serve_mem", 2, 1));
  EXPECT_EQ(derive_seed("batch", 5, 2), derive_seed("batch", 5, 2));
}

TEST(Schedule, HotSourcesDoNotDependOnTheSeed) {
  const auto hottest = [](std::uint64_t seed, std::uint32_t tenant) {
    std::map<vertex_t, int> count;
    for (const Sched& s : make_schedule(serve_spec("serve_mem"), seed, 3, 20.0, 16384)) {
      if (s.tenant == tenant) ++count[s.source];
    }
    return std::max_element(count.begin(), count.end(), [](const auto& a, const auto& b) {
             return a.second < b.second;
           })->first;
  };
  for (std::uint32_t tenant : {0u, 1u}) {
    EXPECT_EQ(hottest(1, tenant), hottest(2, tenant)) << tenant;
    EXPECT_EQ(hottest(1, tenant), hottest(2027, tenant)) << tenant;
  }
}

TEST(Schedule, RoutesOnlyWorkloadSendsOnlyRoutes) {
  for (const Sched& s : make_schedule(serve_spec("serve_ooc"), 1, 1, 2.0, 16384)) {
    EXPECT_EQ(s.kind, cachegraph::serving::TrafficKind::kPointToPoint);
  }
}

TEST(Flaps, SameSeedSameFlapsAndNoRepeatedLink) {
  const ServeSpec& spec = serve_spec("serve_churn");
  const Strata all{{0, 1000}};
  const auto a = make_flaps(spec, 3, 5, 30.0, all);
  const auto b = make_flaps(spec, 3, 5, 30.0, all);
  ASSERT_GT(a.size(), 5u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_s, b[i].at_s);
    EXPECT_EQ(a[i].link, b[i].link);
    EXPECT_LT(a[i].at_s, 30.0);
    EXPECT_GE(a[i].link, 0);
    EXPECT_LT(a[i].link, 1000);
    if (i > 0) {
      EXPECT_NE(a[i].link, a[i - 1].link);
      EXPECT_GT(a[i].at_s, a[i - 1].at_s);
    }
  }
  EXPECT_TRUE(make_flaps(serve_spec("serve_mem"), 3, 5, 30.0, all).empty());
  EXPECT_THROW((void)make_flaps(spec, 3, 5, 30.0, Strata{{0, 1}}), std::invalid_argument);
  // A sequence that follows another never starts on the link left down.
  for (int prev = 0; prev < 2; ++prev) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      EXPECT_NE(make_flaps(spec, seed, 5, 3.0, Strata{{0, 2}}, prev).front().link, prev);
    }
  }
}

TEST(Flaps, ConsecutiveFlapsVisitTheStrataInOrder) {
  const Strata strata{{0, 100}, {100, 200}, {200, 300}, {300, 400}};
  const auto stratum_of = [](int link) { return static_cast<std::size_t>(link / 100); };
  const ServeSpec& spec = serve_spec("serve_churn");
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    // Four slots: every stratum once.
    const auto f = make_flaps(spec, seed, 5, 4 * spec.flap_interval_s, strata);
    ASSERT_EQ(f.size(), 4u);
    std::vector<int> seen(4, 0);
    for (std::size_t i = 0; i < f.size(); ++i) {
      ++seen[stratum_of(f[i].link)];
      if (i > 0) EXPECT_EQ(stratum_of(f[i].link), (stratum_of(f[i - 1].link) + 1) % 4);
    }
    EXPECT_EQ(seen, std::vector<int>(4, 1));
  }
}

TEST(Flaps, ShardStrataCoverEachShardsLinksEndAndMiddleAlternately) {
  const auto links = make_grid(128, 42);
  const Strata strata = shard_strata(links, 128 * 128, 4);
  ASSERT_EQ(strata.size(), 4u);
  const std::uint32_t order[] = {0, 1, 3, 2};
  std::size_t covered = 0;
  for (std::size_t k = 0; k < strata.size(); ++k) {
    const auto [first, last] = strata[k];
    ASSERT_LT(first, last);
    covered += last - first;
    for (std::size_t i = first; i < last; ++i) {
      EXPECT_EQ(static_cast<std::uint32_t>(links[i].u / (128 * 32)), order[k]) << i;
    }
  }
  EXPECT_EQ(covered, links.size());
}

TEST(Percentile, MatchesSortedVectorOracle) {
  cachegraph::Rng rng(11);
  for (const std::size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 999u, 1000u, 2500u}) {
    std::vector<double> v(n);
    for (double& x : v) x = static_cast<double>(rng.below(1000));
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
      const std::size_t idx = rank == 0 ? 0 : rank - 1;
      EXPECT_EQ(percentile(v, p), sorted[idx]) << "n=" << n << " p=" << p;
      EXPECT_EQ(samples_beyond(n, p), n - (idx + 1)) << "n=" << n << " p=" << p;
    }
  }
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_TRUE(tail_supported(1000, 99.0));
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_FALSE(tail_supported(999, 99.0));
  EXPECT_FALSE(tail_supported(500, 99.0));
  EXPECT_TRUE(tail_supported(20, 50.0));
}

TEST(Grid, ContiguousFourShardCutIs256ArcsPerBoundary) {
  const auto links = make_grid(128, 42);
  EXPECT_EQ(links.size(), 2u * 128u * 127u);
  for (const Link& l : links) {
    EXPECT_GE(l.w, 10);
    EXPECT_LE(l.w, 100);
  }
  const cachegraph::graph::AdjacencyArray<W> g(grid_arcs(128 * 128, links));
  EXPECT_EQ(g.num_edges(), static_cast<index_t>(2 * links.size()));
  const auto cut = boundary_arcs(g, 4);
  ASSERT_EQ(cut.size(), 3u);
  for (const index_t c : cut) EXPECT_EQ(c, 256);
  EXPECT_EQ(make_grid(128, 42).front().w, links.front().w);
}

class Checkers : public ::testing::Test {
 protected:
  void SetUp() override {
    links_ = make_grid(16, 9);
    graph_ = std::make_unique<cachegraph::graph::AdjacencyArray<W>>(grid_arcs(256, links_));
    oracle_ = cachegraph::sssp::dijkstra(*graph_, 5).dist;
  }
  [[nodiscard]] std::vector<NearItem> nearest(vertex_t k) const {
    std::vector<NearItem> out;
    for (std::size_t v = 0; v < oracle_.size(); ++v) {
      out.push_back(NearItem{static_cast<vertex_t>(v), oracle_[v]});
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const NearItem& a, const NearItem& b) { return a.dist < b.dist; });
    out.resize(static_cast<std::size_t>(k));
    return out;
  }
  std::vector<Link> links_;
  std::unique_ptr<cachegraph::graph::AdjacencyArray<W>> graph_;
  std::vector<W> oracle_;
};

TEST_F(Checkers, RouteRejectsAWrongDistance) {
  EXPECT_TRUE(check_route(oracle_, 200, oracle_[200]));
  EXPECT_FALSE(check_route(oracle_, 200, oracle_[200] + 1));
  EXPECT_FALSE(check_route(oracle_, 300, 0));
}

TEST_F(Checkers, NearbyRejectsWrongLists) {
  auto good = nearest(20);
  EXPECT_TRUE(check_nearby(oracle_, 20, good));
  auto wrong_dist = good;
  wrong_dist[7].dist += 1;
  EXPECT_FALSE(check_nearby(oracle_, 20, wrong_dist));
  auto short_list = good;
  short_list.pop_back();
  EXPECT_FALSE(check_nearby(oracle_, 20, short_list));
  auto duplicate = good;
  duplicate[3] = duplicate[2];
  EXPECT_FALSE(check_nearby(oracle_, 20, duplicate));
  // A farther vertex in place of a near one, with its true distance.
  auto far = good;
  far.back() = nearest(200).back();
  EXPECT_FALSE(check_nearby(oracle_, 20, far));
}

TEST_F(Checkers, TreeRejectsOneWrongEntry) {
  EXPECT_TRUE(check_tree(oracle_, oracle_));
  auto bad = oracle_;
  bad[100] -= 1;
  EXPECT_FALSE(check_tree(oracle_, bad));
}

TEST(MatchingCertificate, RejectsANonMaximumMatching) {
  // l0-r0, l0-r1, l1-r0: {l0-r0} leaves the augmenting path l1-r0-l0-r1.
  cachegraph::graph::BipartiteGraph g;
  g.left = 2;
  g.right = 2;
  g.edges = {{0, 0}, {0, 1}, {1, 0}};
  auto m = cachegraph::matching::Matching::empty(2, 2);
  m.match_left[0] = 0;
  m.match_right[0] = 0;
  EXPECT_FALSE(is_maximum_matching(g, m));
  m.match_left = {1, 0};
  m.match_right = {1, 0};
  EXPECT_TRUE(is_maximum_matching(g, m));
}

TEST(Layers, TracedReportCarriesEveryPerLayerMetric) {
  LayerValues v;
  v.set("serving.router.pops_per_route", 3.0);
  EXPECT_THROW(v.set("no.such.metric", 1.0), std::logic_error);
  Report r;
  v.emit(r);
  ASSERT_EQ(r.metrics().size(), per_layer_names().size());
  for (std::size_t i = 0; i < r.metrics().size(); ++i) {
    EXPECT_EQ(r.metrics()[i].name, per_layer_names()[i]);
  }
  EXPECT_EQ(r.find("serving.router.pops_per_route")->value, 3.0);
  EXPECT_EQ(r.find("store.block_cache.misses_per_route")->value, 0.0);
}

TEST(Layers, BenchmarkJsonListsTheSameMetrics) {
  std::ifstream in(PERFBENCH_SOURCE_DIR "/../BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json not found next to perfbench/";
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  for (const std::string& name : per_layer_names()) {
    EXPECT_NE(text.find("\"" + name + "\""), std::string::npos) << name;
  }
  for (const char* name : {"setup_s", "p50_ms", "ok_frac", "throughput_per_s"}) {
    EXPECT_NE(text.find(std::string("\"") + name + "\""), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace perfbench
