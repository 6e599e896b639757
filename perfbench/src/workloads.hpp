// The benchmark's workloads and the pieces its self-tests pin: the
// road-like grid, its shard cut, the seeded schedules and flap
// sequences, and the answer checkers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cachegraph/graph/adjacency_array.hpp"
#include "cachegraph/graph/edge_list.hpp"
#include "cachegraph/graph/generators.hpp"
#include "cachegraph/matching/matching.hpp"
#include "cachegraph/serving/router.hpp"
#include "cachegraph/serving/traffic.hpp"
#include "common.hpp"

namespace perfbench {

using cachegraph::index_t;
using cachegraph::vertex_t;
using W = std::int32_t;
using RouterT = cachegraph::serving::Router<W>;
using NearItem = RouterT::NearItem;
using Sched = cachegraph::serving::ScheduledRequest<W>;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< traced runs write their spans here
  std::string work_dir;    ///< scratch directory for blocked files
};

struct RunResult {
  Report report;         ///< the metrics printed on the result line
  Report detail;         ///< named per-workload figures printed for people
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

[[nodiscard]] bool is_serve_workload(std::string_view name);
[[nodiscard]] RunResult run_serve(const RunArgs& args);
[[nodiscard]] RunResult run_batch(const RunArgs& args);

/// Every per-layer metric name, in report order. Traced runs report all
/// of them on every workload; a layer a workload never calls reads 0.
[[nodiscard]] const std::vector<std::string>& per_layer_names();

// ------------------------------------------------------------- grid

/// One undirected road segment; it becomes two arcs of weight w.
struct Link {
  vertex_t u = 0;
  vertex_t v = 0;
  W w = 0;
};

/// side×side grid, vertex id r*side + c, each vertex linked to its 4
/// neighbours, weights seeded uniform in [10, 100].
[[nodiscard]] std::vector<Link> make_grid(vertex_t side, std::uint64_t seed);

/// The arcs of `links` except link `skip` (-1 keeps all).
[[nodiscard]] cachegraph::graph::EdgeListGraph<W> grid_arcs(vertex_t n,
                                                            const std::vector<Link>& links,
                                                            int skip = -1);

/// Arcs crossing each boundary between shards s and s+1 of a contiguous
/// `shards`-way partition (both directions), indexed by s.
[[nodiscard]] std::vector<index_t> boundary_arcs(const cachegraph::graph::AdjacencyArray<W>& g,
                                                 std::uint32_t shards);

// -------------------------------------------------------- schedules

struct ServeSpec {
  std::string name;
  std::uint32_t replicas = 1;
  bool out_of_core = false;
  bool churn = false;
  bool mixed = true;              ///< nearby + tree traffic besides routes
  double interactive_rps = 0.0;   ///< route (+ nearby) arrivals per second
  double bulk_rps = 0.0;          ///< full-tree arrivals per second
  int interactive_limit_ms = 100; ///< latency limit of routes and nearby
  double flap_interval_s = 0.0;   ///< one link flap per interval
};

[[nodiscard]] const ServeSpec& serve_spec(std::string_view name);

/// Open-loop arrivals over `seconds` for stream `stream` of (spec, seed):
/// Poisson arrivals per tenant, Zipf sources, uniform route targets. The
/// popularity ranking behind the Zipf draws is fixed per workload and
/// tenant, so seeds differ in arrival times and drawn requests but not
/// in which vertices, and so which shards and portals, are hot.
[[nodiscard]] std::vector<Sched> make_schedule(const ServeSpec& spec, std::uint64_t seed,
                                               std::uint64_t stream, double seconds, vertex_t n);

struct Flap {
  double at_s = 0.0;  ///< offset from the window start
  int link = 0;       ///< link to take down (the previous one comes back)
};

/// Ranges [first, last) of link indices that flaps draw from, in the
/// order flaps visit them.
using Strata = std::vector<std::pair<std::size_t, std::size_t>>;

/// Each shard's links as one stratum: a link belongs to the shard of its
/// lower endpoint, and make_grid lists links by lower endpoint, so each
/// shard's links are contiguous. Visiting order 0, 1, S-1, 2, S-2, ...:
/// with 4 shards (0, 1, 3, 2) every two consecutive flaps hit one end
/// shard and one middle shard, whose flaps invalidate twice as many
/// entry trees (two boundaries instead of one).
[[nodiscard]] Strata shard_strata(const std::vector<Link>& links, vertex_t n, std::uint32_t shards);

/// One flap per `flap_interval_s` slot at a seeded instant inside the
/// slot. Slot i takes a seeded link of stratum (start + i) mod
/// |strata|, `start` seeded, so every window holds the same mix of
/// strata. Consecutive links differ, and the first differs from `prev`
/// (the link already down, -1 for none). Each stratum needs two links.
[[nodiscard]] std::vector<Flap> make_flaps(const ServeSpec& spec, std::uint64_t seed,
                                           std::uint64_t stream, double seconds,
                                           const Strata& strata, int prev = -1);

// --------------------------------------------------------- checkers

[[nodiscard]] bool check_route(const std::vector<W>& oracle, vertex_t target, W got);
/// `got` must hold min(k, reachable) distinct vertices at their oracle
/// distances, and its distances must be the k smallest (ties at the
/// k-th place may pick any of the tied vertices).
[[nodiscard]] bool check_nearby(const std::vector<W>& oracle, vertex_t k,
                                const std::vector<NearItem>& got);
[[nodiscard]] bool check_tree(const std::vector<W>& oracle, const std::vector<W>& got);

/// Berge's certificate: a valid matching is maximum iff no augmenting
/// path exists. One alternating search from every free left vertex (left
/// to right over non-matching edges, right to left over matching edges)
/// finds one iff it reaches a free right vertex.
[[nodiscard]] bool is_maximum_matching(const cachegraph::graph::BipartiteGraph& g,
                                       const cachegraph::matching::Matching& m);

}  // namespace perfbench
