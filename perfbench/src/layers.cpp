#include "layers.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cachegraph/obs/counters.hpp"
#include "cachegraph/obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Entry {
  const char* name;
  const char* unit;
};

// The per-layer table. Each row names the end-to-end figure it should
// move; perfbench/README.md carries that map.
const std::vector<Entry>& table() {
  static const std::vector<Entry> t{
      {"e2e.route_p50_ms", "ms"},
      {"e2e.route_p99_ms", "ms"},
      {"e2e.nearby_p50_ms", "ms"},
      {"e2e.tree_p50_ms", "ms"},
      {"e2e.capacity_rps", "1/s"},
      {"e2e.update_ms", "ms"},
      {"e2e.apsp_fwr_s", "s"},
      {"e2e.apsp_tiled_s", "s"},
      {"e2e.sssp_batch_s", "s"},
      {"e2e.analytics_s", "s"},
      {"e2e.matching_s", "s"},
      {"driver.lateness_p99_ms", "ms"},
      {"driver.wait_p99_ms", "ms"},
      {"driver.busy_frac", "frac"},
      {"driver.nearby_p99_ms", "ms"},
      {"driver.nearby_p99_service_ms", "ms"},
      {"driver.nearby_p99_wait_ms", "ms"},
      {"driver.tree_p99_ms", "ms"},
      {"driver.tree_p99_service_ms", "ms"},
      {"driver.tree_p99_wait_ms", "ms"},
      {"serving.router.pops_per_route", "count"},
      {"serving.router.tree_share", "frac"},
      {"serving.router.probes_per_route", "count"},
      {"serving.router.self_ms", "ms"},
      {"serving.router.failovers", "count"},
      {"serving.router.unavailable", "count"},
      {"serving.replica.quarantines", "count"},
      {"serving.coalescer.join_share", "frac"},
      {"serving.shard.probe_ms", "ms"},
      {"serving.shard.tree_hit_us", "us"},
      {"serving.shard.tree_recompute_ms", "ms"},
      {"query.engine.admission_wait_us", "us"},
      {"query.engine.queue_wait_us", "us"},
      {"query.engine.compute_us", "us"},
      {"query.engine.scratch_reuse_share", "frac"},
      {"query.search.settled_per_nearby", "count"},
      {"query.search.settled_per_tree", "count"},
      {"query.search.relax_per_settled", "ratio"},
      {"query.search.early_exit_share", "frac"},
      {"query.result_cache.hit_rate", "frac"},
      {"query.result_cache.recomputes_per_flap", "count"},
      {"query.overlay.apply_us", "us"},
      {"query.overlay.drain_ms", "ms"},
      {"store.block_cache.hit_rate", "frac"},
      {"store.block_cache.misses_per_route", "count"},
      {"store.block_cache.evictions_per_route", "count"},
      {"store.block_cache.pinned_high_water", "count"},
      {"store.block_cache.fill_failures", "count"},
      {"store.block_source.read_us", "us"},
      {"store.block_source.mb_per_route", "MB"},
      {"pq.ops_per_settled", "ratio"},
      {"sssp.batch.per_source_ms", "ms"},
      {"sssp.batch.relax_per_settled", "ratio"},
      {"sssp.batch.scratch_allocs", "count"},
      {"apsp.fwr.convert_s", "s"},
      {"apsp.fwr.kernel_s", "s"},
      {"apsp.fwr.base_cases", "count"},
      {"apsp.tiled.convert_s", "s"},
      {"apsp.tiled.kernel_s", "s"},
      {"analytics.pagerank_s", "s"},
      {"analytics.wcc_s", "s"},
      {"analytics.bfs_s", "s"},
      {"analytics.pagerank.edges_pushed", "count"},
      {"analytics.wcc.rounds", "count"},
      {"analytics.bfs.rounds", "count"},
      {"analytics.workspace_build_s", "s"},
      {"matching.partition_s", "s"},
      {"matching.local_share", "frac"},
      {"matching.global_searches", "count"},
      {"matching.global_augmentations", "count"},
      {"parallel.pool.tasks", "count"},
      {"parallel.pool.steals", "count"},
      {"parallel.pool.barrier_waits", "count"},
      {"parallel.scaling.capacity", "ratio"},
      {"parallel.scaling.apsp_fwr", "ratio"},
      {"parallel.scaling.sssp_batch", "ratio"},
      {"parallel.scaling.analytics", "ratio"},
      {"memsim.fwr.dl1_misses", "count"},
      {"memsim.fwr.dl2_misses", "count"},
      {"memsim.tiled.dl2_misses", "count"},
      {"memsim.dijkstra.dl2_misses", "count"},
      {"memsim.matching.dl2_misses", "count"},
      {"memsim.push.llc_misses", "count"},
      {"obs.trace_overhead.setup_s", "ratio"},
      {"obs.trace_overhead.p50_ms", "ratio"},
      {"obs.trace_overhead.ok_frac", "ratio"},
      {"obs.trace_overhead.throughput_per_s", "ratio"},
  };
  return t;
}

}  // namespace

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Entry& e : table()) out.emplace_back(e.name);
    return out;
  }();
  return names;
}

Counters Counters::take() {
  const auto& reg = cachegraph::obs::CounterRegistry::instance();
  Counters c;
  c.query_settled = reg.value("query.settled");
  c.query_relaxations = reg.value("query.relaxations");
  c.pq_inserts = reg.value("pq.binary.inserts");
  c.pq_extract_mins = reg.value("pq.binary.extract_mins");
  c.pq_decrease_keys = reg.value("pq.binary.decrease_keys");
  c.sssp_batch_settled = reg.value("sssp.batch.settled");
  c.fwr_base_cases = reg.value("fwr.base_cases");
  c.push_edges = reg.value("analytics.push.direct_edges") + reg.value("analytics.push.binned_edges");
  c.wcc_rounds = reg.value("analytics.wcc.rounds");
  c.bfs_rounds = reg.value("analytics.bfs.rounds");
  return c;
}

Histos Histos::take() {
  Histos h;
  for (const auto& [name, snap] : cachegraph::obs::MetricsRegistry::instance().histograms()) {
    if (name == "query.admission_wait_ns") h.admission = snap;
    if (name == "query.queue_wait_ns") h.queue_wait = snap;
    if (name == "query.compute_ns") h.compute = snap;
  }
  return h;
}

bool LayerValues::known(std::string_view name) {
  return std::any_of(table().begin(), table().end(),
                     [&](const Entry& e) { return name == e.name; });
}

void LayerValues::set(const std::string& name, double value) {
  if (!known(name)) throw std::logic_error("unknown per-layer metric " + name);
  values_[name] = value;
}

void LayerValues::set_overhead(const Report& traced, const Report& plain) {
  for (const Metric& m : plain.metrics()) {
    const Metric* t = traced.find(m.name);
    if (t != nullptr && m.value != 0.0) set("obs.trace_overhead." + m.name, t->value / m.value);
  }
}

void LayerValues::emit(Report& out) const {
  for (const Entry& e : table()) {
    const auto it = values_.find(e.name);
    out.add(e.name, it == values_.end() ? 0.0 : it->second, e.unit);
  }
}

}  // namespace perfbench
