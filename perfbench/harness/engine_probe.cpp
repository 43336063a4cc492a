// Reads an analysed engine: edge outcome counts, the bitwise lane
// comparison, and the per-layer counters the engine exports (QwmStats,
// CacheStats, ScheduleStats, WorkspaceStats). Also picks seeded what-if
// targets on a design.
#include "workloads.h"

namespace perfbench {

using namespace qwm;

EdgeCounts count_edges(const sta::StaEngine& engine) {
  EdgeCounts c;
  for (const auto& info : engine.design().stages) {
    for (const netlist::NetId n : info.output_nets) {
      const sta::NetTiming& t = engine.timing(n);
      for (const sta::Arrival* a : {&t.rise, &t.fall}) {
        ++c.attempted;
        if (!a->valid()) continue;
        ++c.answered;
        if (!a->degraded) ++c.nominal;
      }
    }
  }
  return c;
}

bool arrivals_identical(const sta::StaEngine& a, const sta::StaEngine& b) {
  for (const auto& info : a.design().stages) {
    for (const netlist::NetId n : info.output_nets) {
      const sta::NetTiming& ta = a.timing(n);
      const sta::NetTiming& tb = b.timing(n);
      if (ta.rise.time != tb.rise.time || ta.rise.slew != tb.rise.slew ||
          ta.fall.time != tb.fall.time || ta.fall.slew != tb.fall.slew ||
          ta.rise.degraded != tb.rise.degraded ||
          ta.fall.degraded != tb.fall.degraded)
        return false;
    }
  }
  return a.worst_arrival() == b.worst_arrival();
}

WhatIf pick_what_if(const circuit::PartitionedDesign& design,
                    std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> pick_stage(
      0, design.stages.size() - 1);
  std::uniform_real_distribution<double> factor(0.5, 2.0);
  for (;;) {
    const int s = static_cast<int>(pick_stage(rng));
    const circuit::LogicStage& st = design.stages[s].stage;
    std::vector<circuit::EdgeId> fets;
    for (std::size_t e = 0; e < st.edge_count(); ++e)
      if (st.edge(static_cast<circuit::EdgeId>(e)).kind !=
          circuit::DeviceKind::wire)
        fets.push_back(static_cast<circuit::EdgeId>(e));
    if (fets.empty()) continue;
    std::uniform_int_distribution<std::size_t> pick_edge(0, fets.size() - 1);
    const circuit::EdgeId e = fets[pick_edge(rng)];
    return {s, e, st.edge(e).w * factor(rng)};
  }
}

void record_qwm_layers(const core::QwmStats& q, Record& rec) {
  auto& L = rec.layers;
  const auto d = [](std::size_t v) { return static_cast<double>(v); };
  L["device.evals"] = d(q.device_evals);
  L["device.simd_occupancy"] =
      q.simd_batches ? d(q.simd_lanes_filled) / (4.0 * d(q.simd_batches))
                     : 0.0;
  L["qwm.regions"] = d(q.regions);
  L["qwm.newton_iters"] = d(q.newton_iterations);
  L["qwm.linear_solves"] = d(q.linear_solves);
  L["qwm.newton_per_region"] =
      q.regions ? d(q.newton_iterations) / d(q.regions) : 0.0;
  L["qwm.device_evals_per_solve"] =
      q.linear_solves ? d(q.device_evals) / d(q.linear_solves) : 0.0;
  L["qwm.lu_fallbacks"] = d(q.lu_fallbacks);
  L["qwm.fallback_damped"] = d(q.fallback_counts[core::kRungDamped]);
  L["qwm.fallback_bisect"] = d(q.fallback_counts[core::kRungBisect]);
  L["qwm.fallback_spice"] = d(q.fallback_counts[core::kRungSpice]);
}

void record_engine_layers(const sta::StaEngine& engine, Record& rec) {
  record_qwm_layers(engine.qwm_stats(), rec);
  auto& L = rec.layers;
  const auto d = [](std::size_t v) { return static_cast<double>(v); };
  const support::CacheStats c = engine.cache_stats();
  L["cache.lookups"] = d(c.lookups());
  L["cache.hit_ratio"] = c.hit_rate();
  L["cache.entries"] = d(engine.cache_entries());

  L["ws.high_water_bytes"] = d(engine.workspace_stats().high_water_bytes);

  const sta::ScheduleStats& s = engine.schedule_stats();
  L["sta.steal_count"] = d(s.steal_count);
  L["sta.classify_lock_waits"] = d(s.classify_lock_waits);
  L["sta.ready_hwm"] = d(s.ready_hwm);
  L["sta.tasks_enqueued"] = d(s.tasks_enqueued);
  L["sta.chain_edges"] = d(s.chain_edges);
}

}  // namespace perfbench
