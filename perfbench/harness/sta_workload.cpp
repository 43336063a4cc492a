// sta_grid / sta_tree: cold full analysis of generated designs under the
// deps schedule with the memo cache on. Each iteration builds a fresh
// engine and runs it at 1 lane, then builds fresh engines and runs them at
// nproc lanes twice; every nproc run must agree bitwise with the
// 1-lane one. Seeded what-ifs (resize one transistor, update, report the
// critical path) follow on the last nproc engine.
#include <algorithm>
#include <random>
#include <thread>

#include "qwm/frontend/elaborate.h"
#include "qwm/frontend/generate.h"
#include "workloads.h"

namespace perfbench {

using namespace qwm;

namespace {

constexpr int kSetups = 3;        ///< set-ups per run (setup_s is a median)
constexpr int kGridDesigns = 6;   ///< grids per sta_grid round
constexpr int kMinTreeRounds = 3; ///< the tree's timed medians need three
constexpr int kLaneRepeats = 2;   ///< nproc-lane analyses per iteration
constexpr int kTreeOneLaneRepeats = 2;
constexpr int kWhatIfsPerIteration = 24;
constexpr double kSlackPeriod = 2e-9;  ///< same period as serve_tree's SLACK

}  // namespace

int run_sta(const RunOptions& o, Record& rec) {
  const bool tree = o.workload == "sta_tree";
  // The grid's work depends strongly on its seed (its SPICE-rung count
  // ranges over 27..74 between seeds), so a round analyses kGridDesigns
  // grids seeded S, S+1, ...; the tree's work barely moves with its seed.
  const int n_designs = tree ? 1 : kGridDesigns;
  std::vector<frontend::GenSpec> specs;
  for (int i = 0; i < n_designs; ++i) {
    const std::string text =
        std::string(tree ? "gen:tree:100000" : "gen:grid:10000") +
        ":seed=" + std::to_string(o.seed + static_cast<std::uint64_t>(i));
    const auto spec = frontend::parse_gen_spec(text);
    if (!spec) {
      rec.check(false, "spec", "bad generator spec " + text);
      return 1;
    }
    specs.push_back(*spec);
  }
  const int lanes =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  sta::StaOptions opt;
  opt.schedule = sta::Schedule::deps;
  opt.use_cache = true;
  // Eviction-free memoization: the 1-lane vs nproc-lane bitwise contract
  // holds only while the cache never evicts mid-run.
  opt.cache.max_entries = std::size_t{1} << 21;
  sta::StaOptions opt1 = opt;
  opt1.threads = 1;
  sta::StaOptions optn = opt;
  optn.threads = lanes;

  Tracer& tr = rec.tracer;
  std::unique_ptr<Models> models;
  std::vector<frontend::ElaboratedDesign> designs;
  for (int k = 0; k < kSetups; ++k) {
    // The first set-up counts from process start.
    const std::int64_t t0 = k == 0 ? 0 : now_ns();
    Scope s(tr, "setup");
    designs.clear();
    models.reset();
    std::int64_t t = now_ns();
    {
      Scope c(tr, "device.characterize");
      models = std::make_unique<Models>();
    }
    rec.sample("characterize_s", 1e-9 * static_cast<double>(now_ns() - t));
    for (const frontend::GenSpec& spec : specs) {
      t = now_ns();
      frontend::GateNetlist gn;
      {
        Scope c(tr, "frontend.generate");
        gn = frontend::generate_netlist(spec);
      }
      rec.sample("generate_s", 1e-9 * static_cast<double>(now_ns() - t));
      t = now_ns();
      {
        Scope c(tr, "frontend.elaborate");
        designs.push_back(frontend::elaborate(gn, models->set()));
      }
      rec.sample("elaborate_s", 1e-9 * static_cast<double>(now_ns() - t));
      {
        Scope c(tr, "sta.build");
        sta::StaEngine engine(designs.back().design, models->set(), optn);
      }
    }
    rec.sample("setup_s", 1e-9 * static_cast<double>(now_ns() - t0));
  }
  const device::ModelSet ms = models->set();

  std::mt19937_64 rng(o.seed * 0x9e3779b97f4a7c15ull + 1);
  const Clock::time_point start = Clock::now();
  const int min_rounds = tree ? kMinTreeRounds : 1;
  int iter = 0;
  double round_s = 0.0;
  Clock::time_point round_start = start;
  // Whole rounds only, so every design is timed equally often; a round
  // starts only if it is expected to end within the run's seconds.
  for (;;) {
    if (iter % n_designs == 0) {
      if (iter > 0) round_s = seconds_since(round_start);
      const int rounds = iter / n_designs;
      if (rounds >= min_rounds &&
          seconds_since(start) + round_s > o.seconds)
        break;
      round_start = Clock::now();
    }
    const int di = iter % n_designs;
    const circuit::PartitionedDesign& design = designs[di].design;
    Scope it(tr, "iteration");
    // The single-lane run repeats on the tree: one thread sees the speed
    // of whichever core it lands on, and the tree has no other designs to
    // average over.
    std::unique_ptr<sta::StaEngine> one;
    std::int64_t t_build = 0;
    std::int64_t t = 0;
    for (int r = 0; r < (tree ? kTreeOneLaneRepeats : 1); ++r) {
      if (one) {
        Scope s(tr, "sta.teardown");
        one.reset();
      }
      t = now_ns();
      {
        Scope s(tr, "sta.build");
        one = std::make_unique<sta::StaEngine>(design, ms, opt1);
      }
      t_build = now_ns() - t;
      t = now_ns();
      {
        Scope s(tr, "sta.run_1lane");
        one->run();
      }
      rec.sample("run_1lane_s", 1e-9 * static_cast<double>(now_ns() - t));
      rec.sample("run1_design", di);
      ++rec.attempted;
    }
    // The multi-lane analysis repeats: its wall time moves with how the
    // work-stealing schedule happens to place slow fallback evaluations,
    // so the per-design figure is a median of kLaneRepeats runs.
    std::unique_ptr<sta::StaEngine> many;
    EdgeCounts ec;
    for (int r = 0; r < kLaneRepeats; ++r) {
      if (many) {
        Scope s(tr, "sta.teardown");
        many.reset();
      }
      {
        Scope s(tr, "sta.build");
        many = std::make_unique<sta::StaEngine>(design, ms, optn);
      }
      t = now_ns();
      {
        Scope s(tr, "sta.run");
        many->run();
      }
      rec.sample("run_s", 1e-9 * static_cast<double>(now_ns() - t));
      rec.sample("run_design", di);
      ++rec.attempted;
      bool same = false;
      {
        Scope s(tr, "bench.compare");
        same = arrivals_identical(*one, *many);
        ec = count_edges(*many);
      }
      rec.check(same, "lanes_bitwise",
                "1-lane and " + std::to_string(lanes) +
                    "-lane arrivals differ, iteration " +
                    std::to_string(iter));
      if (!same) ++rec.failed;
    }
    rec.sample("design", di);
    rec.sample("iter_build_s", 1e-9 * static_cast<double>(t_build));
    rec.sample("edges_attempted", static_cast<double>(ec.attempted));
    rec.sample("edges_answered", static_cast<double>(ec.answered));
    rec.sample("edges_nominal", static_cast<double>(ec.nominal));
    if (iter == 0) record_engine_layers(*many, rec);
    {
      Scope s(tr, "sta.teardown");
      one.reset();
    }

    if (o.trace) {
      t = now_ns();
      {
        Scope s(tr, "sta.slacks");
        (void)many->compute_slacks(kSlackPeriod);
      }
      rec.sample("slacks_ms", 1e-6 * static_cast<double>(now_ns() - t));
    }
    const auto ws_before = many->workspace_stats();
    for (int w = 0; w < kWhatIfsPerIteration; ++w) {
      const WhatIf wi = pick_what_if(design, rng);
      const std::int64_t t0 = now_ns();
      std::size_t evals = 0;
      {
        Scope s(tr, "whatif");
        {
          Scope u(tr, "sta.update");
          many->resize_transistor(wi.stage, wi.edge, wi.width);
          evals = many->update();
        }
        const std::int64_t t1 = now_ns();
        {
          Scope c(tr, "sta.critpath");
          (void)many->critical_path();
        }
        rec.sample("update_ms", 1e-6 * static_cast<double>(t1 - t0));
        rec.sample("critpath_ms", 1e-6 * static_cast<double>(now_ns() - t1));
      }
      rec.sample("whatif_s", 1e-9 * static_cast<double>(now_ns() - t0));
      rec.sample("update_evals", static_cast<double>(evals));
      ++rec.attempted;
    }
    rec.sample("ws_grow_steady",
               static_cast<double>(many->workspace_stats().grow_events -
                                   ws_before.grow_events));
    {
      Scope s(tr, "sta.teardown");
      many.reset();
    }
    ++iter;
  }
  rec.scalars["peak_rss_mb"] = peak_rss_mb_self();
  return rec.failed_checks.empty() ? 0 : 1;
}

}  // namespace perfbench
