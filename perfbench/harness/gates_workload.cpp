// gates: the paper's own experiment. The Table I gates (inv, nand2-4) and
// the Table II NMOS stacks (k = 5..10, three width sets each, drawn from
// mt19937(S) as bench_table2_stacks does; kTables such tables per run),
// each evaluated cold and single-threaded by QWM with no cache, next to
// the 1 ps fixed-step SPICE transient that is the reference simulator.
// Every arc's QWM delay must stay within the differential fuzz's
// tolerance (15 % or 5 ps) of the 1 ps SPICE delay.
#include <algorithm>
#include <cmath>
#include <random>

#include "qwm/circuit/builders.h"
#include "qwm/circuit/path.h"
#include "qwm/core/spice_fallback.h"
#include "qwm/core/stage_eval.h"
#include "qwm/spice/from_stage.h"
#include "qwm/spice/transient.h"
#include "workloads.h"

namespace perfbench {

using namespace qwm;

namespace {

constexpr int kSetups = 9;
/// Table II width sets per run, seeded S, S+1, ...: about one table in four
/// holds an ill-conditioned stack that costs 30x a typical arc, so the rate
/// over a few tables moves with the seed; sixteen average it out.
constexpr int kTables = 16;
constexpr int kMinPasses = 3;
constexpr double kTolRel = 0.15;    ///< differential fuzz tolerance ...
constexpr double kTolAbs = 5e-12;   ///< ... or this absolute floor [s]
constexpr double kWhatIfScale = 1.5;

struct Arc {
  std::string name;
  circuit::BuiltStage stage;
  /// The same stage with its switching transistor widened: the what-if.
  circuit::BuiltStage resized;
  std::vector<numeric::PwlWaveform> inputs;
  spice::StageSim sim;
  spice::TransientOptions tran;
};

/// Switching input steps at 5 ps; the others sit at the non-controlling
/// level.
std::vector<numeric::PwlWaveform> step_inputs(const circuit::BuiltStage& b,
                                              double vdd) {
  std::vector<numeric::PwlWaveform> in;
  for (std::size_t i = 0; i < b.stage.input_count(); ++i) {
    if (static_cast<int>(i) == b.switching_input)
      in.push_back(b.output_falls
                       ? numeric::PwlWaveform::step(5e-12, 0.0, vdd)
                       : numeric::PwlWaveform::step(5e-12, vdd, 0.0));
    else
      in.push_back(numeric::PwlWaveform::constant(b.output_falls ? vdd : 0.0));
  }
  return in;
}

circuit::BuiltStage widen_switching_device(circuit::BuiltStage b) {
  for (std::size_t e = 0; e < b.stage.edge_count(); ++e) {
    auto& edge = b.stage.edge_mut(static_cast<circuit::EdgeId>(e));
    if (edge.kind != circuit::DeviceKind::wire &&
        edge.input == b.switching_input) {
      edge.w *= kWhatIfScale;
      break;
    }
  }
  return b;
}

std::vector<Arc> build_arcs(const Models& m, std::uint64_t seed) {
  const device::Process& proc = m.proc;
  const double load = circuit::fanout_load_cap(proc);
  std::vector<std::pair<std::string, circuit::BuiltStage>> stages;
  stages.emplace_back("inv", circuit::make_inverter(proc, load));
  for (int n = 2; n <= 4; ++n)
    stages.emplace_back("nand" + std::to_string(n),
                        circuit::make_nand(proc, n, load));
  for (int table = 0; table < kTables; ++table) {
    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed + table));
    std::uniform_real_distribution<double> width(1.0e-6, 4.0e-6);
    for (int k = 5; k <= 10; ++k) {
      for (int cfg = 1; cfg <= 3; ++cfg) {
        std::vector<double> widths(k);
        for (double& w : widths) w = width(rng);
        stages.emplace_back("stack" + std::to_string(k) + "_" +
                                std::to_string(cfg) + "_t" +
                                std::to_string(table),
                            circuit::make_nmos_stack(proc, widths, load));
      }
    }
  }

  const device::ModelSet ms = m.set();
  std::vector<Arc> arcs;
  for (auto& [name, b] : stages) {
    Arc a{name, b, widen_switching_device(b), step_inputs(b, proc.vdd),
          spice::circuit_from_stage(b.stage, ms, step_inputs(b, proc.vdd)),
          {}};
    // Worst-case precharge: every internal node at the far rail.
    const double pre = b.output_falls ? proc.vdd : 0.0;
    for (std::size_t n = 0; n < b.stage.node_count(); ++n) {
      const auto id = static_cast<circuit::NodeId>(n);
      if (!b.stage.is_rail(id)) a.sim.circuit.set_ic(a.sim.node_of[n], pre);
    }
    // Window: twice the QWM transition, at least 500 ps (Table I's).
    const core::StageTiming st = core::evaluate_stage(b, a.inputs, ms);
    a.tran.dt = 1e-12;
    a.tran.t_stop = st.ok && !st.qwm.critical_times.empty()
                        ? std::max(2.0 * st.qwm.critical_times.back(), 500e-12)
                        : 500e-12;
    arcs.push_back(std::move(a));
  }
  return arcs;
}

/// 50 %-in to 50 %-out delay of a SPICE result.
std::optional<double> spice_delay(const Arc& a, const spice::TransientResult& r,
                                  double vdd) {
  const auto& b = a.stage;
  const auto t_in = a.inputs[b.switching_input].crossing(0.5 * vdd, 0.0,
                                                         b.output_falls);
  if (!t_in) return std::nullopt;
  const auto t_out = r.waveforms[a.sim.node_of[b.output]].crossing(
      0.5 * vdd, *t_in, !b.output_falls);
  if (!t_out) return std::nullopt;
  return *t_out - *t_in;
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return 1e-9 * static_cast<double>(b - a);
}

}  // namespace

int run_gates(const RunOptions& o, Record& rec) {
  Tracer& tr = rec.tracer;
  std::unique_ptr<Models> models;
  std::vector<Arc> arcs;
  for (int k = 0; k < kSetups; ++k) {
    const std::int64_t t0 = k == 0 ? 0 : now_ns();
    Scope s(tr, "setup");
    arcs.clear();
    models.reset();
    std::int64_t t = now_ns();
    {
      Scope c(tr, "device.characterize");
      models = std::make_unique<Models>();
    }
    rec.sample("characterize_s", seconds_between(t, now_ns()));
    {
      Scope c(tr, "bench.build_arcs");
      arcs = build_arcs(*models, o.seed);
    }
    rec.sample("setup_s", seconds_between(t0, now_ns()));
  }
  const device::ModelSet ms = models->set();
  const double vdd = models->proc.vdd;

  std::vector<double> qwm_delay(arcs.size(), -1.0);
  double err_max = 0.0;
  const Clock::time_point start = Clock::now();
  int pass = 0;
  while (pass < kMinPasses || seconds_since(start) < o.seconds) {
    Scope ps(tr, "iteration");
    double qwm_s = 0.0, spice_s = 0.0;
    std::size_t ok = 0, nominal = 0;
    core::QwmStats qs;
    spice::TransientStats ts_sum;
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const Arc& a = arcs[i];
      // Cold QWM arc: extraction, path problem, region solves.
      std::int64_t t = now_ns();
      core::StageTiming st;
      {
        Scope s(tr, "qwm.arc");
        st = core::evaluate_stage(a.stage, a.inputs, ms);
      }
      const double dq = seconds_between(t, now_ns());
      qwm_s += dq;
      rec.sample("qwm_arc_s", dq);
      ++rec.attempted;
      if (!st.ok || !st.delay) {
        ++rec.failed;
        rec.check(false, "qwm_ok", a.name + ": " + st.error);
        continue;
      }
      ++ok;
      if (!st.qwm.degraded) ++nominal;
      qs += st.qwm.stats;
      if (pass == 0) {
        qwm_delay[i] = *st.delay;
      } else if (*st.delay != qwm_delay[i]) {
        ++rec.failed;
        rec.check(false, "qwm_repeatable",
                  a.name + ": cold QWM delay changed between passes");
      }

      // The 1 ps SPICE reference.
      t = now_ns();
      spice::TransientResult r;
      {
        Scope s(tr, "spice.transient");
        r = spice::simulate_transient(a.sim.circuit, a.tran);
      }
      const double ds = seconds_between(t, now_ns());
      spice_s += ds;
      rec.sample("spice_arc_s", ds);
      ts_sum.steps += r.stats.steps;
      ts_sum.nr_iterations += r.stats.nr_iterations;
      ++rec.attempted;
      if (pass == 0) {
        const auto d = spice_delay(a, r, vdd);
        if (!d) {
          ++rec.failed;
          rec.check(false, "spice_delay", a.name + ": no 50% crossing");
          continue;
        }
        const double err = std::abs(qwm_delay[i] - *d);
        err_max = std::max(err_max, 100.0 * err / *d);
        const bool close = err <= std::max(kTolRel * *d, kTolAbs);
        rec.check(close, "qwm_vs_spice",
                  a.name + ": QWM " + std::to_string(qwm_delay[i] * 1e12) +
                      " ps vs SPICE " + std::to_string(*d * 1e12) + " ps");
        if (!close) ++rec.failed;
      }

      // What-if: the switching transistor widened, re-evaluated cold.
      t = now_ns();
      {
        Scope s(tr, "whatif");
        const core::StageTiming w = core::evaluate_stage(a.resized, a.inputs,
                                                         ms);
        rec.check(w.ok, "whatif_ok", a.name + ": " + w.error);
        if (!w.ok) ++rec.failed;
      }
      rec.sample("whatif_s", seconds_between(t, now_ns()));
      ++rec.attempted;

      if (o.trace) {
        // Layer split of the QWM arc, each layer called on its own.
        t = now_ns();
        circuit::PathProblem prob;
        {
          Scope s(tr, "circuit.path");
          const circuit::ExtractedPath path = circuit::extract_worst_path(
              a.stage.stage, a.stage.output, a.stage.output_falls);
          prob = circuit::build_path_problem(a.stage.stage, path, ms);
        }
        rec.sample("circuit_path_us", 1e-3 * static_cast<double>(now_ns() - t));
        t = now_ns();
        {
          Scope s(tr, "qwm.path");
          (void)core::evaluate_path(prob, a.inputs);
        }
        rec.sample("qwm_path_us", 1e-3 * static_cast<double>(now_ns() - t));
        t = now_ns();
        {
          Scope s(tr, "spice_rung.path");
          core::QwmResult res;
          (void)core::spice_fallback_evaluate(prob, a.inputs, {}, res);
        }
        rec.sample("spice_rung_ms", 1e-6 * static_cast<double>(now_ns() - t));
      }
    }
    rec.sample("qwm_pass_s", qwm_s);
    rec.sample("spice_pass_s", spice_s);
    rec.sample("arcs_attempted", static_cast<double>(arcs.size()));
    rec.sample("arcs_answered", static_cast<double>(ok));
    rec.sample("arcs_nominal", static_cast<double>(nominal));
    if (pass == 0) {
      record_qwm_layers(qs, rec);
      rec.layers["spice.steps"] = static_cast<double>(ts_sum.steps);
      rec.layers["spice.nr_iters"] = static_cast<double>(ts_sum.nr_iterations);
    }
    ++pass;
  }
  rec.layers["gates.delay_err_max_pct"] = err_max;
  rec.scalars["peak_rss_mb"] = peak_rss_mb_self();
  return rec.failed_checks.empty() ? 0 : 1;
}

}  // namespace perfbench
