"""The benchmark's arithmetic: percentiles, outcome shares, span self
times, and the reduction of a harness record to the benchmark's metrics.

Everything here is pure (no I/O) so that metrics_test.py can check it on
hand-made inputs.
"""
import math
import statistics

# End-to-end metrics, in BENCHMARK.json order: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "answered_frac": "ratio",
    "nominal_frac": "ratio",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "whatif_ms": "ms",
}

# Span names whose self time the traced run reports (ms per iteration).
# The root "iteration" span's own self time is the "other" remainder.
SELF_TIME_LAYERS = (
    "sta.build", "sta.run_1lane", "sta.run", "sta.teardown", "bench.compare",
    "sta.slacks",
    "whatif", "sta.update", "sta.critpath", "qwm.arc", "spice.transient",
    "circuit.path", "qwm.path", "spice_rung.path", "service.handle.resize",
    "service.handle.arrival", "service.handle.slack",
    "service.handle.critpath", "service.handle.stats",
)

SERVICE_VERBS = ("arrival", "slack", "critpath", "stats", "resize", "update")
READ_VERBS = SERVICE_VERBS[:4]

# Per-layer metrics: name -> unit. Every traced run reports all of them;
# a layer a workload does not pass through reads 0.
PER_LAYER = {
    "frontend.generate_s": "s",
    "frontend.elaborate_s": "s",
    "device.characterize_s": "s",
    "device.evals": "count",
    "device.simd_occupancy": "ratio",
    "circuit.path_us": "us",
    "qwm.path_us": "us",
    "qwm.regions": "count",
    "qwm.newton_iters": "count",
    "qwm.linear_solves": "count",
    "qwm.newton_per_region": "ratio",
    "qwm.device_evals_per_solve": "ratio",
    "qwm.lu_fallbacks": "count",
    "qwm.fallback_damped": "count",
    "qwm.fallback_bisect": "count",
    "qwm.fallback_spice": "count",
    "spice_rung.path_ms": "ms",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.entries": "count",
    "ws.high_water_bytes": "bytes",
    "ws.grow_steady": "count",
    "spice.transient_ms": "ms",
    "spice.steps": "count",
    "spice.nr_iters": "count",
    "spice.arcs_per_s": "1/s",
    "sta.build_s": "s",
    "sta.run_s": "s",
    "sta.run_1lane_s": "s",
    "sta.arcs_per_s_1lane": "1/s",
    "sta.parallel_speedup": "ratio",
    "sta.steal_count": "count",
    "sta.classify_lock_waits": "count",
    "sta.ready_hwm": "count",
    "sta.tasks_enqueued": "count",
    "sta.chain_edges": "count",
    "sta.slacks_ms": "ms",
    "sta.critpath_ms": "ms",
    "sta.update_ms": "ms",
    "sta.update_evals": "count",
}
for _v in SERVICE_VERBS:
    PER_LAYER["service.rtt_us." + _v] = "us"
    PER_LAYER["service.handler_ms." + _v] = "ms"
    PER_LAYER["service.queue_us." + _v] = "us"
PER_LAYER.update({
    "service.busy": "count",
    "service.slack_memo_hit_ratio": "ratio",
    "service.whatif_late_ms": "ms",
    "service.read_tail_us": "us",
    "service.read_tail_pct": "pct",
    "service.read_samples": "count",
    "whatif.p50_ms": "ms",
    "whatif.mean_ms": "ms",
    "whatif.tail_ms": "ms",
    "whatif.tail_pct": "pct",
    "whatif.samples": "count",
    "outcome.failed_frac": "ratio",
    "outcome.degraded_frac": "ratio",
    "gates.delay_err_max_pct": "%",
})
for _l in SELF_TIME_LAYERS:
    PER_LAYER["self_ms." + _l] = "ms"
PER_LAYER["self_ms.other"] = "ms"
PER_LAYER["trace.other_share"] = "ratio"
PER_LAYER["trace.iteration_ms"] = "ms"
for _m, _u in END_TO_END.items():
    PER_LAYER["trace_overhead." + _m] = _u

TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values, min_above=10):
    """The highest percentile of TAIL_LADDER that has at least `min_above`
    samples strictly above its nearest-rank position, as (pct, value).
    None when even the median has fewer than `min_above` samples above."""
    s = sorted(values)
    n = len(s)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= min_above:
            return pct, s[rank - 1]
    return None


def outcome_shares(attempted, answered, nominal):
    """(answered_frac, nominal_frac, failed_frac, degraded_frac) of a set of
    attempted work items: answered = got an answer, nominal = answered
    without the fallback ladder."""
    if attempted <= 0:
        raise ValueError("no work attempted")
    failed = attempted - answered
    degraded = answered - nominal
    return (answered / attempted, nominal / attempted, failed / attempted,
            degraded / attempted)


def self_times(spans):
    """Self time per span name [ns], summed over every span tree.

    `spans` rows are (name, start_ns, end_ns, parent_index, req). A span's
    self time is its duration minus the union of its children's intervals
    (clipped to the span), so overlapping children are not counted twice.
    """
    children = {}
    for i, row in enumerate(spans):
        children.setdefault(row[3], []).append(i)
    out = {}
    for i, (name, start, end, _parent, _req) in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for c in sorted(children.get(i, []), key=lambda c: spans[c][1]):
            s = max(spans[c][1], start)
            e = min(spans[c][2], end)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[name] = out.get(name, 0) + (end - start - covered)
    return out


def subtree(spans, root_name):
    """The spans of every tree rooted at a span named `root_name`, with
    parent indices remapped. Returns (rows, number_of_roots)."""
    keep = {}
    rows = []
    roots = 0
    for i, (name, start, end, parent, req) in enumerate(spans):
        if parent == -1 and name == root_name:
            roots += 1
        elif parent not in keep:
            continue
        keep[i] = len(rows)
        rows.append((name, start, end, keep.get(parent, -1), req))
    return rows, roots


def iteration_split(spans):
    """Per-iteration self time [ms] of each layer plus the "other"
    remainder (the iteration span's own self time), the mean iteration
    wall [ms] and the other share. The parts add up to the wall."""
    rows, n = subtree(spans, "iteration")
    if n == 0:
        return {}, 0.0, 0.0
    st = self_times(rows)
    wall = sum(e - s for (name, s, e, p, _r) in rows if p == -1)
    split = {k: v / n / 1e6 for k, v in st.items() if k != "iteration"}
    split["other"] = st.get("iteration", 0) / n / 1e6
    return split, wall / n / 1e6, (st.get("iteration", 0) / wall if wall else 0.0)


def read_samples(samples):
    """Round-trip times [us] of every read request (the closed-loop mix)."""
    return [us for v in READ_VERBS for us in samples.get("rtt_us." + v, [])]


def sta_totals(s):
    """Edge counts and analysis times of an sta_* record, per design: its
    edge counts and the medians of its nproc-lane and 1-lane times, summed
    over designs so that each design weighs equally. Returns (attempted,
    answered, nominal, nproc_s, one_lane_s, designs)."""
    def per_design(keys, values):
        by = {}
        for d, v in zip(keys, values):
            by.setdefault(d, []).append(v)
        return by
    first = {d: ix[0] for d, ix in
             per_design(s["design"], range(len(s["design"]))).items()}
    att = sum(s["edges_attempted"][i] for i in first.values())
    ans = sum(s["edges_answered"][i] for i in first.values())
    nom = sum(s["edges_nominal"][i] for i in first.values())
    t_n = sum(median(ts) for ts in
              per_design(s["run_design"], s["run_s"]).values())
    t_1 = sum(median(ts) for ts in
              per_design(s["run1_design"], s["run_1lane_s"]).values())
    return att, ans, nom, t_n, t_1, len(first)


def end_to_end(rec):
    """End-to-end metrics of one harness record (see README.md)."""
    w = rec["workload"]
    s = rec["samples"]
    sc = rec["scalars"]
    m = {"setup_s": median(s["setup_s"]), "peak_rss_mb": sc["peak_rss_mb"]}
    if w in ("sta_grid", "sta_tree"):
        att, ans, nom, t_n, t_1, n_designs = sta_totals(s)
        m["throughput_per_s"] = nom / t_n
        m["latency_p50_ms"] = 1e3 * t_n / n_designs
    elif w == "gates":
        att = median(s["arcs_attempted"])
        ans = median(s["arcs_answered"])
        nom = median(s["arcs_nominal"])
        m["throughput_per_s"] = median(
            [n / t for n, t in zip(s["arcs_nominal"], s["qwm_pass_s"])])
        m["latency_p50_ms"] = 1e3 * median(s["qwm_arc_s"])
    elif w == "serve_tree":
        att = sc["requests_sent"]
        ans = att - sc["requests_failed"]
        nom = ans - sc["requests_degraded"]
        # Median over whole seconds: a burst of host contention moves a few
        # seconds, not the figure.
        m["throughput_per_s"] = median(s["reads_per_s"])
        m["latency_p50_ms"] = 1e-3 * median(read_samples(s))
    else:
        raise ValueError("unknown workload " + w)
    m["answered_frac"], m["nominal_frac"], _f, _d = outcome_shares(att, ans,
                                                                   nom)
    # The typical what-if. On serve_tree about half of the what-ifs wait for
    # a slack recompute that a reader started after the RESIZE, so the
    # latency is bimodal and its median jumps between the modes; the mean
    # is used there. Elsewhere the distribution is one-humped with a long
    # tail (a rare large fanout cone), and the median is used.
    wi = s["whatif_s"]
    m["whatif_ms"] = 1e3 * (statistics.fmean(wi) if w == "serve_tree"
                            else median(wi))
    return m


def per_layer(rec, untraced=None):
    """Per-layer metrics of a traced record; `untraced` is the end-to-end
    dict of an untraced run of the same workload and seed, for the tracing
    overhead."""
    s = rec["samples"]
    L = {k: 0.0 for k in PER_LAYER}
    for k, v in rec["layers"].items():
        if k in L:
            L[k] = v
    med = lambda key: median(s.get(key, []))  # noqa: E731
    L["frontend.generate_s"] = med("generate_s")
    L["frontend.elaborate_s"] = med("elaborate_s")
    L["device.characterize_s"] = med("characterize_s")
    L["circuit.path_us"] = med("circuit_path_us")
    L["qwm.path_us"] = med("qwm_path_us")
    L["spice_rung.path_ms"] = med("spice_rung_ms")
    L["spice.transient_ms"] = 1e3 * med("spice_arc_s")
    L["sta.build_s"] = med("iter_build_s")
    L["sta.run_s"] = med("run_s")
    L["sta.run_1lane_s"] = med("run_1lane_s")
    if rec["workload"] in ("sta_grid", "sta_tree"):
        _a, _b, nom, t_n, t_1, _d = sta_totals(s)
        L["sta.parallel_speedup"] = t_1 / t_n
        L["sta.arcs_per_s_1lane"] = nom / t_1
    if rec["workload"] == "gates":
        L["spice.arcs_per_s"] = median(
            [n / t for n, t in zip(s["arcs_nominal"], s["spice_pass_s"])])
    L["sta.slacks_ms"] = med("slacks_ms")
    L["sta.critpath_ms"] = med("critpath_ms")
    L["sta.update_ms"] = med("update_ms")
    L["sta.update_evals"] = med("update_evals")
    L["ws.grow_steady"] = max(s.get("ws_grow_steady", [0]))

    if rec["workload"] == "serve_tree":
        for v in SERVICE_VERBS:
            rtt = s.get("rtt_us." + v, [])
            L["service.rtt_us." + v] = median(rtt)
            if rtt:
                L["service.queue_us." + v] = (
                    statistics.fmean(rtt) -
                    1e3 * L["service.handler_ms." + v])
        L["service.whatif_late_ms"] = med("whatif_late_ms")
        reads = read_samples(s)
        tail = tail_percentile(reads)
        if tail:
            L["service.read_tail_pct"], L["service.read_tail_us"] = tail
        L["service.read_samples"] = len(reads)

    wi = [1e3 * v for v in s["whatif_s"]]
    L["whatif.p50_ms"] = median(wi)
    L["whatif.mean_ms"] = statistics.fmean(wi)
    tail = tail_percentile(wi)
    if tail:
        L["whatif.tail_pct"], L["whatif.tail_ms"] = tail
    L["whatif.samples"] = len(wi)

    e2e = end_to_end(rec)
    L["outcome.failed_frac"] = 1.0 - e2e["answered_frac"]
    L["outcome.degraded_frac"] = e2e["answered_frac"] - e2e["nominal_frac"]

    split, wall, other_share = iteration_split(rec["spans"])
    for k, v in split.items():
        if "self_ms." + k in L:
            L["self_ms." + k] = v
    L["trace.iteration_ms"] = wall
    L["trace.other_share"] = other_share
    if untraced:
        for k in END_TO_END:
            L["trace_overhead." + k] = e2e[k] - untraced[k]
    return L


def as_output(values, units, correct, attempted, failed):
    """The benchmark's result object (the last stdout line)."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
