#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload sta_grid|sta_tree|serve_tree|gates
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt: the libraries from src/, qwm_serve and
the harness) under .bench_build/perfbench, or under $CARGO_TARGET_DIR/perfbench
when that is set; later runs only rebuild what changed.

Every run first runs the benchmark's self-tests, then the workload; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
runs the workload untraced and then traced and reports the per-layer
metrics, the self-time split and the tracing overhead. The exit status is
non-zero when a self-test or a correctness check fails, and when the
repository sources are missing. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("sta_grid", "sta_tree", "serve_tree", "gates")
# Default seeds: generated designs use 7, the Table II stacks 2003 (DATE
# 2003, as in bench_table2_stacks). Seed 11 is held out for later claims.
DEFAULT_SEED = {"sta_grid": 7, "sta_tree": 7, "serve_tree": 7, "gates": 2003}
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr."""
    subprocess.run(cmd, check=True, timeout=timeout, stdout=sys.stderr,
                   stderr=sys.stderr)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("repository sources not found under " + ROOT)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", bdir, "-j", jobs], BUILD_TIMEOUT_S)
    return bdir


def harness(bdir, args):
    """Runs the harness in its own process group (so a timeout also stops
    the qwm_serve child it may have started) and parses its record."""
    cmd = [os.path.join(bdir, "perfbench_harness")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            cwd=bdir, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("harness timed out: " + " ".join(args))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray children, if any
        except ProcessLookupError:
            pass
    lines = [ln for ln in out.splitlines() if ln.startswith("{")]
    if not lines:
        raise RuntimeError("harness printed no record (exit %d): %s"
                           % (proc.returncode, " ".join(args)))
    rec = json.loads(lines[-1])
    rec["exit_code"] = proc.returncode
    return rec


def self_tests(bdir):
    """The benchmark's own arithmetic (metrics_test.py) and the edge
    counting on the 4-gate deck (harness selftest). True when all pass."""
    import metrics_test
    suite = unittest.defaultTestLoader.loadTestsFromModule(metrics_test)
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    rec = harness(bdir, ["selftest"])
    for name, detail in rec["failed_checks"]:
        log("self-test %s failed: %s" % (name, detail))
    return result.wasSuccessful() and rec["exit_code"] == 0


def run_workload(bdir, workload, seed, seconds, trace):
    args = [workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0",
            "--serve-bin", os.path.join(bdir, "qwm_serve")]
    rec = harness(bdir, args)
    for name, detail in rec["failed_checks"]:
        log("check %s failed: %s" % (name, detail))
    return rec


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    seed = DEFAULT_SEED[a.workload] if a.seed is None else a.seed

    try:
        bdir = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("build failed: %s" % e)
        return 2
    try:
        tests_ok = self_tests(bdir)
        rec = run_workload(bdir, a.workload, seed, a.seconds, False)
        e2e = metrics.end_to_end(rec)
        if a.trace:
            traced = run_workload(bdir, a.workload, seed, a.seconds, True)
            values = metrics.per_layer(traced, untraced=e2e)
            units = metrics.PER_LAYER
            runs = [rec, traced]
        else:
            values, units, runs = e2e, metrics.END_TO_END, [rec]
    except (RuntimeError, OSError, KeyError, ValueError) as e:
        log("run failed: %s" % e)
        return 1

    correct = tests_ok and all(r["exit_code"] == 0 and not r["failed_checks"]
                               for r in runs)
    out = metrics.as_output(values, units, correct,
                            sum(r["attempted"] for r in runs),
                            sum(r["failed"] for r in runs))
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
