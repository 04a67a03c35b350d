#!/usr/bin/env python3
"""Simulator benchmark driver.

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Builds perfbench/bench.exe (release
profile, build tree under .bench_build/), then runs each pass of the chosen
workload in its own process:

  * set-up: topology generation plus scenario sampling, repeated; the
    medians are setup_s and topo.gen_s;
  * --trace 0: the untraced pass, every registered engine over the
    workload's scenarios, repeated for about --seconds; end-to-end metrics;
  * --trace 1: the traced pass, one cycle replayed from public calls with
    spans around each layer; per-layer metrics. Spans are written to
    .bench_build/spans/.

Every run's result is checked: reference digests under perfbench/ref at a
recorded seed, seed-independent invariants otherwise, and the traced replay
must equal Runner.run_engine. The last line of stdout is one JSON object with
correct / attempted / failed / metrics. Exits non-zero on any wrong output
or failed step. See perfbench/WORKLOADS.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.relpath(HERE)
BUILD_ROOT = ".bench_build"
EXE_TARGET = "./" + os.path.join(BENCH_DIR, "bench.exe")
FIG2_SNAPSHOT = "BENCH_fig2.json"

# Defined in bench.ml.
WORKLOADS = ["fig2", "coldstart", "churn"]

BUILD_TIMEOUT = 850

END_TO_END = [
    ("runs_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, env=None):
    """Run cmd in its own process group; kill the whole group on timeout and
    wait for it, so no process outlives the benchmark."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out, err


def build():
    build_dir = os.path.abspath(os.path.join(BUILD_ROOT, "dune"))
    os.makedirs(BUILD_ROOT, exist_ok=True)
    env = dict(os.environ)
    # keep dune's caches inside the checkout
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(BUILD_ROOT, "cache"))
    env["DUNE_CACHE"] = "disabled"
    code, out, err = run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", build_dir, EXE_TARGET],
        BUILD_TIMEOUT,
        env=env,
    )
    if code != 0:
        sys.stderr.write(out + err)
        fail("build failed")
    return os.path.join(build_dir, "default", BENCH_DIR, "bench.exe")


def bench(exe, mode, workload, timeout, *extra):
    cmd = [exe, mode, "--workload", workload, *extra]
    code, out, err = run(cmd, timeout)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if not lines:
        fail("bench.exe %s printed nothing (exit %d)" % (mode, code))
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if code != 0 or not result.get("correct", True):
        print(json.dumps(result))
        fail("bench.exe %s reported wrong output (exit %d)" % (mode, code), 1)
    return result


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()

    for f in ("dune-project", FIG2_SNAPSHOT):
        if not os.path.isfile(f):
            fail("%s not found: run from the root of a source checkout" % f)
    exe = build()

    # A pass takes about --seconds; set-up, the fig2 bars check and the
    # traced pass's single cycle take up to a minute on a slow host.
    timeout = 2 * a.seconds + 120
    seed = ["--seed", str(a.seed)]
    setup = bench(exe, "setup", a.workload, timeout)

    if a.trace == 0:
        r = bench(exe, "pass", a.workload, timeout, *seed,
                  "--seconds", repr(a.seconds))
        failed_share = r["failed"] / r["attempted"]
        p90 = r["run_ms_p90"]
        print("%s seed %d: %d runs attempted, %d failed (failed_share %.4f); "
              "%.1f cycles; latency sample %d jobs; run_ms_p90 %s; "
              "measured host time: runs_per_s %.4f, run_ms_p50 %.3f, "
              "setup_s %.4f; calibration kernel ms p50 after each engine "
              "%s; reference digests %s; %s bars %s"
              % (a.workload, a.seed, r["attempted"], r["failed"], failed_share,
                 r["cycles"], r["latency_samples"],
                 "n/a (fewer than 10 jobs beyond it)" if p90 is None
                 else "%.3f" % p90,
                 r["host_runs_per_s"], r["host_run_ms_p50"],
                 setup["host_setup_s"],
                 " ".join("%s %.3f" % kv for kv in r["kernel_ms_p50"].items()),
                 "checked" if r["reference"] else "absent (invariants checked)",
                 FIG2_SNAPSHOT,
                 "equal" if r["fig2_bars_checked"] else "not applicable"))
        values = dict(r, setup_s=setup["setup_s"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        attempted, failed = r["attempted"], r["failed"]
    else:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, "%s-seed%d.jsonl" % (a.workload, a.seed))
        r = bench(exe, "traced", a.workload, timeout, *seed, "--spans", spans)
        print("%s seed %d: %d traced runs, replay equals Runner.run_engine on "
              "every run; spans in %s" % (a.workload, a.seed, r["attempted"], spans))
        metrics = dict(r["metrics"])
        metrics["topo.gen_s"] = {"value": setup["topo_gen_s"], "unit": "s"}
        attempted, failed = r["attempted"], r["failed"]

    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
