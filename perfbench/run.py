"""Run one coxkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a fresh
child interpreter, one at a time, so no cache carries over between passes and
peak RSS is per pass.  Passes repeat until about S seconds have gone (at
least ``MIN_PASSES``); after each pass ``SETUP_PROBES`` more children do the
set-up alone, so set-up time has many samples spread over the run.  The first
pass also runs the workload's independent checks, after its timings and RSS
are taken.

With ``--trace 0`` the metrics are the end-to-end ones: medians over passes of
set-up time (over probes too), wall time and peak RSS, and percentiles of the
per-op times pooled over passes.  With ``--trace 1`` passes alternate
untraced and traced, without probes; the metrics are the per-layer ones from
the traced passes, the benchmark's own time and the tracing overhead (traced
minus untraced time of set-up plus ops).

Human-readable lines go first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with machine details, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("tables", "pcan_sweep", "certificates", "pcan_cli")
MIN_PASSES = 3
SETUP_PROBES = 2
PASS_TIMEOUT_S = 150
UNITS = {"setup_s": "s", "wall_s": "s", "op_ms.p50": "ms", "op_ms.p90": "ms",
         "peak_rss_mb": "MB"}


def percentile(samples, q):
    """The q-th percentile (0 <= q <= 100), interpolating linearly between
    the two nearest ranks of the sorted samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    data = sorted(samples)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def run_child(workload, seed, pass_index, mode, checks=False):
    """One child interpreter; returns its result with ``setup_s`` added."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           str(pass_index), mode, "1" if checks else "0", OUT_DIR]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT_S, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_end"] - spawned
    return result


def end_to_end(passes, setups):
    op_ms = [t * 1e3 for p in passes for t in p["op_s"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_ms.p50": percentile(op_ms, 50),
        "op_ms.p90": percentile(op_ms, 90),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(untraced, traced):
    names = traced[0]["trace"].keys()
    out = {n: statistics.median(p["trace"][n] for p in traced) for n in names}
    plain = statistics.median(p["build_s"] + p["wall_s"] for p in untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - plain
    return out


def git_commit():
    """The checkout's commit, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "coxkit", "__init__.py")):
        print("perfbench: no coxkit sources at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    start = time.monotonic()
    passes, setups = [], []
    # stop when the next round would end more than half a round past the time
    while len(passes) < MIN_PASSES or (
            time.monotonic() - start + last / 2 < args.seconds):
        began = time.monotonic()
        tracing = bool(args.trace) and len(passes) % 2 == 1
        # traced and untraced passes must do the same work to give the overhead
        index = 0 if args.trace else len(passes)
        passes.append(run_child(args.workload, args.seed, index,
                                "traced" if tracing else "timed",
                                checks=not passes))
        setups.append(passes[-1]["setup_s"])
        if not args.trace:
            setups += [run_child(args.workload, args.seed, 0, "setup")["setup_s"]
                       for _ in range(SETUP_PROBES)]
        last = time.monotonic() - began
    untraced = [p for p in passes if "trace" not in p]
    traced = [p for p in passes if "trace" in p]

    if args.trace:
        metrics = per_layer(untraced, traced)
        units = {n: "s" if n.endswith(("_s", ".s")) else
                 "ratio" if n.endswith("_ratio") else "count" for n in metrics}
    else:
        metrics = end_to_end(passes, setups)
        units = UNITS
    attempted = sum(len(p["op_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    check_failures = [f for p in passes for f in p["check_failures"]]
    checks_run = any(p["checks_run"] for p in passes)
    correct = failed == 0 and not check_failures

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "passes": len(passes), "traced_passes": len(traced),
        "setup_samples": len(setups),
        "ops_per_pass": len(passes[0]["op_s"]), "op_samples": attempted,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "checks_run": checks_run, "check_failures": check_failures[:20],
        "errors": {k: v for p in passes for k, v in p["errors"].items()},
        "spans_files": [p["spans_file"] for p in traced],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("workload %s  seed %d  passes %d  ops/pass %d  op samples %d  "
          "python %s  nproc %s  cpu %s  commit %s"
          % (args.workload, args.seed, len(passes), record["ops_per_pass"],
             attempted, record["python"], record["nproc"], record["cpu_model"],
             record["git_commit"]))
    for name, value in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, units[name]))
    print("  %-36s %14.6g ratio  (%d failed of %d attempted)"
          % ("fail_frac", record["fail_frac"], failed, attempted))
    print("  independent checks: %s" % (
        "not part of this workload" if not checks_run else
        "FAIL %s" % check_failures[:3] if check_failures else "pass"))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
