"""One benchmark pass in a fresh interpreter, started by ``run.py``.

    python3 perfbench/child.py WORKLOAD SEED PASS MODE CHECKS OUT_DIR

MODE is ``setup`` (set-up only), ``timed`` or ``traced``.  Set-up is
``import coxkit`` and the workload's balls, tables and calculi; then every op
of the workload runs once, timed one by one.  Peak RSS is read right after
the last op.  Digests are compared with ``reference.json`` after the pass and,
when CHECKS is 1, the workload's independent checks run last, so neither is
timed or counted in the RSS.  Prints one JSON line with the results.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (imports coxkit: part of set-up)


def main(argv):
    name, seed, pass_index, mode, checks, out_dir = argv
    seed, pass_index, checks = int(seed), int(pass_index), checks == "1"
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.start()
    build_start = time.perf_counter()
    ops, check = workloads.WORKLOADS[name](seed, pass_index)
    build_s = time.perf_counter() - build_start
    traced_s = tracer.stop() if tracer else 0.0
    setup_end = time.monotonic()
    if mode == "setup":
        print(json.dumps({"setup_end": setup_end}))
        return

    op_s, digests, errors, kept = [], [], {}, {}
    for op in ops:
        if tracer:
            tracer.start(op.key)
        start = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception:       # one failed op is counted; the run goes on
            result, error = None, traceback.format_exc(limit=-3)
        op_s.append(time.perf_counter() - start)
        if tracer:
            traced_s += tracer.stop()
        if error:
            errors[op.key] = error
            digests.append(None)
        else:
            digests.append(op.digest(result))
            if op.keep:
                kept[op.key] = result
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    for op, got in zip(ops, digests):
        if got is not None and reference.get(op.key) != got:
            errors[op.key] = "digest %s, reference %s" % (got, reference.get(op.key))
    check_failures = check(kept) if checks and check else []

    out = {"setup_end": setup_end, "build_s": build_s, "wall_s": sum(op_s),
           "op_s": op_s, "rss_mb": rss_mb, "failed": len(errors),
           "errors": dict(list(errors.items())[:5]), "checks_run": checks and check is not None,
           "check_failures": check_failures}
    if tracer:
        out["trace"] = dict(tracer.metrics(), **{"trace.wall_s": traced_s})
        path = os.path.join(out_dir, "spans-%s-seed%d-pid%d.jsonl"
                            % (name, seed, os.getpid()))
        with open(path, "w", encoding="utf-8") as fh:
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")
        out["spans_file"] = os.path.relpath(path, os.path.dirname(HERE))
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
