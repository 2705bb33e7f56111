"""Record the reference digests every benchmark op is checked against.

Run from the repository root, once, at a commit whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/record.py

It computes every op that any seed can produce (for ``pcan_cli``, every A3
word of each length at each characteristic) and writes
``perfbench/reference.json``.  It stops with an error if any op raises, if a
certificate verdict is false, if a ``coxkit pcan`` call exits nonzero, or if
an independent check fails, so a recorded reference only holds inputs that
are supported.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def _supported(name, result):
    if name == "certificates":
        return all(result)
    if name == "pcan_cli":
        return result[0] == 0
    return True


def main():
    reference = {}
    for name, ops in workloads.reference_universe().items():
        start = time.monotonic()
        for op in ops:
            result = op.call()
            if not _supported(name, result):
                sys.exit("unsupported input %s in %s" % (op.key, name))
            reference[op.key] = op.digest(result)
        print("%s: %d ops in %.1f s" % (name, len(ops), time.monotonic() - start),
              file=sys.stderr)
    for name in ("tables", "pcan_sweep"):
        ops, check = workloads.WORKLOADS[name](0)
        failures = check({op.key: op.call() for op in ops if op.keep})
        if failures:
            sys.exit("%s check failed: %s" % (name, failures[:3]))
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
