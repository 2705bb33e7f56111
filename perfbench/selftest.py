"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

They are kept out of the default test collection because the workload checks
take about a minute.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_percentile_interpolates_between_ranks():
    assert run.percentile([7.0], 90) == 7.0
    assert run.percentile([3, 1, 2], 50) == 2
    assert run.percentile(range(1, 11), 50) == 5.5
    assert run.percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert run.percentile(range(1, 11), 100) == 10
    assert run.percentile(range(1, 11), 0) == 1
    with pytest.raises(ValueError):
        run.percentile([], 50)


class _FakeClock:
    """Advances by one second on every reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_times_exclude_children_and_add_up():
    t = tracing.Tracer(clock=_FakeClock())

    leaf_t = t.wrap(lambda: 1, "x.leaf")
    inner = t.wrap(lambda: leaf_t() + leaf_t(), "x.inner")
    outer_t = t.wrap(lambda: inner() + leaf_t(), "x.outer")
    assert outer_t() == 3                   # inactive: no accounting
    assert t.stats["x.outer"] == [0, 0.0]

    t.start()
    assert outer_t() == 3
    total = t.stop()
    # clock readings: start 1, outer 2..11, inner 3..8, leaves (4,5) (6,7) (9,10)
    assert t.stats["x.leaf"] == [3, 3.0]
    assert t.stats["x.inner"] == [1, 5.0 - 2.0]
    assert t.stats["x.outer"] == [1, 9.0 - 5.0 - 1.0]
    assert total == 11.0
    assert t.outside == total - 9.0
    assert sum(s for _, s in t.stats.values()) + t.outside == total


def test_spans_record_parent_and_op():
    t = tracing.Tracer(clock=_FakeClock())
    inner = t.wrap(lambda: None, "cli.cmd_pcan")          # a span
    hot = t.wrap(lambda: inner(), "laurent.LaurentPoly.__add__")  # no span
    outer = t.wrap(lambda: hot(), "cli.main")             # a span
    t.start("op-1")
    outer()
    t.stop()
    spans = {s[1]: s for s in t.span_records()}
    assert set(spans) == {"cli.main", "cli.cmd_pcan"}
    assert spans["cli.main"][4] is None
    assert spans["cli.cmd_pcan"][4] == spans["cli.main"][0]
    assert all(s[5] == "op-1" for s in spans.values())


def test_every_input_of_any_seed_has_a_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    universe = workloads.reference_universe()
    assert set(reference) == {op.key for ops in universe.values() for op in ops}
    for seed in (1, 2, 12345):
        for name, make in workloads.WORKLOADS.items():
            for pass_index in range(3):
                ops, _ = make(seed, pass_index)
                assert len(ops) * run.MIN_PASSES >= 100
                assert {op.key for op in ops} <= set(reference)


def test_seed_changes_order_not_work():
    a, _ = workloads.tables(1)
    b, _ = workloads.tables(2)
    assert sorted(op.key for op in a) == sorted(op.key for op in b)
    assert [op.key for op in a] != [op.key for op in b]
    c, _ = workloads.pcan_cli(1, 0)
    d, _ = workloads.pcan_cli(1, 0)
    e, _ = workloads.pcan_cli(1, 1)
    assert [op.key for op in c] == [op.key for op in d]
    assert [op.key for op in c] != [op.key for op in e]
    lengths = sorted(len(word) for word, _ in workloads.cli_requests(7, 0))
    assert lengths == sorted(workloads.CLI_LENGTHS * workloads.CLI_PER_LENGTH)


def _child(workload, seed, traced, checks, out_dir):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
         "0", "traced" if traced else "timed", str(int(checks)), str(out_dir)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_input_succeeds(workload, seed, tmp_path):
    result = _child(workload, seed, traced=False, checks=True, out_dir=tmp_path)
    assert result["failed"] == 0, result["errors"]
    assert result["check_failures"] == []
    assert result["checks_run"] == (workload in ("tables", "pcan_sweep"))


def test_traced_pass_adds_up(tmp_path):
    result = _child("certificates", 3, traced=True, checks=False, out_dir=tmp_path)
    metrics = result["trace"]
    layers = sum(metrics[layer + ".self_s"] for layer in tracing.LAYERS
                 if layer != "laurent") + metrics["laurent.s"]
    assert layers + metrics["bench.self_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9)
    for name in ("localization.compose_calls", "localization.double_leaf_calls",
                 "leaves.path_dom_leq_calls", "coxeter.bruhat_leq_calls",
                 "polyring.qcoeff_ops", "coxeter.ball_elements"):
        assert metrics[name] > 0, name
    assert metrics["localization.double_leaf_distinct"] \
        < metrics["localization.double_leaf_calls"]
    assert os.path.getsize(os.path.join(ROOT, result["spans_file"])) > 0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.UNITS)
    layer_names = set(tracing.Tracer().metrics()) | {"trace.wall_s",
                                                     "trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == layer_names
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    listed = list(itertools.chain.from_iterable(
        v["metrics"] for k, v in table.items() if not k.startswith("_")))
    assert sorted(listed) == sorted(layer_names)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
