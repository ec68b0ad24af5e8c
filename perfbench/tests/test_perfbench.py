"""Tests of the benchmark itself: metric names, tracing, answer checks.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ptfkit  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT as ROOT_SPAN  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def ptfkit_functions() -> dict:
    """Every function-valued attribute of every loaded ptfkit module."""
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "ptfkit" or name.startswith("ptfkit.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    full = workloads.WORKLOADS[workload]
    if issubclass(full, workloads._PoolWorkload):
        # a run measures whole passes over the pool; keep the pass short here
        class Tiny(full):
            def __init__(self, *args):
                super().__init__(*args)
                self.codes = self.codes[:2]

        monkeypatch.setitem(workloads.WORKLOADS, workload, Tiny)
    args = ["--workload", workload, "--seed", "3", "--seconds", "0.05", "--trace", str(trace)]
    assert run.main(args) == 0
    info, result = (json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert info["environment"]["omp_num_threads"] == "1"


def test_command_line_run():
    proc = bench("--workload", "census4", "--seed", "1", "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["attempted"] > 10


def test_self_times_add_up_to_traced_wall_time():
    census = workloads.WORKLOADS["census4"](5)
    census.warm_up()
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        records, _, _ = run.timed_loop(census.batches(), 0.3, tracer.root)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    root_total = sum(r[3] for r in records)
    # Self times partition the root spans; what is left of the wall time is
    # the spans' own bookkeeping and the harness loop outside the root spans.
    self_total = sum(tracer.self_s.values())
    assert self_total <= root_total <= wall
    assert self_total >= 0.97 * root_total
    assert root_total >= 0.8 * wall
    assert tracer.calls[ROOT_SPAN] == len(records)
    assert tracer.self_s["simplex.pivot"] > 0


def test_uninstall_restores_every_wrapped_attribute(tmp_path):
    before = ptfkit_functions()
    tracer = Tracer()
    tracer.install()
    try:
        # name-imported copies are rebound too
        assert ptfkit.highorder.order is not before[("ptfkit.highorder", "order")]
        assert ptfkit.multithreshold.share_weights is not before[("ptfkit.multithreshold", "share_weights")]
        assert ptfkit.is_threshold is not before[("ptfkit", "is_threshold")]
        mix = workloads.WORKLOADS["cli-mix"](2, tmp_path)
        batches = mix.batches()
        for _ in range(40):
            for op in next(batches):
                tracer.root(op.run)
    finally:
        tracer.uninstall()
    assert ptfkit_functions() == before
    assert tracer.self_s["cli"] > 0


def test_checks_reject_wrong_answers(tmp_path):
    census = workloads.WORKLOADS["census4"](0)
    and4 = workloads.table_of(4, 0x8000)
    op = workloads.Op(workloads._is_threshold, (and4,), 0x8000)
    assert census.check(op, op.run()) is None
    assert census.check(op, None) is not None

    order7 = workloads.WORKLOADS["order7"](0)
    op = order7.pool_op(0)
    assert order7.check(op, order7.data["orders"][0] + 1) is not None

    mix = workloads.WORKLOADS["cli-mix"](0, tmp_path)
    argv, params = mix._request("analyze")
    op = workloads.Op(workloads._cli, (argv,), ("analyze", tuple(argv), params))
    code, out = op.run()
    wrong = json.loads(out)
    wrong["result"]["order"] += 1
    assert "order" in mix.check(op, (0, json.dumps(wrong)))
    assert "exit code" in mix.check(op, (1, ""))
    assert "differs" in mix.check(op, (code, out))  # not byte-identical to the first
    assert workloads.WORKLOADS["cli-mix"](0, tmp_path).check(op, (code, out)) is None


def test_expected_orders_match_integer_weight_oracle():
    orders = workloads.small_orders()
    for n in (2, 3, 4):
        lp = {c for c, d in enumerate(orders[n]) if int(d) <= 1}
        assert lp == workloads.threshold_codes(n)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "census4", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
