"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402  (puts src/ on sys.path)
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from rlid import bounds, cli, coloring, solvers  # noqa: E402


@pytest.fixture
def one_setup(monkeypatch):
    """One setup and one import probe per run, to keep the tests short."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_MIN_SECONDS", 0.0)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)


def test_self_time_arithmetic():
    # cli [0, 10] holds io [1, 4] (which holds graph [2, 3]) and solvers [5, 9]
    layers = ["cli", "io", "graph", "solvers"]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(layers, starts, ends, parents) == {
        "cli": 3.0, "io": 2.0, "graph": 1.0, "solvers": 4.0,
    }


def test_tracer_records_layer_entries_only():
    fake = types.ModuleType("fake")

    def leaf(x):
        return x + 1

    def inner(x):
        return fake.leaf(x) * 2

    def helper(x):
        return fake.inner(x)

    def outer(x):
        return fake.helper(x) + fake.leaf(x)

    for fn, module in ((outer, "rlid.cli"), (helper, "rlid.io"), (inner, "rlid.io"),
                       (leaf, "rlid.graph")):
        fn.__module__ = module
        setattr(fake, fn.__name__, fn)
    fake.__name__ = "fake"
    tracer = spans.Tracer([fake])
    tracer.install()
    try:
        tracer.enabled = True
        assert fake.outer(1) == 6
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert fake.outer is outer
    # io -> io stays one span; graph is entered from io and from cli
    assert tracer.layers == ["cli", "io", "graph", "graph"]
    assert tracer.parents == [-1, 0, 1, 0]
    summary = tracer.summary()
    assert summary["cli.calls"] == 1 and summary["io.calls"] == 1 and summary["graph.calls"] == 2
    total = sum(summary[layer + ".self_s"] for layer in spans.LAYERS)
    assert total == pytest.approx(tracer.ends[0] - tracer.starts[0])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    def inputs(seed, sub):
        wl = workloads.WORKLOADS[name]()
        wl.setup(seed, str(tmp_path / sub))
        return wl.inputs_bytes()

    first = inputs(7, "a")
    assert first == inputs(7, "b")
    assert first != inputs(8, "c")


def _plant_chi_off_by_one(monkeypatch):
    real = solvers.chi_exact

    def planted(g, parameter="rlid", budget=None, **kw):
        res = real(g, parameter, budget, **kw)
        if res.value is None:
            return res
        return solvers.SolveResult(res.parameter, res.value + 1, res.witness, res.status, res.stats)

    monkeypatch.setattr(solvers, "chi_exact", planted)


def _plant_gadget_infeasible(monkeypatch):
    monkeypatch.setattr(solvers, "decide_k_rlid", lambda g, k, budget=None: None)


def _plant_verify_flipped(monkeypatch):
    real = coloring.verify_rlid

    def planted(g, c):
        r = real(g, c)
        return coloring.VerificationReport(r.mode, not r.valid, r.violations)

    monkeypatch.setattr(cli, "verify_rlid", planted)


PLANTS = {
    "catalog6": _plant_chi_off_by_one,
    "cli-solve": _plant_chi_off_by_one,
    "gadget3": _plant_gadget_infeasible,
    "cli-verify": _plant_verify_flipped,
}


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_planted_wrong_answer_aborts(name, monkeypatch, one_setup):
    PLANTS[name](monkeypatch)
    with pytest.raises(CheckFailed):
        run.run_workload(name, 1, 0, 0, run.Outcomes())


@pytest.mark.parametrize("provenance", ["planted", workloads.SPLIT_LOWER_BOUND])
def test_planted_wrong_bound_aborts(provenance, monkeypatch, one_setup):
    # a lower bound one above the best upper bound excludes every value;
    # even under the split bound's name it is fatal on the certified
    # instances, where only split graphs may see that bound miss
    real = bounds.bounds_report

    def planted(g, **kw):
        r = real(g, **kw)
        lo = r.best_upper + 1
        return bounds.BoundsReport(r.lower_bounds + ((lo, provenance),), r.upper_bounds,
                                   lo, lo, lo, r.notes)

    monkeypatch.setattr(bounds, "bounds_report", planted)
    with pytest.raises(CheckFailed, match="exclude the value"):
        run.run_workload("cli-solve", 1, 0, 0, run.Outcomes())


def test_wrong_answer_exits_nonzero(monkeypatch, capsys, one_setup):
    _plant_gadget_infeasible(monkeypatch)
    assert run.main(["--workload", "gadget3", "--seed", "1", "--seconds", "0"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_scaling():
    n = speed.NOMINAL_S
    assert speed.scale(0.5, n, n) == pytest.approx(0.5)
    # at half speed the reference and the operation both take twice as long
    assert speed.scale(1.0, 2 * n, 2 * n) == pytest.approx(0.5)
    assert speed.scale(1.0, n, 3 * n) == pytest.approx(0.5)
    assert speed.sample() > 0
