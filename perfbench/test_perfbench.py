"""The benchmark's own tests: its definition file, smoke runs, and the tracer.

    python -m pytest perfbench -q

Kept out of the package's test suite (``tests/``); a smoke run of every
workload takes about a minute and a half in all.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_harness():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]
    assert e2e == run.REPORTED
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
    assert per_layer == [(n, u, b) for n, u, b, *_ in layers.METRICS]
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + list(run.WORKLOADS)
    assert len(names) == len(set(names))
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(1, 41))) == (30, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_cycle_count_depends_only_on_seconds():
    from workloads import WORKLOADS

    seconds = BENCH["run_seconds"]
    assert {name: w.cycles(seconds) for name, w in WORKLOADS.items()} == {
        "certify": 3, "enumerate": 7, "bounds": 6, "cli": 1}
    assert all(w.cycles(0) == 1 for w in WORKLOADS.values())


def test_clifford_generators_permute_the_dictionary():
    from magiclab.stabdict import enumerate_stabilizer_states
    from workloads import clifford_gates

    for n, d in [(3, 2), (2, 3)]:
        states = enumerate_stabilizer_states(n, d).states
        for gate in clifford_gates(n, d):
            overlaps = np.abs(states.conj().T @ (gate @ states))
            assert np.all(np.sum(np.abs(overlaps - 1) < 1e-9, axis=0) == 1)


def test_pool_values_are_the_base_states_values():
    from magiclab.measures import magic_report
    from magiclab.stabdict import enumerate_stabilizer_states
    from workloads import POOL, pool_state

    for (n, d), values in POOL.items():
        dic = enumerate_stabilizer_states(n, d)
        for k, (xi, lr) in enumerate(values):
            identity = [np.eye(d**n)]  # a Clifford image under the identity is the base
            psi, _ = pool_state(np.random.default_rng(0), n, d, k, identity)
            rep = magic_report(psi, dic)
            assert abs(rep.xi - xi) < 1e-5 and abs(rep.lr - lr) < 1e-7


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_a_correct_result(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "bounds", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_tracer_restores_the_package_and_reports_missing_targets():
    import magiclab.measures

    original = magiclab.measures.solve_lp
    tracer = Tracer()
    tracer.install(TARGETS + [("solvers", "no_such_function", None)])
    assert magiclab.measures.solve_lp is not original
    assert "solvers.no_such_function" in tracer.absent
    tracer.uninstall()
    assert magiclab.measures.solve_lp is original
