import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import magiclab
from magiclab import boolfn, cli, lattice, mbqc
from magiclab.cli import dump_state_file, load_state_file, main
from magiclab.measures import golden_state


@pytest.fixture()
def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    dump_state_file(str(path), 1, 2, golden_state())
    return str(path)


def _reject_constant(name):
    raise ValueError(f"stdout holds the non-JSON constant {name}")


def run_cli(capsys, *argv):
    """Exit code and the one strict JSON document on stdout (json.loads
    alone would accept NaN and Infinity)."""
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_reject_constant)


def test_state_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    dump_state_file(str(p1), 3, 2, amps)
    n, d, loaded = load_state_file(str(p1))
    dump_state_file(str(p2), n, d, loaded)
    # bit-identical round trip of the parsed payloads
    assert json.loads(p1.read_text()) == json.loads(p2.read_text())
    assert np.array_equal(loaded, np.array([complex(a, b) for a, b in json.loads(p1.read_text())["amplitudes"]]))


def test_state_file_rejects_unnormalized(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "d": 2, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}))
    with pytest.raises(ValueError):
        load_state_file(str(path))


@pytest.mark.parametrize(
    "sizes", [{"n": 1.9, "d": 2.7}, {"n": True}, {"n": 1, "d": 2.0}, {"n": "1"}]
)
def test_state_file_sizes_are_json_integers(capsys, tmp_path, sizes):
    # int() would run {"n": 1.9, "d": 2.7} and {"n": true} as one qubit
    path = tmp_path / "sizes.json"
    path.write_text(json.dumps({**sizes, "amplitudes": [[1, 0], [0, 0]]}))
    code, out = run_cli(capsys, "measures", "--state", str(path))
    assert code == 1
    assert out["error"] == "ValueError"
    assert out["message"].startswith("n and d must be JSON integers")


@pytest.mark.parametrize("n", [0, -1])
def test_state_file_needs_a_positive_n(capsys, tmp_path, n):
    # n = -1 was reported as "expected 0.5 amplitudes", and n = 0 reached the
    # enumerator's "n must be positive"
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": n, "d": 2, "amplitudes": []}))
    code, out = run_cli(capsys, "measures", "--state", str(path))
    assert code == 1
    assert out["error"] == "ValueError"
    assert out["message"] == f"state file {path}: n must be at least 1, found {n}"


@pytest.mark.parametrize("n, d", [(3_000_000, 3), (25, 2)])
def test_state_file_with_too_many_amplitudes(capsys, tmp_path, n, d):
    # refused on n alone: d**n is never formed (3^3000000 took about a second,
    # then failed to print), and a 2^25-amplitude state is past the cap
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": n, "d": d, "amplitudes": [[1, 0]]}))
    code, out = run_cli(capsys, "measures", "--state", str(path))
    assert code == 1
    assert out["error"] == "ResourceLimitError"
    assert out["message"] == f"state file {path}: n={n} needs more than 2^24 amplitudes"


def test_state_file_with_too_few_amplitudes(capsys, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"n": 2, "d": 2, "amplitudes": [[1, 0], [0, 0], [0, 0]]}))
    code, out = run_cli(capsys, "measures", "--state", str(path))
    assert code == 1
    assert out["error"] == "ValueError"
    assert out["message"] == "expected 4 amplitudes, found 3"


@pytest.mark.parametrize(
    "amplitudes, reason",
    [([[1, 0], [0, 0, 0]], "too many values"), ([[1, 0], [0]], "not enough values")],
    ids=["long_pair", "short_pair"],
)
def test_state_file_with_a_malformed_pair(capsys, tmp_path, amplitudes, reason):
    # a pair that is not (re, im) names the file, like every malformed field
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"n": 1, "d": 2, "amplitudes": amplitudes}))
    code, out = run_cli(capsys, "measures", "--state", str(path))
    assert code == 1
    assert out["error"] == "ValueError"
    assert out["message"].startswith(f"malformed state file {path}: ValueError('{reason}")


@pytest.mark.parametrize("d", [-3, 1])
def test_state_file_needs_d_2_or_3(capsys, tmp_path, d):
    # d = -3 was reported as "expected -27 amplitudes", and a d = 1 file
    # loaded and failed later in each command
    path = tmp_path / "dims.json"
    path.write_text(json.dumps({"n": 3, "d": d, "amplitudes": [[1, 0]]}))
    code, out = run_cli(capsys, "measures", "--state", str(path))
    assert code == 1
    assert out["error"] == "ValueError"
    assert out["message"] == f"state file {path}: d must be 2 or 3, found {d}"


def test_measures_command(capsys, tmp_path, golden_file):
    code, payload = run_cli(
        capsys, "--cache-dir", str(tmp_path), "measures", "--state", golden_file
    )
    assert code == 0
    assert abs(payload["dmin"] - math.log2(3 - math.sqrt(3))) < 1e-6
    assert payload["tolerances"]["lp"] == 1e-9
    assert payload["version"] == payload["tool_version"]


def test_dmin_is_positive_zero_on_stabilizer_states(capsys, tmp_path):
    # with amplitudes 0.5**0.5 the Bell state's best fidelity rounds to
    # 1 + 2^-52, and |00> of two qutrits has fidelity 1: neither reports
    # negative magic, nor -0.0
    bell, zero = tmp_path / "bell.json", tmp_path / "qutrit00.json"
    dump_state_file(str(bell), 2, 2, np.array([1, 0, 0, 1]) * 0.5**0.5)
    dump_state_file(str(zero), 2, 3, np.eye(9, 1, dtype=complex).ravel())
    for argv in (
        ["measures", "--state", str(bell)],
        ["mbqc", "--state", str(bell), "--layout", "XX,ZZ"],
        ["measures", "--state", str(zero)],
    ):
        code, payload = run_cli(capsys, *argv)
        assert code == 0
        assert payload["dmin"] == 0.0 and math.copysign(1, payload["dmin"]) == 1, argv


def test_chi_command(capsys):
    code, payload = run_cli(capsys, "chi", "--anf", "x1*x2*x3")
    assert code == 0
    assert payload["chi"] == 1
    assert abs(payload["dmin_bound"] - math.log2(16 / 9)) < 1e-9


def test_chi_command_reads_the_zero_function(capsys):
    code, payload = run_cli(capsys, "chi", "--anf", "0", "--n", "3")
    assert code == 0
    assert (payload["chi"], payload["anf"], payload["nearest_quadratic"]) == (0, "0", "0")
    code, payload = run_cli(capsys, "chi", "--anf", "x1*x2 + x3")
    assert code == 0
    assert math.copysign(1.0, payload["dmin_bound"]) == 1.0


def test_chi_command_refuses_zero_variables(capsys):
    code, out = run_cli(capsys, "chi", "--anf", "1", "--n", "0")
    assert code == 1
    assert (out["error"], out["message"]) == ("ValueError", "need n >= 1, got 0")


def test_lattice_command(capsys, tmp_path):
    code, payload = run_cli(
        capsys,
        "lattice",
        "--kind",
        "union-jack",
        "--rows",
        "4",
        "--cols",
        "4",
        "--boundary",
        "periodic",
        "--phase",
        "ccz-only",
    )
    assert code == 0
    assert payload["n"] == 32
    deco = payload["decomposition"]
    assert deco["s"] == 8
    assert set(deco["h_nominal"]) == {4}
    assert abs(deco["magic_bound_per_qubit"] - (0.5 - 0.5 * math.log2(17 / 16))) < 1e-9
    assert all(len(e) == 3 for e in payload["edges"])
    assert payload["vertex_map"]["0"] == ["g", 0, 0]


def _count_calls(monkeypatch, modules, name):
    """Replace ``name`` in each module by one counting wrapper; returns the
    list of recorded calls."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def test_lattice_command_builds_the_state_once(capsys, monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, [lattice, cli], "build_lattice_state")
    code, payload = run_cli(capsys, "lattice", "--kind", "union-jack", "--rows", "4", "--cols", "4")
    assert code == 0 and payload["n"] == 32
    assert len(calls) == 1
    # the dumped state is the one the dense measures read
    states = _count_calls(monkeypatch, [boolfn, cli], "hypergraph_state")
    argv = ["--kind", "triangular", "--rows", "2", "--cols", "2", "--boundary", "open"]
    dump = str(tmp_path / "tri.json")
    code, payload = run_cli(capsys, "lattice", *argv, "--dump-state", dump, "--dense-measures")
    assert code == 0 and payload["state_file"] == dump
    assert len(states) == 1


def test_lattice_command_chi_bounds_exact_past_float_range(capsys):
    # n = 1152: 2^(n-1) is beyond float, so the chi bounds are exact strings
    code, payload = run_cli(
        capsys, "lattice", "--kind", "union-jack", "--rows", "24", "--cols", "24"
    )
    assert code == 0
    n, deco = payload["n"], payload["decomposition"]
    s = deco["s"]
    assert (n, s) == (1152, 288)
    top, cells = Fraction(2) ** (n - 1), Fraction(2) ** (n - s - 1)
    assert deco["chi_bound"] == str(top - cells * Fraction(17, 16) ** s)
    assert deco["chi_bound_rank"] == str(top - cells * Fraction(9, 8) ** s)
    assert abs(deco["magic_bound_per_qubit"] - (0.5 - 0.5 * math.log2(17 / 16))) < 1e-12


def test_lattice_state_dump(capsys, tmp_path):
    out = tmp_path / "tri.json"
    code, payload = run_cli(
        capsys,
        "lattice",
        "--kind",
        "triangular",
        "--rows",
        "2",
        "--cols",
        "3",
        "--boundary",
        "open",
        "--dump-state",
        str(out),
    )
    assert code == 0
    n, d, psi = load_state_file(str(out))
    assert n == 6 and abs(np.linalg.norm(psi) - 1) < 1e-9


def test_lattice_dense_measures(capsys, tmp_path):
    code, payload = run_cli(
        capsys,
        "--cache-dir",
        str(tmp_path),
        "lattice",
        "--kind",
        "triangular",
        "--rows",
        "2",
        "--cols",
        "2",
        "--boundary",
        "open",
        "--dense-measures",
    )
    assert code == 0
    assert payload["n"] == 4
    m = payload["measures"]
    # two glued triangles are affinely one CCZ block: dmin = log2(16/9);
    # the convex solves auto-skip beyond desk scale (36720-state dictionary)
    assert abs(m["dmin"] - math.log2(16 / 9)) < 1e-9
    assert m["dmax"] is None and m["lr"] is None
    # six qubits' 315M stabilizer states exceed the tables' 2^24: the
    # enumerator's own limit is the error body
    code, out = run_cli(
        capsys,
        "--cache-dir",
        str(tmp_path),
        "lattice",
        "--kind",
        "triangular",
        "--rows",
        "2",
        "--cols",
        "3",
        "--boundary",
        "open",
        "--dense-measures",
    )
    assert code == 1
    assert out["error"] == "ResourceLimitError"
    assert out["message"] == "stabilizer tables for n=6, d=2 exceed 2^24 states"


def test_lattice_refuses_dense_measures_before_the_dump(capsys, tmp_path):
    # the six-qubit tables are refused before the state file is written
    dump = tmp_path / "tri.json"
    argv = ["--kind", "triangular", "--rows", "2", "--cols", "3", "--boundary", "open"]
    code, out = run_cli(capsys, "lattice", *argv, "--dump-state", str(dump), "--dense-measures")
    assert code == 1
    assert out["error"] == "ResourceLimitError"
    assert out["message"] == "stabilizer tables for n=6, d=2 exceed 2^24 states"
    assert not dump.exists()


def test_wigner_command(capsys, tmp_path):
    path = tmp_path / "strange.json"
    amps = np.array([0, 1, -1], dtype=complex) / np.sqrt(2)
    dump_state_file(str(path), 1, 3, amps)
    csv_path = tmp_path / "w.csv"
    code, payload = run_cli(
        capsys,
        "--cache-dir",
        str(tmp_path),
        "wigner",
        "--state",
        str(path),
        "--csv",
        str(csv_path),
        "--check",
    )
    assert code == 0
    assert payload["negativity"] > 0.3
    assert payload["mana_lr_check"]["pass"]
    assert csv_path.read_text().startswith("index,a1_1,a2_1,value")


def test_wigner_command_needs_a_qutrit(capsys, tmp_path):
    path = tmp_path / "bell.json"
    dump_state_file(str(path), 2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    code, out = run_cli(capsys, "wigner", "--state", str(path))
    assert code == 1
    assert out["error"] == "ValueError"
    assert out["message"] == "the wigner command needs a qutrit (d=3) state"


def test_wigner_command_rejects_nan_amplitudes(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"n": 1, "d": 3, "amplitudes": [[float("nan"), 0], [0, 0], [0, 0]]}))
    csv_path = tmp_path / "w.csv"
    code, out = run_cli(capsys, "wigner", "--state", str(path), "--csv", str(csv_path))
    assert code == 1
    assert out["error"] == "ValueError"
    assert out["message"].startswith("state norm nan")
    assert not csv_path.exists()


def test_wigner_command_on_four_qutrits(capsys, monkeypatch, tmp_path):
    path = tmp_path / "strange4.json"
    strange = np.array([0, 1, -1], dtype=complex) / np.sqrt(2)
    dump_state_file(str(path), 4, 3, np.kron(np.kron(strange, strange), np.kron(strange, strange)))
    code, payload = run_cli(capsys, "wigner", "--state", str(path))
    assert code == 0
    # mana is additive on products
    assert abs(payload["mana"] - 4 * math.log2(5 / 3)) < 1e-12
    assert "mana_lr_check" not in payload
    # the robustness LP would need 81^2 x 7,439,040 column entries, past its
    # cap: --check is the error body, refused from the count before W or the
    # dictionary is built or any file is written
    def no_build(n, d):
        raise AssertionError(f"the n={n}, d={d} dictionary was built")

    def no_transform(psi):
        raise AssertionError("the Wigner function was computed")

    monkeypatch.setattr(cli, "enumerate_stabilizer_states", no_build)
    monkeypatch.setattr(cli, "wigner_function", no_transform)
    csv_path = tmp_path / "w.csv"
    code, out = run_cli(capsys, "wigner", "--state", str(path), "--check", "--csv", str(csv_path))
    assert code == 1
    assert out["error"] == "ResourceLimitError"
    assert out["message"] == "robustness columns for n=4, d=3 exceed 2^24 entries"
    assert not csv_path.exists()


def test_mbqc_command(capsys, tmp_path):
    path = tmp_path / "bell.json"
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 2**-0.5
    dump_state_file(str(path), 2, 2, bell)
    code, payload = run_cli(
        capsys,
        "--cache-dir",
        str(tmp_path),
        "mbqc",
        "--state",
        str(path),
        "--layout",
        "XX,ZZ",
    )
    assert code == 0
    assert payload["pass"]
    assert abs(payload["distribution"][0] - 1.0) < 1e-9
    assert payload["k"] == 2
    assert "seed" not in payload  # the command draws no random numbers


def test_mbqc_command_needs_a_qubit_state(capsys, tmp_path):
    path = tmp_path / "qutrit.json"
    dump_state_file(str(path), 1, 3, np.array([1, 0, 0], dtype=complex))
    code, out = run_cli(capsys, "mbqc", "--state", str(path), "--layout", "Z")
    assert code == 1
    assert out["error"] == "ValueError"
    assert out["message"] == "the mbqc command needs a qubit state"


def test_mbqc_command_computes_the_distribution_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "ccz.json"
    dump_state_file(str(path), 3, 2, boolfn.hypergraph_state(boolfn.parse_anf("x1*x2*x3")))
    calls = _count_calls(monkeypatch, [mbqc, cli], "outcome_distribution")
    code, payload = run_cli(capsys, "mbqc", "--state", str(path), "--layout", "XII,IXI,IIX")
    assert code == 0 and payload["pass"]
    assert len(calls) == 1


def test_mbqc_command_refuses_past_the_tables_first(capsys, monkeypatch, tmp_path):
    # the dictionary is built before the outcome distribution, so a state past
    # the tables is refused without computing the distribution
    path = tmp_path / "zero6.json"
    dump_state_file(str(path), 6, 2, np.eye(64, 1, dtype=complex).ravel())

    def refuse(psi, layout):
        raise AssertionError("the outcome distribution was computed")

    monkeypatch.setattr(cli, "outcome_distribution", refuse)
    code, out = run_cli(capsys, "mbqc", "--state", str(path), "--layout", "ZZIIII")
    assert code == 1
    assert out["error"] == "ResourceLimitError"
    assert out["message"] == "stabilizer tables for n=6, d=2 exceed 2^24 states"


def test_haar_command(capsys, tmp_path):
    csv_path = tmp_path / "samples.csv"
    code, payload = run_cli(
        capsys,
        "--cache-dir",
        str(tmp_path),
        "haar",
        "--n",
        "2",
        "--samples",
        "50",
        "--seed",
        "3",
        "--csv",
        str(csv_path),
    )
    assert code == 0
    assert payload["samples"] == 50
    assert csv_path.read_text().startswith("sample,dmin,dmax,lr")
    code, payload = run_cli(capsys, "haar", "--n", "2", "--samples", "50", "--seed", "1")
    assert code == 0
    assert payload["csv_file"] is None
    code2, payload2 = run_cli(
        capsys, "haar", "--n", "2", "--samples", "500", "--seed", "3", "--overlap-only"
    )
    assert code2 == 0
    assert 0 <= payload2["overlap_ks_pvalue"] <= 1


def test_haar_csv_and_overlap_only_are_a_usage_error(capsys, tmp_path):
    csv_path = tmp_path / "samples.csv"
    with pytest.raises(SystemExit) as err:
        main(["haar", "--n", "2", "--samples", "5", "--overlap-only", "--csv", str(csv_path)])
    assert err.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not csv_path.exists()


def test_haar_overlap_rejects_zero_samples(capsys):
    code, out = run_cli(capsys, "haar", "--n", "2", "--samples", "0", "--overlap-only")
    assert code == 1
    assert out["error"] == "ValueError"


def test_haar_overlap_rejects_too_many_qubits(capsys):
    # refused before any of the 2^40-amplitude states is allocated
    code, out = run_cli(capsys, "haar", "--n", "40", "--samples", "10", "--overlap-only")
    assert code == 1
    assert out["error"] == "ResourceLimitError"


def test_haar_rejects_too_many_samples(capsys):
    # refused before the 2^4 x 10^9 amplitudes are allocated
    code, out = run_cli(capsys, "haar", "--n", "4", "--samples", str(10**9))
    assert code == 1
    assert out["error"] == "ResourceLimitError"
    assert "2^24 amplitudes" in out["message"]


def test_non_finite_output_becomes_error_body(capsys, monkeypatch):
    monkeypatch.setattr(cli, "overlap_cdf_pvalue", lambda n, samples, seed: float("nan"))
    code, out = run_cli(capsys, "haar", "--n", "2", "--samples", "5", "--overlap-only")
    assert code == 1
    assert out["error"] == "ValueError"


def test_enum_command(capsys, tmp_path):
    code, payload = run_cli(
        capsys, "--cache-dir", str(tmp_path), "enum", "--n", "2", "--d", "2"
    )
    assert code == 0
    assert payload["count"] == 60 == payload["count_formula"]


def test_dictionary_commands_write_no_files(capsys, tmp_path, monkeypatch, golden_file):
    watched = tmp_path / "watched"
    watched.mkdir()
    monkeypatch.setenv("HOME", str(watched))
    bell = tmp_path / "bell.json"
    dump_state_file(str(bell), 2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    for argv in (
        ["measures", "--state", golden_file],
        ["mbqc", "--state", str(bell), "--layout", "XX,ZZ"],
        ["enum", "--n", "2"],
    ):
        code, _ = run_cli(capsys, "--cache-dir", str(watched), *argv)
        assert code == 0
    assert list(watched.rglob("*")) == []


def test_welch_command(capsys):
    code, payload = run_cli(capsys, "welch", "--n", "3")
    assert code == 0
    assert payload["weight"] == 7 and payload["degree"] == 3 and payload["chi"] == 1
    # past NONQUADRATICITY_LIMIT the command reports f without chi
    code, payload = run_cli(capsys, "welch", "--n", "7")
    assert code == 0
    assert payload["degree"] == 3 and "chi" not in payload and "dmin_bound" not in payload


def test_error_exit_code_and_body(capsys):
    code = main(["measures", "--state", "/definitely/not/here.json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"] == "FileNotFoundError"


def test_state_file_without_amplitudes(capsys, tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"n": 1, "d": 2}))
    code = main(["measures", "--state", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"] == "ValueError"


def test_programming_errors_propagate(monkeypatch):
    def broken(args):
        raise TypeError("a bug, not a computational failure")

    monkeypatch.setattr(cli, "cmd_welch", broken)
    with pytest.raises(TypeError):
        main(["welch", "--n", "3"])


def test_import_leaves_numpy_random_unloaded():
    # every CLI child imports magiclab.cli, and chi, lattice and welch draw
    # nothing: loading numpy.random would cost them 11-16 ms
    paths = [str(Path(magiclab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = "import sys, magiclab.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_usage_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
