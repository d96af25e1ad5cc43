"""Command-line surface: state files in, JSON reports out.

State file schema: {"n": int, "d": 2|3, "amplitudes": [[re, im], ...]} with
amplitudes in basis order (site 1 = least significant digit) and unit norm.
All structured output is JSON on stdout (CSV for bulk samples); exit code 2
marks usage errors, exit 1 a computational failure with a JSON error body.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .boolfn import (
    anf_string,
    dmin_bound_from_chi,
    hypergraph_state,
    nonquadraticity,
    parse_anf,
    truth_table_hex,
    welch_function,
)
from .haar import ExperimentConfig, dmin_distribution, experiment_csv, overlap_cdf_pvalue
from .lattice import build_lattice_state, lattice_bound, make_lattice
from .measures import dmin as dmin_measure
from .measures import magic_report
from .mbqc import MeasurementLayout, outcome_distribution, pbound_check
from .pauli import pauli_from_string
from .solvers import SolverError
from .stabdict import count_stabilizer_states, enumerate_stabilizer_states
from .wigner import mana, mana_lr_check, sum_negativity, wigner_csv, wigner_function

TOOL = "magiclab"


def load_state_file(path: str) -> tuple[int, int, np.ndarray]:
    with open(path) as fh:
        payload = json.load(fh)
    try:
        n, d = int(payload["n"]), int(payload.get("d", 2))
        amps = np.array([complex(re, im) for re, im in payload["amplitudes"]])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state file {path}: {exc!r}") from exc
    if amps.shape[0] != d**n:
        raise ValueError(f"expected {d**n} amplitudes, found {amps.shape[0]}")
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state norm {norm} is not 1 within 1e-9")
    return n, d, amps


def dump_state_file(path: str, n: int, d: int, amps: np.ndarray) -> None:
    payload = {
        "n": n,
        "d": d,
        "amplitudes": [[float(a.real), float(a.imag)] for a in amps],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _emit(payload: dict) -> None:
    """Write the payload as one strict JSON document.  It is serialized before
    anything is written, so a non-finite value raises ``ValueError`` (and
    becomes the error body) instead of printing NaN or Infinity."""
    payload.setdefault("tool_version", __version__)
    text = json.dumps(payload, indent=2, default=float, allow_nan=False)
    sys.stdout.write(text + "\n")


def cmd_measures(args) -> int:
    n, d, psi = load_state_file(args.state)
    dic = enumerate_stabilizer_states(n, d)
    report = magic_report(psi, dic)
    _emit(json.loads(report.to_json()))
    return 0


def cmd_chi(args) -> int:
    f = parse_anf(args.anf, n=args.n)
    chi, argmin = nonquadraticity(f)
    payload = {
        "n": f.n,
        "anf": anf_string(f),
        "degree": f.degree,
        "weight": f.weight(),
        "chi": chi,
        "nearest_quadratic": anf_string(argmin),
        "truth_table_hex": truth_table_hex(f),
    }
    if chi < 2 ** (f.n - 1):
        payload["dmin_bound"] = dmin_bound_from_chi(f, chi)
    _emit(payload)
    return 0


def cmd_lattice(args) -> int:
    L = make_lattice(args.kind, args.rows, args.cols, args.boundary)
    f = build_lattice_state(L, args.phase)
    deco, bound = lattice_bound(L, args.phase)
    payload = {
        "kind": L.kind,
        "rows": L.rows,
        "cols": L.cols,
        "boundary": L.boundary,
        "phase": args.phase,
        "n": L.n,
        "edges": sorted(sorted(e) for e in f.monomials),
        "vertex_map": {str(i): list(lab) for i, lab in enumerate(L.labels)},
        "decomposition": {
            "s": bound.s,
            "centers": list(deco.centers),
            "h_nominal": list(bound.h_nominal),
            "h_rank": list(bound.h_rank),
            "chi_bound": str(bound.chi_bound),
            "magic_bound": bound.magic_bound,
            "magic_bound_per_qubit": bound.magic_bound_per_qubit,
            "chi_bound_rank": str(bound.chi_bound_rank),
            "magic_bound_rank": bound.magic_bound_rank,
        },
    }
    if args.dump_state:
        if L.n > 12:
            raise ValueError("state dump is limited to n <= 12")
        psi = hypergraph_state(f)
        dump_state_file(args.dump_state, L.n, 2, psi)
        payload["state_file"] = args.dump_state
    if args.dense_measures:
        if L.n > 4:
            raise ValueError("dense measures need n <= 4")
        dic = enumerate_stabilizer_states(L.n, 2)
        report = magic_report(hypergraph_state(f), dic)
        payload["measures"] = json.loads(report.to_json())
    _emit(payload)
    return 0


def cmd_wigner(args) -> int:
    n, d, psi = load_state_file(args.state)
    if d != 3:
        raise ValueError("the wigner command needs a qutrit (d=3) state")
    W = wigner_function(psi)
    payload = {
        "n": n,
        "d": 3,
        "sum": float(np.sum(W.values)),
        "negativity": sum_negativity(W),
        "mana": mana(W),
    }
    if args.check and n <= 2:
        dic = enumerate_stabilizer_states(n, 3)
        ok, m, lr = mana_lr_check(psi, dic)
        payload["mana_lr_check"] = {"pass": bool(ok), "mana": m, "lr": lr}
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(wigner_csv(W))
        payload["csv_file"] = args.csv
    _emit(payload)
    return 0


def cmd_mbqc(args) -> int:
    n, d, psi = load_state_file(args.state)
    if d != 2:
        raise ValueError("the mbqc command needs a qubit state")
    obs = tuple(pauli_from_string(s) for s in args.layout.split(","))
    layout = MeasurementLayout(n, obs)
    dist = outcome_distribution(psi, layout)
    dic = enumerate_stabilizer_states(n, 2)
    dval, _ = dmin_measure(psi, dic)
    ok, max_p, bound = pbound_check(psi, layout, dval)
    _emit(
        {
            "layout": args.layout.split(","),
            "n": n,
            "k": layout.k,
            "distribution": [float(p) for p in dist.probabilities],
            "dmin": dval,
            "max_p": max_p,
            "bound": bound,
            "pass": bool(ok),
        }
    )
    return 0


def cmd_haar(args) -> int:
    if args.overlap_only:
        pv = overlap_cdf_pvalue(args.n, args.samples, args.seed)
        _emit(
            {
                "n": args.n,
                "samples": args.samples,
                "seed": args.seed,
                "overlap_ks_pvalue": pv,
            }
        )
        return 0
    dic = enumerate_stabilizer_states(args.n, 2)
    exp = dmin_distribution(ExperimentConfig(args.n, args.samples, args.seed), dic)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(experiment_csv(exp.values))
    mask = exp.bound_curve < 1.0
    _emit(
        {
            **exp.summary,
            "csv_file": args.csv,
            "cdf_below_union_bound": bool(
                np.all(exp.empirical_cdf[mask] <= exp.bound_curve[mask] + 1e-12)
            ),
        }
    )
    return 0


def cmd_enum(args) -> int:
    dic = enumerate_stabilizer_states(args.n, args.d)
    _emit(
        {
            "n": args.n,
            "d": args.d,
            "count": dic.size,
            "count_formula": count_stabilizer_states(args.n, args.d),
        }
    )
    return 0


def cmd_welch(args) -> int:
    f = welch_function(args.n)
    payload = {
        "n": args.n,
        "anf": anf_string(f),
        "degree": f.degree,
        "weight": f.weight(),
        "truth_table_hex": truth_table_hex(f),
    }
    if args.n <= 6:
        chi, _ = nonquadraticity(f)
        payload["chi"] = chi
        if chi < 2 ** (args.n - 1):
            payload["dmin_bound"] = dmin_bound_from_chi(f, chi)
        payload["asymptotic_chi_reference"] = 2 ** (args.n - 1) - 2 ** (
            (3 * args.n - 1) / 4
        )
    _emit(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="stabilizer toolkit: magic monotones, Boolean-function "
        "bounds, Wigner negativity, and Pauli-MBQC checks",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    # ignored; kept so that existing command lines still parse
    parser.add_argument("--cache-dir", default=None, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="magic monotones of a state file")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("chi", help="nonquadraticity of an ANF expression")
    p.add_argument("--anf", required=True)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("lattice", help="lattice state bounds")
    p.add_argument("--kind", choices=["triangular", "union-jack"], required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--boundary", choices=["periodic", "open"], default="periodic")
    p.add_argument("--phase", choices=["ccz-only", "levin-gu"], default="ccz-only")
    p.add_argument("--dense-measures", action="store_true")
    p.add_argument("--dump-state", default=None, metavar="FILE")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("wigner", help="qutrit Wigner negativity and mana")
    p.add_argument("--state", required=True)
    p.add_argument("--csv", default=None, metavar="FILE")
    p.add_argument("--check", action="store_true", help="also run the mana/LR check")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("mbqc", help="joint Pauli outcome distribution + cap check")
    p.add_argument("--state", required=True)
    p.add_argument("--layout", required=True, help='comma-separated, e.g. "XX,ZZ"')
    p.set_defaults(func=cmd_mbqc)

    p = sub.add_parser("haar", help="Haar-random magic statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, metavar="FILE")
    p.add_argument(
        "--overlap-only",
        action="store_true",
        help="only test the fixed-reference overlap law (no dictionary needed)",
    )
    p.set_defaults(func=cmd_haar)

    p = sub.add_parser("enum", help="count the stabilizer states by enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2, choices=[2, 3])
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("welch", help="modified Welch power function")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_welch)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, SolverError) as exc:  # JSON error body, exit 1
        json.dump(
            {"error": type(exc).__name__, "message": str(exc), "tool_version": __version__},
            sys.stdout,
        )
        sys.stdout.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
