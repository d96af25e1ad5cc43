"""Command-line surface: state files in, JSON reports out.

State file schema: {"n": int, "d": 2|3, "amplitudes": [[re, im], ...]} with
amplitudes in basis order (site 1 = least significant digit) and unit norm.
Commands return their payloads and ``main`` alone writes them: one strict
JSON document per run on stdout, ``tool_version`` last, error bodies too.
Exit code 2 marks usage errors and exit 1 a computational failure.
"""

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .boolfn import (
    NONQUADRATICITY_LIMIT,
    anf_string,
    dmin_bound_from_chi,
    hypergraph_state,
    nonquadraticity,
    parse_anf,
    truth_table_hex,
    welch_function,
)
from .haar import ExperimentConfig, dmin_distribution, experiment_csv, overlap_cdf_pvalue
from .lattice import lattice_bound, make_lattice
from .measures import _check_robustness_size, _checked_state, magic_report
from .measures import dmin as dmin_measure
from .mbqc import MeasurementLayout, outcome_distribution
from .pauli import pauli_from_string
from .solvers import SolverError
from .stabdict import _check_size, count_stabilizer_states, enumerate_stabilizer_states
from .wigner import mana, mana_lr_check, sum_negativity, wigner_csv, wigner_function

TOOL = "magiclab"


def load_state_file(path: str) -> tuple[int, int, np.ndarray]:
    with open(path) as fh:
        payload = json.load(fh)
    try:
        n, d = payload["n"], payload.get("d", 2)
        amps = np.array([complex(re, im) for re, im in payload["amplitudes"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state file {path}: {exc!r}") from exc
    if type(n) is not int or type(d) is not int:
        raise ValueError(f"n and d must be JSON integers, found n={n!r}, d={d!r}")
    if d not in (2, 3):
        raise ValueError(f"state file {path}: d must be 2 or 3, found {d}")
    if n < 1:
        raise ValueError(f"state file {path}: n must be at least 1, found {n}")
    _check_size(n, lambda: d**n, f"state file {path}: n={n} needs more than 2^24 amplitudes")
    if amps.shape[0] != d**n:
        raise ValueError(f"expected {d**n} amplitudes, found {amps.shape[0]}")
    return n, d, _checked_state(amps, d**n)


def dump_state_file(path: str, n: int, d: int, amps: np.ndarray) -> None:
    payload = {
        "n": n,
        "d": d,
        "amplitudes": [[float(a.real), float(a.imag)] for a in amps],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def cmd_measures(args) -> dict:
    n, d, psi = load_state_file(args.state)
    return asdict(magic_report(psi, enumerate_stabilizer_states(n, d)))


def _function_payload(f, chi: int | None = None) -> dict:
    """f's fields for ``chi`` and ``welch``, with chi and its dmin bound if given
    (a chi from ``nonquadraticity`` is below 2^(n-1), so the bound is defined)."""
    payload = {
        "n": f.n,
        "anf": anf_string(f),
        "degree": f.degree,
        "weight": f.weight(),
        "truth_table_hex": truth_table_hex(f),
    }
    if chi is not None:
        payload["chi"] = chi
        payload["dmin_bound"] = dmin_bound_from_chi(f, chi)
    return payload


def cmd_chi(args) -> dict:
    f = parse_anf(args.anf, n=args.n)
    chi, argmin = nonquadraticity(f)
    return {**_function_payload(f, chi), "nearest_quadratic": anf_string(argmin)}


def cmd_lattice(args) -> dict:
    L = make_lattice(args.kind, args.rows, args.cols, args.boundary)
    deco, bound = lattice_bound(L, args.phase)
    f = deco.f
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
    if args.dense_measures:  # built first, so that no state file is written past the tables
        dic = enumerate_stabilizer_states(L.n, 2)
    if args.dump_state or args.dense_measures:
        psi = hypergraph_state(f)
    if args.dump_state:
        dump_state_file(args.dump_state, L.n, 2, psi)
        payload["state_file"] = args.dump_state
    if args.dense_measures:
        payload["measures"] = asdict(magic_report(psi, dic))
    return payload


def cmd_wigner(args) -> dict:
    n, d, psi = load_state_file(args.state)
    if d != 3:
        raise ValueError("the wigner command needs a qutrit (d=3) state")
    if args.check:  # from the count, before W or any dictionary is built
        _check_robustness_size(n, 3)
    W = wigner_function(psi)
    payload = {
        "n": n,
        "d": 3,
        "sum": float(np.sum(W.values)),
        "negativity": sum_negativity(W),
        "mana": mana(W),
    }
    if args.check:
        ok, m, lr = mana_lr_check(psi, enumerate_stabilizer_states(n, 3))
        payload["mana_lr_check"] = {"pass": bool(ok), "mana": m, "lr": lr}
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(wigner_csv(W))
        payload["csv_file"] = args.csv
    return payload


def cmd_mbqc(args) -> dict:
    n, d, psi = load_state_file(args.state)
    if d != 2:
        raise ValueError("the mbqc command needs a qubit state")
    names = args.layout.split(",")
    layout = MeasurementLayout(n, tuple(pauli_from_string(s) for s in names))
    dic = enumerate_stabilizer_states(n, 2)  # refused past the tables before the distribution
    dist = outcome_distribution(psi, layout)
    dval, _ = dmin_measure(psi, dic)
    ok, max_p, bound = dist.cap_check(dval)
    return {
        "layout": names,
        "n": n,
        "k": layout.k,
        "distribution": [float(p) for p in dist.probabilities],
        "dmin": dval,
        "max_p": max_p,
        "bound": bound,
        "pass": bool(ok),
    }


def cmd_haar(args) -> dict:
    if args.overlap_only:
        pv = overlap_cdf_pvalue(args.n, args.samples, args.seed)
        return {"n": args.n, "samples": args.samples, "seed": args.seed, "overlap_ks_pvalue": pv}
    cfg = ExperimentConfig(args.n, args.samples, args.seed)
    exp = dmin_distribution(cfg, enumerate_stabilizer_states(args.n, 2))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(experiment_csv(exp.values))
    mask = exp.bound_curve < 1.0
    return {
        **exp.summary,
        "csv_file": args.csv,
        "cdf_below_union_bound": bool(
            np.all(exp.empirical_cdf[mask] <= exp.bound_curve[mask] + 1e-12)
        ),
    }


def cmd_enum(args) -> dict:
    return {
        "n": args.n,
        "d": args.d,
        "count": enumerate_stabilizer_states(args.n, args.d).size,
        "count_formula": count_stabilizer_states(args.n, args.d),
    }


def cmd_welch(args) -> dict:
    f = welch_function(args.n)
    if args.n > NONQUADRATICITY_LIMIT:
        return _function_payload(f)
    chi, _ = nonquadraticity(f)
    return {
        **_function_payload(f, chi),
        "asymptotic_chi_reference": 2 ** (args.n - 1) - 2 ** ((3 * args.n - 1) / 4),
    }


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
    output = p.add_mutually_exclusive_group()
    output.add_argument("--csv", default=None, metavar="FILE")
    output.add_argument(
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
    """Run one command and write its payload, serialized before anything is
    written: a non-finite value raises ``ValueError`` and becomes the error
    body instead of printing NaN or Infinity."""
    args = build_parser().parse_args(argv)
    try:
        payload = {**args.func(args), "tool_version": __version__}
        text, code = json.dumps(payload, indent=2, default=float, allow_nan=False), 0
    except (OSError, ValueError, SolverError) as exc:  # JSON error body, exit 1
        error = {"error": type(exc).__name__, "message": str(exc), "tool_version": __version__}
        text, code = json.dumps(error), 1
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
