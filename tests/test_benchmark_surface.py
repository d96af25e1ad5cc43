"""The package names the benchmark reaches stay in place.

``perfbench/workloads.py`` calls the package through attribute chains on the
imported module (``self.ml.measures.magic_report``) and through local
aliases of it (``ml = self.ml``, ``bf = self.ml.boolfn``).  A deletion that
would make benchmark operations fail then fails these tests first.  The
tracer in ``perfbench/tracing.py`` wraps the functions in its ``TARGETS``
and reports a missing one only as an empty per-layer row, so the set of
missing targets is pinned here too, and so are the attributes its extractors
read from the results and arguments of the traced calls.
"""

import ast
import importlib.util
from pathlib import Path

import magiclab
from magiclab.cli import build_parser
from magiclab.lattice import triangular_lattice
from magiclab.stabdict import StabilizerDictionary

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


def _package_path(node, aliases):
    """The names below the package that an attribute chain such as
    ``self.ml.haar.sample_dmin`` or ``bf.nonquadraticity`` reaches, or None
    when the chain does not start at the package."""
    names = []
    while isinstance(node, ast.Attribute):
        if node.attr == "ml":
            return tuple(reversed(names))
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in aliases:
        return aliases[node.id] + tuple(reversed(names))
    return None


def _reached_names():
    """Every package path the workloads reach, each with its line number.
    Aliases are resolved within each top-level function or method."""
    tree = ast.parse(WORKLOADS.read_text())
    scopes = [
        node
        for top in tree.body
        for node in (top.body if isinstance(top, ast.ClassDef) else [top])
        if isinstance(node, ast.FunctionDef)
    ]
    reached = []
    for scope in scopes:
        aliases = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                path = _package_path(node.value, aliases)
                if isinstance(target, ast.Name) and path is not None:
                    aliases[target.id] = path
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute):
                path = _package_path(node, aliases)
                if path:
                    reached.append((path, node.lineno))
    return reached


def test_workloads_reach_only_existing_names():
    reached = _reached_names()
    # the parse must see the workloads' calls, or the check below is empty
    assert {("measures", "magic_report"), ("boolfn", "welch_function")} <= {
        path for path, _ in reached
    }
    missing = []
    for path, line in reached:
        obj = magiclab
        for name in path:
            if not hasattr(obj, name):
                missing.append(f"line {line}: magiclab.{'.'.join(path)}")
                break
            obj = getattr(obj, name)
    assert not missing, missing


def test_dictionary_tableau_and_cli_cache_dir_remain():
    # the enumerate workload rebuilds states from dic.tableau(i), and the cli
    # workload passes --cache-dir to every child
    assert callable(StabilizerDictionary.tableau)
    args = build_parser().parse_args(["--cache-dir", "cache", "enum", "--n", "1", "--d", "2"])
    assert args.cache_dir == "cache"


def test_traced_targets_missing_from_the_package_are_the_known_ones():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]
    ]
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert ("wigner", "wigner_function") in pairs  # the parse sees the list
    missing = {func for module, func in pairs if not hasattr(getattr(magiclab, module), func)}
    # these went with earlier deletions; a deletion that adds a name here
    # would silently empty a per-layer benchmark row
    assert missing == {
        "solve_basis_pursuit",
        "get_dictionary",
        "load_dictionary",
        "gfp_rref",
        "gfp_solve",
        "gfp_nullspace",
        "gfp_rank",
        "field_element",
        "field_pow",
        "field_trace",
    }


def test_traced_extractors_read_existing_attributes():
    # an extractor that reads a renamed attribute raises only in a traced
    # benchmark run; here each one runs on a real call through the tracer
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        magiclab.solvers.solve_lp([[1.0]], [1.0])
        magiclab.stabdict.enumerate_stabilizer_states(1)
        magiclab.lattice.lattice_bound(triangular_lattice(3, 3))
    finally:
        tracer.uninstall()
    attrs = {rec["name"]: rec["attrs"] for rec in tracer.records()}
    assert attrs["solvers.solve_lp"] == {"iterations": 0}  # the crash start is optimal
    assert attrs["stabdict.enumerate_stabilizer_states"] == {"states": 6}
    assert attrs["lattice.lattice_bound"] == {"qubits": 9}
