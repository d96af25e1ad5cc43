"""In-memory span recorder that wraps magiclab functions from outside the package.

A span is (name, start_ns, end_ns, parent, op, attrs).  Spans are opened by
wrappers that the benchmark installs by rebinding, in every loaded magiclab
module, each global name that refers to a target function; calls made through
those names (the way the package's modules call each other) then pass through
the wrapper.  Nothing in the package changes.  Removing the wrappers restores
the original bindings, so an untraced phase runs the unmodified code.

All timestamps come from the system-wide monotonic clock, so spans recorded by
a child process (the CLI shim) line up with the parent's.
"""

import gzip
import inspect
import json
import sys
import time

now_ns = time.monotonic_ns


def _len_result(result):
    return {"states": result.size}


def _iterations(result):
    return {"iterations": int(result.iterations)}


def _lattice_qubits(result, args):
    return {"qubits": int(args[0].n)}


def _cache_hit(result):
    return {"hit": result is not None}


# (module, function, attrs extracted from the result [, and the arguments]).
# Span names are "<module>.<function>" without the package prefix.
TARGETS = [
    ("solvers", "solve_basis_pursuit", _iterations),
    ("solvers", "solve_lp", _iterations),
    ("measures", "magic_report", None),
    ("measures", "dmin", None),
    ("measures", "extent", None),
    ("measures", "free_robustness", None),
    ("stabdict", "enumerate_stabilizer_states", _len_result),
    ("stabdict", "iter_stabilizer_states", None),
    ("stabdict", "get_dictionary", None),
    ("stabdict", "load_dictionary", _cache_hit),
    ("binlin", "gfp_rref", None),
    ("binlin", "gfp_solve", None),
    ("binlin", "gfp_nullspace", None),
    ("binlin", "gfp_rank", None),
    ("binlin", "field_element", None),
    ("binlin", "field_pow", None),
    ("binlin", "field_trace", None),
    ("pauli", "tableau_to_state", None),
    ("boolfn", "nonquadraticity", None),
    ("boolfn", "welch_function", None),
    ("boolfn", "hypergraph_state", None),
    ("lattice", "lattice_bound", _lattice_qubits),
    ("haar", "sample_dmin", None),
    ("mbqc", "pbound_check", None),
    ("wigner", "wigner_function", None),
    ("wigner", "mana_lr_check", None),
]

CLI_SUBCOMMANDS = ("measures", "chi", "lattice", "wigner", "mbqc", "haar", "welch")
CLI_TARGETS = [("cli", f"cmd_{sub}", None) for sub in CLI_SUBCOMMANDS]


class Tracer:
    """Records spans for the wrapped functions while ``enabled`` is true."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent, op, attrs]
        self.stack: list[int] = []
        self.op = None
        self.enabled = True
        self.absent: dict[str, str] = {}
        self._rebound: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add_span(self, name, start, end, attrs=None, parent=None) -> int:
        """Record a span measured elsewhere (a child process, an import)."""
        if parent is None:
            parent = self.stack[-1] if self.stack else -1
        self.spans.append([self._name_id(name), start, end, parent, self.op, attrs])
        return len(self.spans) - 1

    def _open(self, name_id):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name_id, now_ns(), 0, parent, self.op, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx, attrs=None):
        self.spans[idx][2] = now_ns()
        self.spans[idx][5] = attrs
        self.stack.pop()

    def _wrap(self, name, fn, extract):
        name_id = self._name_id(name)
        wants_args = extract is not None and len(inspect.signature(extract).parameters) > 1
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one span per step, so the consumer's work between steps is excluded
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    if not tracer.enabled:
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        yield item
                        continue
                    idx = tracer._open(name_id)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._close(idx, {"items": 0})
                        return
                    except BaseException as exc:
                        tracer._close(idx, {"error": type(exc).__name__})
                        raise
                    tracer._close(idx, {"items": 1})
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, {"error": type(exc).__name__})
                raise
            attrs = None
            if extract is not None:
                attrs = extract(result, args) if wants_args else extract(result)
            tracer._close(idx, attrs)
            return result

        return wrapper

    def install(self, targets):
        """Rebind every magiclab global that names a target to its wrapper.

        A target missing from the package is recorded in ``absent``; its
        metrics are then reported as absent instead of failing the run.
        """
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "magiclab" or key.startswith("magiclab."))
        ]
        for module_name, func_name, extract in targets:
            module = sys.modules.get(f"magiclab.{module_name}")
            fn = getattr(module, func_name, None) if module else None
            name = f"{module_name}.{func_name}"
            if not callable(fn):
                self.absent[name] = f"magiclab.{name} does not exist in this commit"
                continue
            wrapper = self._wrap(name, fn, extract)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._rebound.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for module, attr, fn in reversed(self._rebound):
            setattr(module, attr, fn)
        self._rebound.clear()

    def records(self):
        """Spans as dicts, in recording order."""
        for name_id, start, end, parent, op, attrs in self.spans:
            yield {
                "name": self.names[name_id],
                "start": start,
                "end": end,
                "parent": parent,
                "op": op,
                "attrs": attrs,
            }

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
