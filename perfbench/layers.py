"""Per-layer metrics: how each is derived from spans, and what it should move.

Layers are the package modules.  A metric ending in ``_s`` is, unless its
row says otherwise, the self time of the named spans (span duration minus its
direct child spans) summed over the traced phase and divided by the number of
operations completed in that phase, so it reads as "seconds this layer adds
to an average operation".  Counts are per operation or per call, as stated.
Spans recorded during set-up are written to the trace file but not counted.

``moves`` and ``on`` record which end-to-end metric a change in the layer
metric should move, and on which workload; a later change names its claim by
these.  ``BENCHMARK.json`` lists the same names, units and directions.
"""

from collections import defaultdict

from tracing import CLI_SUBCOMMANDS

GFP = ("binlin.gfp_rref", "binlin.gfp_solve", "binlin.gfp_nullspace", "binlin.gfp_rank")
FIELD = ("binlin.field_element", "binlin.field_pow", "binlin.field_trace")
BP, LP = "solvers.solve_basis_pursuit", "solvers.solve_lp"
DENSE, STREAM = "stabdict.enumerate_stabilizer_states", "stabdict.iter_stabilizer_states"

# name, unit, better, how, moves, on
METRICS = [
    # on certify the generic 3-qubit states hold most basis-pursuit time but sit above the
    # tail percentile; the tail falls on hypergraph states, whose extent solve
    # is about a quarter of their time and their robustness LP most of the rest
    ("solvers.bp_s", "s", "lower", "self s/op of solve_basis_pursuit",
     "ops_per_s; latency_tail_s only through the hypergraph extent solves", "certify"),
    ("solvers.bp_iterations", "count", "lower", "ADMM iterations per solve_basis_pursuit call",
     "ops_per_s; latency_tail_s only through the hypergraph extent solves", "certify"),
    ("solvers.bp_converged_ratio", "1", "higher", "solve_basis_pursuit calls that returned / calls",
     "ops_per_s", "certify"),
    ("solvers.lp_s", "s", "lower", "self s/op of solve_lp",
     "latency_p50_s (mixed states), latency_tail_s (hypergraph states)",
     "certify; cli measures"),
    ("solvers.lp_iterations", "count", "lower", "simplex pivots per solve_lp call",
     "latency_p50_s, latency_tail_s", "certify; cli measures"),
    ("measures.robustness_self_s", "s", "lower",
     "self s/op of free_robustness (Pauli rows and certificate checks, outside solve_lp)",
     "latency_p50_s", "certify"),
    ("measures.extent_self_s", "s", "lower", "self s/op of extent (outside solve_basis_pursuit)",
     "latency_p50_s", "certify"),
    ("measures.report_s", "s", "lower", "inclusive s/op of magic_report",
     "latency_p50_s", "certify"),
    ("measures.dmin_s", "s", "lower", "self s/op of measures.dmin", "ops_per_s", "enumerate"),
    ("haar.sample_dmin_s", "s", "lower", "self s/op of sample_dmin", "ops_per_s", "enumerate"),
    ("mbqc.pbound_check_s", "s", "lower", "self s/op of pbound_check", "ops_per_s", "enumerate"),
    ("stabdict.enumerate_s", "s", "lower",
     "self s/op of enumerate_stabilizer_states (outside binlin.gfp_*)",
     "ops_per_s", "enumerate; setup_s on certify"),
    ("stabdict.states_per_s", "states/s", "higher",
     "dense states built / inclusive s of enumerate_stabilizer_states",
     "ops_per_s", "enumerate; setup_s on certify"),
    ("stabdict.stream_states_per_s", "states/s", "higher",
     "streamed states / inclusive s inside iter_stabilizer_states steps",
     "ops_per_s", "enumerate"),
    ("stabdict.states", "count", "higher", "states built or streamed per op",
     "ops_per_s", "enumerate"),
    ("binlin.gfp_s", "s", "lower", "self s/op of binlin.gfp_* (called from stabdict, pauli, mbqc)",
     "ops_per_s", "enumerate"),
    ("binlin.gfp_calls", "count", "lower", "binlin.gfp_* calls per op", "ops_per_s", "enumerate"),
    ("pauli.tableau_to_state_s", "s", "lower", "self s/op of tableau_to_state",
     "ops_per_s", "enumerate"),
    ("boolfn.nonquadraticity_s", "s", "lower", "self s/op of nonquadraticity", "ops_per_s", "bounds"),
    ("boolfn.welch_s", "s", "lower", "self s/op of welch_function (outside binlin.field_*)",
     "ops_per_s", "bounds"),
    ("boolfn.hypergraph_state_s", "s", "lower", "self s/op of hypergraph_state",
     "ops_per_s", "bounds"),
    ("binlin.field_s", "s", "lower", "self s/op of field_element, field_pow, field_trace",
     "ops_per_s", "bounds"),
    ("binlin.field_calls", "count", "lower", "binlin.field_* calls per op", "ops_per_s", "bounds"),
    ("lattice.bound_s", "s", "lower", "self s/op of lattice_bound", "latency_p50_s", "bounds"),
    ("lattice.qubits_per_s", "qubits/s", "higher", "lattice qubits / inclusive s of lattice_bound",
     "latency_p50_s", "bounds"),
    ("wigner.function_s", "s", "lower", "self s/op of wigner_function", "latency_p50_s", "certify"),
    ("wigner.mana_lr_check_s", "s", "lower",
     "self s/op of mana_lr_check (outside wigner_function and free_robustness)",
     "latency_p50_s", "certify"),
    ("cli.import_s", "s", "lower", "`import magiclab.cli` in each child, s per child",
     "latency_p50_s on cli; setup_s everywhere", "cli"),
] + [
    (f"cli.{sub}_s", "s", "lower", f"inclusive s per call of cli.cmd_{sub} in the child",
     "latency_p50_s", "cli")
    for sub in CLI_SUBCOMMANDS
] + [
    ("cli.cache_hit_ratio", "1", "higher", "load_dictionary hits / get_dictionary calls",
     "latency_tail_s, peak_rss_mb", "cli"),
    ("cli.cache_bytes", "B", "lower", "bytes in the cache directory at the end of a cycle",
     "latency_tail_s, peak_rss_mb", "cli"),
    ("cli.measures_warm_s", "s", "lower", "inclusive s of cmd_measures on a warm cache",
     "latency_tail_s, peak_rss_mb", "cli"),
    ("cli.mbqc_warm_s", "s", "lower", "inclusive s of cmd_mbqc (n = 4) on a warm cache",
     "latency_tail_s, peak_rss_mb", "cli"),
    ("cli.mbqc_cold_s", "s", "lower", "inclusive s of cmd_mbqc (n = 4) on a cold cache",
     "latency_tail_s, peak_rss_mb", "cli"),
    ("trace.overhead_ops_per_s", "ops/s", "lower",
     "ops_per_s of the untraced phase minus that of the traced phase (both in the note)",
     "tracing overhead", "all"),
]

def self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def derive(spans, ops, op_labels, absent, extra):
    """Per-layer metrics of one traced phase.

    ``spans`` are the phase's span records (indices into the full list are
    kept in ``parent``), ``ops`` the number of operations completed in the
    phase, ``op_labels`` maps op id to the workload's operation label,
    ``absent`` the targets that could not be wrapped, and ``extra`` metrics
    the client measured itself (cache bytes, tracing overhead).

    Returns (values, notes): every metric has a value.  A metric is noted as
    absent when a span its formula looked up could not be wrapped, or when
    none of those spans was recorded (the workload does not exercise it).
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        if s["op"] is not None and s["op"] != "setup":
            by_name[s["name"]].append(i)
    per_op = 1.0 / max(ops, 1)
    read = {}  # span names the metric being computed looked up, in order

    def of(name):
        read[name] = None
        return by_name[name]

    def attrs(i):
        return spans[i]["attrs"] or {}

    def ratio(num, den):
        return num / den if den else 0.0

    def self_s(*names):
        return sum(selfs[i] for n in names for i in of(n)) * 1e-9 * per_op

    def incl(name, label=None):
        idx = [i for i in of(name) if label is None or op_labels.get(spans[i]["op"]) == label]
        return sum(spans[i]["end"] - spans[i]["start"] for i in idx) * 1e-9, len(idx)

    def mean_incl(name, label=None):
        return ratio(*incl(name, label))

    def attr_sum(name, key):
        return sum(attrs(i).get(key, 0) for i in of(name))

    def calls(*names):
        return sum(len(of(n)) for n in names)

    def count_where(name, pred):
        return sum(1 for i in of(name) if pred(attrs(i)))

    formulas = {
        "solvers.bp_s": lambda: self_s(BP),
        "solvers.bp_iterations": lambda: ratio(attr_sum(BP, "iterations"), calls(BP)),
        "solvers.bp_converged_ratio": lambda: ratio(count_where(BP, lambda a: "error" not in a),
                                                    calls(BP)),
        "solvers.lp_s": lambda: self_s(LP),
        "solvers.lp_iterations": lambda: ratio(attr_sum(LP, "iterations"), calls(LP)),
        "measures.robustness_self_s": lambda: self_s("measures.free_robustness"),
        "measures.extent_self_s": lambda: self_s("measures.extent"),
        "measures.report_s": lambda: incl("measures.magic_report")[0] * per_op,
        "measures.dmin_s": lambda: self_s("measures.dmin"),
        "haar.sample_dmin_s": lambda: self_s("haar.sample_dmin"),
        "mbqc.pbound_check_s": lambda: self_s("mbqc.pbound_check"),
        "stabdict.enumerate_s": lambda: self_s(DENSE),
        "stabdict.states_per_s": lambda: ratio(attr_sum(DENSE, "states"), incl(DENSE)[0]),
        "stabdict.stream_states_per_s": lambda: ratio(attr_sum(STREAM, "items"), incl(STREAM)[0]),
        "stabdict.states": lambda: (attr_sum(DENSE, "states") + attr_sum(STREAM, "items")) * per_op,
        "binlin.gfp_s": lambda: self_s(*GFP),
        "binlin.gfp_calls": lambda: calls(*GFP) * per_op,
        "pauli.tableau_to_state_s": lambda: self_s("pauli.tableau_to_state"),
        "boolfn.nonquadraticity_s": lambda: self_s("boolfn.nonquadraticity"),
        "boolfn.welch_s": lambda: self_s("boolfn.welch_function"),
        "boolfn.hypergraph_state_s": lambda: self_s("boolfn.hypergraph_state"),
        "binlin.field_s": lambda: self_s(*FIELD),
        "binlin.field_calls": lambda: calls(*FIELD) * per_op,
        "lattice.bound_s": lambda: self_s("lattice.lattice_bound"),
        "lattice.qubits_per_s": lambda: ratio(attr_sum("lattice.lattice_bound", "qubits"),
                                              incl("lattice.lattice_bound")[0]),
        "wigner.function_s": lambda: self_s("wigner.wigner_function"),
        "wigner.mana_lr_check_s": lambda: self_s("wigner.mana_lr_check"),
        "cli.import_s": lambda: ratio(sum(selfs[i] for i in of("cli.import")) * 1e-9,
                                      calls("cli.import")),
        **{f"cli.{sub}_s": (lambda sub=sub: mean_incl(f"cli.cmd_{sub}")) for sub in CLI_SUBCOMMANDS},
        "cli.cache_hit_ratio": lambda: ratio(count_where("stabdict.load_dictionary",
                                                         lambda a: a.get("hit")),
                                             calls("stabdict.get_dictionary")),
        "cli.measures_warm_s": lambda: mean_incl("cli.cmd_measures", "measures-warm"),
        "cli.mbqc_warm_s": lambda: mean_incl("cli.cmd_mbqc", "mbqc-warm"),
        "cli.mbqc_cold_s": lambda: mean_incl("cli.cmd_mbqc", "mbqc-cold"),
    }
    values, notes = {}, {}
    for name, *_ in METRICS:
        if name in extra:
            values[name] = extra[name]
            continue
        if name not in formulas:
            values[name] = 0.0
            notes[name] = "absent: not measured by this workload"
            continue
        read.clear()
        values[name] = formulas[name]()
        missing = [n for n in read if n in absent]
        if missing:
            notes[name] = "absent: " + "; ".join(absent[n] for n in missing)
        elif not any(by_name[n] for n in read):
            notes[name] = "absent: this workload does not call " + ", ".join(read)
    return values, notes
