"""One workload in a fresh interpreter: set-up, then the closed-loop phases.

Started by ``run.py`` with one JSON argument:

    {"workload", "seed", "seconds", "mode", "smoke", "spawn_ns", "root", "tmp", "traces"}

``mode`` is ``setup`` (set up, report the set-up time, exit), ``timed`` (set
up, then run the cycles that ``seconds`` stands for) or ``traced`` (set up
with the tracer installed, run an untraced phase and then a traced phase of
``seconds / 2`` each over the same cycles).  Prints one JSON line.
"""

import json
import resource
import sys
import traceback

from run import ops_per_s
from speed import calibrate
from tracing import TARGETS, Tracer, now_ns
from workloads import WORKLOADS, CheckFailed


def run_phase(workload, cycles, tracer, first_op):
    """Run ``cycles`` whole cycles, one record per op.

    The calibration kernel runs before the first op and after each op (see
    ``speed.py``).
    """
    records = []
    before = calibrate()
    for c in range(cycles):
        for op in workload.cycle(c):
            op_id = first_op + len(records)
            if tracer:
                tracer.op, tracer.enabled = op_id, True
            error = out = None
            t0 = now_ns()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = "".join(traceback.format_exception_only(exc)).strip()
            t1 = now_ns()
            if tracer:
                tracer.enabled = False
            after = calibrate()
            if error is None:
                try:
                    op.check(out)
                except CheckFailed as exc:
                    error = f"check: {exc}"
                except Exception as exc:  # an output the oracle cannot read
                    error = "check: " + "".join(traceback.format_exception_only(exc)).strip()
            if tracer and op.after:
                op.after(out, tracer, t0, t1)
            if tracer:
                tracer.op = None
            records.append({"op": op_id, "label": op.label, "cycle": c,
                            "latency_s": (t1 - t0) * 1e-9, "calibration_s": (before + after) / 2,
                            "error": error})
            before = after
        workload.finish_cycle(c)
    return records


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main():
    cfg = json.loads(sys.argv[1])
    mode = cfg["mode"]
    workload = WORKLOADS[cfg["workload"]](cfg["seed"], cfg["smoke"], cfg["tmp"], cfg["root"])
    workload.import_package()
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install(TARGETS)
        tracer.op = "setup"
    workload.setup()
    setup_s = (now_ns() - cfg["spawn_ns"]) * 1e-9
    out = {
        "setup_s": setup_s,
        "setup_calibration_s": (cfg["calibration_s"] + calibrate()) / 2,
        "env": environment(),
    }
    if mode == "setup":
        print(json.dumps(out))
        return
    if tracer:
        tracer.op = None
        tracer.enabled = False
        tracer.uninstall()
        cycles = workload.cycles(cfg["seconds"] / 2)
        untraced = run_phase(workload, cycles, None, 0)
        tracer.install(TARGETS)
        workload.traced = True
        traced = run_phase(workload, cycles, tracer, len(untraced))
        from layers import derive

        base, slowed = ops_per_s(untraced), ops_per_s(traced)
        extra = dict(workload.extra)
        extra["trace.overhead_ops_per_s"] = base - slowed
        spans = list(tracer.records())
        labels = {r["op"]: r["label"] for r in traced}
        absent = dict(tracer.absent)
        absent.update(workload.child_absent)  # targets the CLI children could not wrap
        out["layers"], out["notes"] = derive(spans, len(traced), labels, absent, extra)
        out["notes"]["trace.overhead_ops_per_s"] = (
            f"{100 * (base - slowed) / base:.1f}% of the untraced phase's ops_per_s: "
            f"untraced {base:.4g}, traced {slowed:.4g} ops/s")
        tracer.uninstall()
        tracer.dump(cfg["traces"])
        out["records"] = untraced + traced
    else:
        out["records"] = run_phase(workload, workload.cycles(cfg["seconds"]), None, 0)
    who = resource.RUSAGE_CHILDREN if cfg["workload"] == "cli" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
