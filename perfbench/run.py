"""magiclab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {certify,enumerate,bounds,cli} --seed N
                             --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``, never from an installed copy.  Each workload runs in a
fresh interpreter as one closed-loop client (see ``workloads.py``).

``--seconds`` sets how many whole cycles of the workload run: as many as
take about that long on the machine the benchmark was built on (at least
one; see ``Workload.cycles``).  The count does not depend on how fast the
code under test is, so every commit runs the same operations.  With
``--trace 0`` the workload runs untraced and is set up two more times in
fresh interpreters; the run prints the end-to-end metrics.  With
``--trace 1`` it runs the cycles of ``--seconds / 2`` once untraced and once
traced, and prints the per-layer metrics derived from the spans (see
``layers.py``) and the tracing overhead.  ``--smoke`` runs one cycle at the
smallest sizes.

Times are in reference seconds: wall seconds corrected for the momentary
speed of the CPU, which the run pins itself to (see ``speed.py``); the
wall-clock values are printed beside them.  Human-readable lines come first
(metrics by name and unit, the environment, failures); the last line is the
JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The full record of the
run, with every operation's latency, goes to ``.perfbench/results/`` and the
spans of a traced run to ``.perfbench/traces/``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import METRICS as LAYER_METRICS
from speed import REFERENCE_S, calibrate, pin_to_one_cpu, to_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "enumerate", "bounds", "cli")
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median
WORKER_TIMEOUT_S = 130
SETUP_TIMEOUT_S = 20
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("ops_per_s", "ops/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("failed_ratio", "1"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]
# failed_ratio is printed with the others but reaches the result line only as
# "failed" / "attempted": a ratio that is 0 on a correct run cannot be a bounded metric
REPORTED = [m for m in END_TO_END if m[0] != "failed_ratio"]


class BenchError(Exception):
    """The run could not produce a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true", help="one cycle at the smallest sizes")
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be non-negative")
    return args


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "magiclab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable: git failed"


def worker_env(tmp):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "MAGICLAB_CACHE_DIR")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # the package's default cache root lives under HOME; point it into the run's
    # own directory so no cache outside the run can be read or written
    env["HOME"] = str(tmp / "home")
    # every process of the run shares one CPU (see speed.py), so one BLAS thread
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def spawn(cfg, env, timeout):
    cfg = dict(cfg, calibration_s=calibrate(), spawn_ns=time.monotonic_ns())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                              cwd=cfg["tmp"], env=env, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cfg['mode']} worker exceeded {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{cfg['mode']} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it.

    With ten samples or fewer no such percentile exists; the maximum is
    reported then, with zero samples beyond it.
    """
    xs = sorted(latencies)
    n = len(xs)
    rank = n - 10 if n > 10 else n
    return xs[rank - 1], 100.0 * rank / n, n - rank


def reference_latency(record):
    return to_reference(record["latency_s"], record["calibration_s"])


def ops_per_s(records, latency=reference_latency):
    """Operations completed per second of busy time (the client's own checking
    and calibration between operations excluded)."""
    return len(records) / sum(latency(r) for r in records)


def end_to_end(records, setups, peak_rss_mb):
    """End-to-end metrics in reference seconds, with wall-clock values in the notes."""
    lat = [reference_latency(r) for r in records]
    wall = [r["latency_s"] for r in records]
    value, pct, beyond = tail(lat)
    failed = sum(1 for r in records if r["error"])
    cycles = len({r["cycle"] for r in records})
    setup_ref = [to_reference(s, c) for s, c in setups]
    metrics = {
        "ops_per_s": ops_per_s(records),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": value,
        "failed_ratio": failed / len(lat),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_ref),
    }
    notes = {
        "ops_per_s": f"{len(lat)} ops in {cycles} cycles; wall {ops_per_s(records, lambda r: r['latency_s']):.4g}",
        "latency_p50_s": f"median of {len(lat)} ops; wall {statistics.median(wall):.4g}",
        "latency_tail_s": f"p{pct:.1f}, {beyond} of {len(lat)} samples beyond it; "
                          f"wall {tail(wall)[0]:.4g}",
        "failed_ratio": f"{failed} of {len(lat)} ops",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup_ref)
                   + "; wall " + ", ".join(f"{s:.3f}" for s, _ in setups),
    }
    return metrics, notes


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "magiclab" / "__init__.py").is_file():
        print(f"perfbench: no magiclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    tmp = out_dir / "tmp" / stamp
    (tmp / "home").mkdir(parents=True)
    for sub in ("results", "traces"):
        (out_dir / sub).mkdir(exist_ok=True)
    cpu, cpus = pin_to_one_cpu()
    env = worker_env(tmp)
    default_cache = tmp / "home" / ".cache" / "magiclab"
    loadavg = os.getloadavg()
    try:
        # compile once up front so set-up times never include bytecode compilation
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                       env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)
        cfg = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "root": str(ROOT), "tmp": str(tmp),
            "traces": str(out_dir / "traces" / f"{stamp}.jsonl.gz"),
        }
        runs = [spawn(dict(cfg, mode="traced" if args.trace else "timed"), env, WORKER_TIMEOUT_S)]
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                runs.append(spawn(dict(cfg, mode="setup"), env, SETUP_TIMEOUT_S))
        main_run = runs[0]
        setups = [(r["setup_s"], r["setup_calibration_s"]) for r in runs]
        if default_cache.exists():
            raise BenchError(f"the run wrote the default cache root {default_cache}")
    except (BenchError, subprocess.SubprocessError, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    records = main_run["records"]
    env_record = {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        **main_run["env"],
        "blas_threads": env[BLAS_THREAD_VARS[0]],
        "nproc": cpus,
        "pinned_cpu": cpu,
        "reference_s": REFERENCE_S,
        "seed": args.seed,
        "loadavg_at_start": loadavg,
    }
    if args.trace:
        metrics, notes = main_run["layers"], main_run["notes"]
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
    else:
        metrics, notes = end_to_end(records, setups, main_run["peak_rss_mb"])
        units = dict(END_TO_END)
    failed = [r for r in records if r["error"]]

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("# env " + json.dumps(env_record))
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"{name:30s} {value:14.6g} {units[name]:9s} {note}")
    for r in failed[:20]:
        print(f"# FAILED op {r['op']} ({r['label']}, cycle {r['cycle']}): {r['error']}")

    detail = {"args": vars(args), "env": env_record, "metrics": metrics, "notes": notes,
              "setups": setups, "records": records}
    (out_dir / "results" / f"{stamp}.json").write_text(json.dumps(detail, indent=1))

    reported = [n for n, _ in REPORTED] if not args.trace else list(metrics)
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
