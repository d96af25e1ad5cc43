"""Run the benchmark over several seeds and check its spread against the bounds.

    python3 perfbench/spread.py --workloads certify,cli --seeds 1-10
    python3 perfbench/spread.py --workloads bounds --seeds 1-10 --second-seeds 11-20

Every run lasts ``run_seconds`` of ``BENCHMARK.json``, the length its bounds
apply to.  For every end-to-end metric and every workload, prints the median
of the runs, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, and the
metric's bound.  The spread of every metric must stay within its bound.
A run with a failed operation fails the check (its figures are kept in the
statistics).  With ``--second-seeds``
a second set of runs on unseen seeds is made, and each metric's median there
must differ from the first set's, in either direction, by no more than the
bound, so a claim can be re-checked on seeds it was not tuned on.  Exits 1
if any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(bench, workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / bench["command"][1]), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} "
              "operations FAILED", flush=True)
    return result["correct"], {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--second-seeds", type=seed_list, default=None)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    ok = True
    for workload in workloads:
        seed_sets = [args.seeds] + ([args.second_seeds] if args.second_seeds else [])
        sets = []
        for seeds in seed_sets:
            outcomes = [run_once(bench, workload, s, seconds) for s in seeds]
            ok = ok and all(correct for correct, _ in outcomes)
            sets.append([metrics for _, metrics in outcomes])
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = [f"{workload:10s} {name:16s}"]
            medians = []
            for runs in sets:
                median, share = spread([r[name] for r in runs])
                medians.append(median)
                flag = "" if share <= bound else "  SPREAD > BOUND"
                ok = ok and not flag
                row.append(f"median {median:12.6g} spread {share:6.3f}{flag}")
            if len(medians) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                flag = "  CHANGE > BOUND" if abs(change) > bound else ""
                ok = ok and not flag
                row.append(f"second differs by {change:+.3f}{flag}")
            row.append(f"bound {bound}")
            print(" | ".join(row), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
