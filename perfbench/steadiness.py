"""Run the benchmark repeatedly and compare sets of runs metric by metric.

    python3 perfbench/steadiness.py run --out A.json
    python3 perfbench/steadiness.py compare A.json [B.json]

``run`` makes, for every workload in ``BENCHMARK.json``, one untraced run
for each of the seeds 1 to 10, plus one traced run at the default seed,
and stores every result line. ``compare`` prints, per end-to-end metric
and workload, the median of each set and its spread: the distance between
the first and third quartile as a share of the median. A pair is
unresolved when a set's spread exceeds the metric's bound, or when the
two sets' medians differ by more than the bound in either direction. It
also lists the exact counts of the traced runs that differ between the
sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import DEFAULT_SEED

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
COUNT_UNITS = {"count", "flop", "B", "ratio"}


def _run_one(workload, seed, trace) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def cmd_run(args) -> None:
    runs = []
    for name in (w["name"] for w in SPEC["workloads"]):
        for seed in SEEDS:
            runs.append(_run_one(name, seed, 0))
            named = runs[-1]["report"]["named"]
            print(f"{name} seed {seed} ({runs[-1]['wall_s']:.0f} s):", ", ".join(
                f"{k} {v.get('median', v.get('value')):.4g} {v['unit']}" for k, v in named.items()
            ), flush=True)
        runs.append(_run_one(name, DEFAULT_SEED, 1))
    Path(args.out).write_text(json.dumps(runs) + "\n")


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_compare(args) -> int:
    sets = [json.loads(Path(p).read_text()) for p in args.sets]
    unresolved = []
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            cells, medians = [], []
            for runs in sets:
                values = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                          if r["workload"] == w["name"] and not r["trace"]]
                if len(values) < 2:
                    continue
                spread, median = _spread(values), statistics.median(values)
                medians.append(median)
                cells.append(f"median {median:.4g} spread {spread:.3f}")
                if spread > m["bound"]:
                    unresolved.append((w["name"], m["name"], f"spread {spread:.3f}"))
                if not all(r["result"]["correct"] for r in runs if r["workload"] == w["name"]):
                    unresolved.append((w["name"], m["name"], "incorrect outputs"))
            if len(medians) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                cells.append(f"change {change:+.3f}")
                if abs(change) > m["bound"]:
                    unresolved.append((w["name"], m["name"], f"change {change:+.3f}"))
            if cells:
                print(f"{w['name']:18} {m['name']:12} bound {m['bound']:<5} " + " | ".join(cells))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
    traced = [{(r["workload"], r["seed"]): r["result"]["metrics"] for r in runs if r["trace"]}
              for runs in sets]
    for key in sorted(set.intersection(*(set(t) for t in traced))) if len(traced) == 2 else []:
        differ = [c for c in counts if traced[0][key][c]["value"] != traced[1][key][c]["value"]]
        print(f"{key[0]:18} seed {key[1]}: {'counts differ: ' + ', '.join(differ) if differ else 'exact counts identical'}")
        unresolved += [(key[0], c, "count differs") for c in differ]
    print("unresolved:", unresolved if unresolved else "none")
    return 1 if unresolved else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--out", required=True)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("sets", nargs="+")
    args = parser.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
