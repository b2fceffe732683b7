"""Benchmark of the ``impartial`` package, run from outside through its
public functions and its command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload protocol_blackbox [--seed 11]
        [--seconds 35] [--trace 0|1]

Workloads, metrics and run length are defined in ``BENCHMARK.json``.
Every workload is a closed loop: this one process is the only client and
each pass starts after the previous one ends. Threads are pinned to one
(``IMPARTIAL_THREADS`` and the BLAS variables are set here, before numpy
is imported, and inherited by every CLI process).

The run sets up the inputs before the first pass and again between
passes, spread over the run (timed, median reported as ``setup_s``; the
repeats do not count towards ``--seconds``). It repeats passes for
``--seconds`` seconds and at least three passes (the protocol after one
warm-up pass). Every pass must
reproduce the first one's outputs bit for bit. Only then, after the peak
resident set is read, are the output references prepared and the last
pass checked against them, so that checking adds nothing to
``peak_rss_mb``. With
``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries
the per-layer metrics from the traced ones, while the spans are written
to ``.perfbench_run/``. The line before it is a report with the
environment, every pass time, and the per-workload metrics with their
units (``fold_fits_per_s``, ``cli_*_s``, ``error_rate``).

Seeds: the default seed is 11. Seed 7777 is held out: it is not used
while tuning the benchmark or a change, and verifies later claims.
"""

import os
import sys

THREAD_ENV = {
    "IMPARTIAL_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 11
HELD_OUT_SEED = 7777
# One set-up is a second or so, most of it a fresh interpreter whose start
# varies by half from one to the next; five give a steadier median. The
# speed of a shared host drifts over tens of seconds, so the repeats are
# spread over the run like the passes rather than timed back to back.
SETUP_REPEATS = 5
# A CLI pass takes about ten seconds and single passes vary by a tenth or
# more on a shared host; a median needs at least three of them, which a
# run of the length in BENCHMARK.json gives anyway.
MIN_PASSES = 3
NAMED_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "fold_fits_per_s": "1/s",
    "cli_fit_s": "s",
    "cli_audit_s": "s",
    "cli_decompose_s": "s",
    "cli_correct_s": "s",
}


def summary(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    import numpy as np

    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "tail_pct": None, "tail": None}
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            out["tail_pct"], out["tail"] = pct, float(np.percentile(values, pct))
            break
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):  # show_config without dict mode or key
            return None

    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def run(args) -> tuple[dict, dict]:
    import workloads

    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        setup_s = []

        def set_up():
            t = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t)

        set_up()
        setup_peak_mb = wl.peak_rss_kb() / 1024

        attempted = failed = 0
        passes = {"untraced": [], "traced": []}
        tries = {"untraced": 0, "traced": 0}
        reference = None
        last = None  # the latest pass, raw outputs kept for the check

        def one_pass(kind, in_process, tracer=None):
            """Run and record one pass; a raised exception fails every step.

            Only the latest pass keeps its raw outputs, so that no two passes'
            arrays are alive at once.
            """
            nonlocal attempted, failed, reference, last
            attempted += len(wl.steps)
            pass_id = tries[kind] if kind else -1
            if kind:
                tries[kind] += 1
            if last is not None:
                last.raw, last = None, None
            try:
                if tracer is None:
                    r = wl.run_pass(in_process=in_process)
                else:
                    with tracer.traced(pass_id):
                        r = wl.run_pass(in_process=in_process)
            except Exception:
                traceback.print_exc()
                failed += len(wl.steps)
                return
            if reference is None:
                reference = r.digests
            r.pass_id = pass_id
            bad = set(r.failed) | {s for s in wl.steps if r.digests.get(s) != reference.get(s)}
            failed += len(bad)
            r.bad, last = bad, r
            if kind:
                passes[kind].append(r)

        warmup_s = None
        if wl.warmup:
            t = time.perf_counter()
            one_pass(None, in_process=wl.in_process)
            warmup_s = time.perf_counter() - t

        tracer = None
        if args.trace:
            from tracing import Tracer, layer_metrics

            tracer = Tracer()
        start = time.perf_counter()

        def elapsed():
            """Time since the first pass, without the set-ups run since."""
            return time.perf_counter() - start - sum(setup_s[1:])

        while (
            elapsed() < args.seconds
            or tries["untraced"] < (1 if tracer else MIN_PASSES)
            or (tracer and not tries["traced"])
        ):
            # In the traced run the CLI runs in-process, untraced and traced alike.
            one_pass("untraced", in_process=wl.in_process or bool(tracer))
            if tracer:
                one_pass("traced", in_process=True, tracer=tracer)
            due = len(setup_s) * args.seconds / SETUP_REPEATS
            if len(setup_s) < SETUP_REPEATS and elapsed() >= due:
                set_up()
        while len(setup_s) < SETUP_REPEATS:
            set_up()

        # Read the peak before the references are made and checked, so that
        # it covers set-up and passes only. Every pass has the digests of the
        # first, so checking the last one checks them all.
        peak_mb = wl.peak_rss_kb() / 1024
        if last is not None:
            try:
                wl.prepare()
                bad = wl.check(last)
            except Exception:
                traceback.print_exc()
                bad = set(wl.steps)
            failed += len(bad - last.bad)
            last = None

        report = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "env": environment(args.seed),
            "seconds": args.seconds,
            "attempted": attempted,
            "failed": failed,
            "warmup_s": warmup_s,
            "setup_s": setup_s,
        }
        untraced = passes["untraced"]
        if not untraced or (tracer and not passes["traced"]):
            return report, {}
        walls = [r.wall_s for r in untraced]
        report["passes_s"] = walls
        report["steps_s"] = {s: summary([r.step_s[s] for r in untraced]) for s in wl.steps}
        named = [wl.named(r) for r in untraced]
        report["named"] = {k: summary([m[k] for m in named]) for k in named[0]}
        report["named"]["pass_s"] = summary(walls)
        report["named"]["setup_s"] = summary(setup_s)
        report["named"]["peak_rss_mb"] = {"value": peak_mb}
        report["peak_rss_setup_mb"] = setup_peak_mb
        report["named"]["error_rate"] = {"value": failed / attempted}
        for key, entry in report["named"].items():
            entry["unit"] = NAMED_UNITS[key]

        if tracer:
            traced = passes["traced"]
            overhead = statistics.median(r.wall_s for r in traced) - statistics.median(walls)
            metrics, unequal = layer_metrics(tracer, [r.pass_id for r in traced], overhead)
            report["unequal_counts"] = unequal
            tracer.write(ROOT / ".perfbench_run" / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "pass_s": statistics.median(walls),
                "peak_rss_mb": peak_mb,
            }
        return report, metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "impartial" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no impartial sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )

    report, metrics = run(args)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        print(json.dumps({"report": report}))
        return 1
    print(json.dumps({"report": report}))
    correct = report["failed"] == 0 and not report.get("unequal_counts")
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
