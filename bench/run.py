"""Benchmark of lorenzlab: one workload per process.

    python3 bench/run.py --workload analyze|returnmap|scan --seed N --seconds S --trace 0|1

Run from the root of a source checkout; lorenzlab is imported from its
src/ directory. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones (setup_s, pass_s, peak_rss_mb); with --trace 1 they
are the per-layer ones, from micro-probes, one untraced pass and one pass
traced by wrappers on lorenzlab's module attributes. Run outputs and trace
files go to bench_out/ under the root.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import probes  # noqa: E402
from probes import metric  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
SETUP_REPEATS = 3


def import_lorenzlab():
    if not (SRC / "lorenzlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no lorenzlab sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import lorenzlab

    if Path(lorenzlab.__file__).resolve().parent != SRC / "lorenzlab":
        raise SystemExit(f"error: imported lorenzlab from {lorenzlab.__file__}, not from {SRC}")
    # the scan pool runs at its default width
    os.environ.pop("LORENZLAB_THREADS", None)
    import lorenzlab.cli  # noqa: F401


def environment() -> dict:
    import numpy

    return {"cores": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}


def untraced_run(wl, seconds: float) -> tuple[list, dict]:
    start = time.perf_counter()
    outcomes = [wl.run_pass()]
    # as many whole passes as fill the measuring time best, fixed after the
    # first pass so that one slow pass does not change the count
    passes = max(1, round(seconds / (time.perf_counter() - start)))
    outcomes += [wl.run_pass() for _ in range(passes - 1)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return outcomes, {
        "pass_s": metric(statistics.median(o.seconds for o in outcomes), "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }


def traced_run(wl, args) -> tuple[list, dict]:
    import tracing

    layers = probes.micro_probes()
    plain = wl.run_pass()
    # the scan's wall and CPU time come from the untraced pass: tracing adds
    # wrapper and lock time to both of the pool's threads
    per_cell = cpu_per_wall = 0.0
    if args.workload == "scan":
        per_cell, cpu_per_wall = wl.wall_s / len(wl.cells), wl.cpu_s / wl.wall_s
    layers["cli.scan.s_per_cell"] = metric(per_cell, "s")
    layers["cli.scan.cpu_per_wall"] = metric(cpu_per_wall, "ratio")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = wl.run_pass()
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    layers.update(probes.layer_metrics(tracer, counts, traced.seconds - plain.seconds))
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
    trace_path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "environment": environment(),
                "untraced_pass_s": plain.seconds,
                "traced_pass_s": traced.seconds,
                "counts": counts,
                "elements": tracer.elements,
                "metrics": layers,
                "spans": [s.to_dict() for s in tracer.spans],
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    return [plain, traced], layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["analyze", "returnmap", "scan"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    import_lorenzlab()
    import workloads

    import_s = time.perf_counter() - T_START
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, run_dir)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.prepare()
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)
        if args.trace:
            outcomes, metrics = traced_run(wl, args)
        else:
            outcomes, metrics = untraced_run(wl, args.seconds)
            metrics = {"setup_s": metric(setup_s, "s"), **metrics}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for o in outcomes:
        for p in o.problems[:20]:
            print(p, file=sys.stderr)
    print(json.dumps({"environment": environment(), "pass_s": [o.seconds for o in outcomes]}))
    print(
        json.dumps(
            {
                "correct": all(o.wrong == 0 for o in outcomes),
                "attempted": sum(o.attempted for o in outcomes),
                "failed": sum(o.errored + o.wrong for o in outcomes),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
