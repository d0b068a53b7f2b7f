"""Command-line front end: analyze, classify, decompose, returnmap, orbit,
scan, plotdata, embed-unimodal.

Reports are JSON (schema in schemas/map_report.schema.json, versioned);
orbit/return-map/scan outputs are CSV. Runs are deterministic for a fixed
config and seed. The sweep command writes its rows in input order; where a
second CPU is free, a forked child computes every other cell.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import pickle
import signal
import sys
import threading
from contextlib import contextmanager
from itertools import chain

import numpy as np

from . import __version__
from .map_core import (
    BUILTIN_NAMES,
    LorenzMapSpec,
    MapValidationError,
    Side,
    critical_values,
    derivative,
    embed_unimodal,
    load_map,
    logistic,
    quadratic_pair,
    validate_map,
)
from .orbits import critical_orbit, estimate_omega_limit, iterate_orbit, lyapunov, orbit_chunks, symbols
from .periodic import PeriodicFamily
from .return_maps import (
    MAX_HORIZON,
    MAX_RESOLUTION,
    ReturnMapRec,
    first_return_map,
    is_nice,
    phobic_measure,
)
from .spectral import (
    ENTROPY_WORD_LENGTH,
    Analysis,
    Budgets,
    classify_attractor,
    decompose,
    entropy_estimate,
    solenoid_entropy_bound,
)

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_INVALID_MAP = 3
EXIT_INTERNAL = 4

SCHEMA_VERSION = "1"

SCAN_COLUMNS = ("a_left", "a_right", "final_class", "n_f", "lyapunov", "status")
# the cells of a scan block, whose catalogs share one root stage
SCAN_BLOCK = 16


def _load_budgets(args: argparse.Namespace) -> Budgets:
    """--budgets (inline JSON or a path), then --seed where the command has it."""
    text = args.budgets or "{}"
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    budgets = Budgets.from_dict(json.loads(text))
    if getattr(args, "seed", None) is not None:
        budgets.seed = args.seed
    return budgets


def _int_in(lo: int, hi: float):
    """An argparse type: an integer in [lo, hi], checked before any work."""

    def integer(text: str) -> int:
        v = int(text)
        if not lo <= v <= hi:
            raise argparse.ArgumentTypeError(f"must lie in [{lo}, {hi}], got {v}")
        return v

    return integer


def _unit_float(text: str) -> float:
    """An argparse type: a start point in [0, 1], the map's domain."""
    v = float(text)
    if not 0.0 <= v <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {v}")
    return v


def _floats(text: str, sep: str, flag: str) -> tuple[float, float]:
    """The two numbers of a `lo<sep>hi` flag value."""
    try:
        lo, hi = (float(v) for v in text.split(sep))
    except ValueError:
        raise MapValidationError(f"{flag} must be lo{sep}hi, got {text!r}") from None
    return lo, hi


def _interval(text: str, spec: LorenzMapSpec | None = None) -> tuple[float, float]:
    """--interval lo,hi with 0 <= lo < hi <= 1, and with c inside when spec
    is given."""
    lo, hi = _floats(text, ",", "--interval")
    if not 0.0 <= lo < hi <= 1.0:
        raise MapValidationError(f"--interval needs 0 <= lo < hi <= 1, got {text!r}")
    if spec is not None and not lo < spec.c < hi:
        raise MapValidationError(f"--interval must contain the break point c = {spec.c!r}")
    return lo, hi


def _check_out(out: str | None) -> None:
    """Refuse an --out path that cannot be written, before any work: a
    directory, or a file whose directory is missing or not writable."""
    if not out:
        return
    parent = os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out):
        raise OSError(f"--out {out!r} is a directory")
    if not os.path.isdir(parent):
        raise OSError(f"--out {out!r}: no directory {parent!r}")
    if not os.access(parent, os.W_OK):
        raise OSError(f"--out {out!r}: directory {parent!r} is not writable")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _validated(spec: LorenzMapSpec) -> dict:
    """The report head: schema, tool, map and validation, plus an "error"
    key when the map is not a contracting Lorenz map (no probe runs then)."""
    validation = validate_map(spec)
    head: dict = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "lorenzlab", "version": __version__},
        "map": spec.to_dict(),
        "validation": validation.to_dict(),
    }
    if not validation.ok:
        head["error"] = "map failed validation"
    return head


def _can_fork() -> bool:
    """May work run in a forked child? Only with a second CPU to run it on,
    and only in a process with one thread: a fork copies just the calling
    thread, so a lock another thread holds stays held in the child."""
    affinity = getattr(os, "sched_getaffinity", None)
    return (
        hasattr(os, "fork")
        and affinity is not None
        and len(affinity(0)) >= 2
        and threading.active_count() == 1
    )


@contextmanager
def _beside(fn):
    """Yields a function that returns fn(). Where _can_fork() holds, a forked
    child calls fn while the with-block runs and sends the value back
    pickled through a pipe; a child that fails or sends a short payload is
    answered by the inline call, so the caller gets the serial value or the
    serial exception, and so is a pipe or a fork that fails. The child is
    reaped on every exit, and killed first if the block is left before its
    value is read. fn must depend only on state the fork copies, and its
    value must pickle."""
    if not _can_fork():
        yield fn
        return
    pid = reader = None

    def result():
        nonlocal pid
        if not pid:
            return fn()
        # to EOF before the reap: a payload larger than the pipe buffer
        # holds the child until it is read
        data = reader.read()
        status = os.waitpid(pid, 0)[1]
        pid = None
        if status == 0:
            try:
                return pickle.loads(data)
            except (pickle.UnpicklingError, EOFError):  # a short payload
                pass
        return fn()

    try:
        try:
            r, w = os.pipe()
            reader = open(r, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    # the child runs no atexit handler and flushes no inherited buffer
                    code = 1
                    try:
                        with open(w, "wb") as fh:
                            fh.write(pickle.dumps(fn(), pickle.HIGHEST_PROTOCOL))
                        code = 0
                    finally:
                        os._exit(code)
            finally:
                os.close(w)
        except OSError:  # no pipe or no process to spare: result() calls fn inline
            pass
        yield result
    finally:
        if reader:
            reader.close()
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def build_report(spec: LorenzMapSpec, budgets: Budgets) -> dict:
    """Full analysis pipeline: validate, periodic catalog, renormalization
    sequence, decomposition, Lyapunov samples and entropy.

    The entropy needs none of the other stages' objects, so where the
    process has one thread and may run on two CPUs it is computed in a
    forked child while this process builds the rest (_beside). A
    thread would not pay: the stages here are pure Python and the entropy's
    numpy calls are short, so both halves would wait on the GIL. The child's
    float is the serial call's, which depends only on the map, the sample
    count and the seed, so the report's bytes are the same either way."""
    report = _validated(spec)
    if "error" in report:
        return report
    sample_count = max(budgets.samples, 10_000)
    with _beside(lambda: entropy_estimate(spec, sample_count, rng=np.random.default_rng(budgets.seed))) as entropy:
        a = Analysis(spec, budgets)
        report["periodic_catalog"] = [r.to_dict() for r in a.catalog]
        report["renorm"] = a.seq.to_dict()
        report["decomposition"] = decompose(a).to_dict()

        rng = np.random.default_rng(budgets.seed)
        n = max(budgets.horizon, 1000)
        v, x = critical_values(spec), float(rng.uniform(0.05, 0.95))
        samples = []
        # the critical walks are the decomposition's, extended; the random one is never kept
        for label, x0, orbit in (
            ("critical_plus", v[0], critical_orbit(spec, 0, n)),
            ("critical_minus", v[1], critical_orbit(spec, 1, n)),
            ("random", x, chain.from_iterable(pts for pts, _ in orbit_chunks(spec, x, n))),
        ):
            est = lyapunov(spec, orbit, n)
            samples.append(
                {
                    "label": label,
                    "x0": x0,
                    "value": est.value,
                    "steps": est.steps,
                    "hit_critical": est.hit_critical,
                }
            )
        report["lyapunov_samples"] = samples

        report["entropy"] = {
            "word_length": ENTROPY_WORD_LENGTH,
            "samples": sample_count,
            "estimate": entropy(),
            "upper_bound": math.log(2.0) + 2.0 / ENTROPY_WORD_LENGTH,
            "solenoid_bound": solenoid_entropy_bound(a.seq.chain()),
        }
        report["provenance"] = {"budgets": budgets.to_dict(), "seed": budgets.seed}
        return report


def _finite_only(obj, path: str, non_finite: list[str]):
    """obj with every NaN or infinite float replaced by None; the JSON
    Pointer of each replaced value is appended to non_finite."""
    if isinstance(obj, float) and not math.isfinite(obj):
        non_finite.append(path)
        return None
    if isinstance(obj, dict):
        return {
            k: _finite_only(v, f"{path}/{str(k).replace('~', '~0').replace('/', '~1')}", non_finite)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [_finite_only(v, f"{path}/{i}", non_finite) for i, v in enumerate(obj)]
    return obj


def _dump_json(obj: dict) -> str:
    """Strict JSON: non-finite floats are written as null, and their JSON
    Pointers are listed under a top-level "non_finite" key (present only
    when there are any)."""
    non_finite: list[str] = []
    clean = _finite_only(obj, "", non_finite)
    if non_finite:
        clean["non_finite"] = non_finite
    return json.dumps(clean, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args: argparse.Namespace) -> int:
    spec = load_map(args.map)
    budgets = _load_budgets(args)
    report = build_report(spec, budgets)
    _emit(_dump_json(report), args.out)
    return EXIT_INVALID_MAP if "error" in report else EXIT_OK


def _refused(spec: LorenzMapSpec, out: str | None) -> bool:
    """Does spec fail validation? Then analyze's error report is written."""
    head = _validated(spec)
    if "error" in head:
        _emit(_dump_json(head), out)
    return "error" in head


def _analysis_command(args: argparse.Namespace, key: str, stage) -> int:
    """classify and decompose: the map, then {key: stage(analysis)}; a map
    that fails validation gets analyze's error report and exit code."""
    spec = load_map(args.map)
    budgets = _load_budgets(args)
    if _refused(spec, args.out):
        return EXIT_INVALID_MAP
    _emit(_dump_json({"map": spec.to_dict(), key: stage(Analysis(spec, budgets)).to_dict()}), args.out)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    return _analysis_command(args, "final_class", classify_attractor)


def cmd_decompose(args: argparse.Namespace) -> int:
    return _analysis_command(args, "decomposition", decompose)


def _write_branches(buf: io.StringIO, rec: ReturnMapRec) -> None:
    """The return-map branch CSV of `returnmap` and `plotdata --kind returnmap`."""
    buf.write("branch_lo,branch_hi,return_time,image_lo,image_hi,is_full\n")
    for b in rec.branches:
        buf.write(
            f"{b.domain[0]!r},{b.domain[1]!r},{b.return_time},{b.image[0]!r},{b.image[1]!r},{int(b.is_full)}\n"
        )


def cmd_returnmap(args: argparse.Namespace) -> int:
    spec = load_map(args.map)
    J = _interval(args.interval, spec)
    nice = is_nice(spec, J, args.horizon)
    rec = first_return_map(spec, J, args.horizon, args.resolution)
    buf = io.StringIO()
    _write_branches(buf, rec)
    if not nice.is_nice:
        buf.write(f"# warning: interval failed the niceness probe at horizon {args.horizon}\n")
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_orbit(args: argparse.Namespace) -> int:
    spec = load_map(args.map)
    side = Side(args.side)
    seg = iterate_orbit(spec, args.x0, side, args.steps)
    # the word ends at an undirected landing at c, whose row has no bit
    word = symbols(spec, seg.points)
    buf = io.StringIO()
    buf.write("k,x,side,logDf,itin_bit\n")
    for k, p in enumerate(seg.points):
        logdf = "" if abs(p.x - spec.c) <= spec.tolerance else repr(math.log(abs(derivative(spec, p.x))))
        buf.write(f"{k},{p.x!r},{p.side.value},{logdf},{word[k:k + 1]}\n")
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _scan_cell(a_left: float, a_right: float, a: Analysis) -> dict:
    """One sweep row of the map a.spec = quadratic_pair(a_left, a_right):
    the attractor class, n_f and one Lyapunov walk; no stratum probe runs
    and the class is asked for its kind only, since the row prints none of
    the rest."""
    try:
        kind = classify_attractor(a, kind_only=True).kind
        n = max(a.budgets.horizon, 1000)
        walk = orbit_chunks(a.spec, 0.6180339887498949, n)
        est = lyapunov(a.spec, chain.from_iterable(pts for pts, _ in walk), n)
        return {
            "a_left": a_left,
            "a_right": a_right,
            "final_class": kind,
            "n_f": a.n_f,
            "lyapunov": est.value,
            "status": "ok",
        }
    except Exception as e:  # per-cell failures never abort the sweep
        return {
            "a_left": a_left,
            "a_right": a_right,
            "final_class": "",
            "n_f": "",
            "lyapunov": "",
            "status": f"error: {type(e).__name__}: {e}",
        }


def _scan_block(cells: list[tuple[float, float]], budgets: Budgets) -> list[dict]:
    """The rows of a block of cells, whose catalogs share one root stage."""
    family = PeriodicFamily([quadratic_pair(al, ar) for al, ar in cells], budgets.max_period, budgets.grid_resolution)
    # each Analysis lives for its row only: the family lets go of a map once
    # its catalog is read, so a block never holds the cells' orbit walks
    return [_scan_cell(al, ar, Analysis(family.specs[k], budgets, family)) for k, (al, ar) in enumerate(cells)]


def _scan_rows(cells: list[tuple[float, float]], budgets: Budgets) -> list[dict]:
    """The rows of cells in their order, in blocks of SCAN_BLOCK: a block's
    cells step their own catalog grids, then one lockstep bisection and one
    tangential search serve all of them, so the fixed cost of each vector
    step is paid once per block instead of once per cell."""
    return [row for k in range(0, len(cells), SCAN_BLOCK) for row in _scan_block(cells[k : k + SCAN_BLOCK], budgets)]


def cmd_scan(args: argparse.Namespace) -> int:
    lo_l, hi_l = _floats(args.a_left, ":", "--a-left")
    lo_r, hi_r = _floats(args.a_right, ":", "--a-right")
    for v in (lo_l, hi_l, lo_r, hi_r):
        if not (2.5 <= v <= 4.0):
            raise MapValidationError("sweep ranges must lie within [2.5, 4.0]")
    budgets = _load_budgets(args)
    lefts = np.linspace(lo_l, hi_l, args.steps)
    rights = np.linspace(lo_r, hi_r, args.steps)
    cells = [(float(al), float(ar)) for al in lefts for ar in rights]
    # where a second CPU is free, a forked child computes the odd cells
    # while this process computes the even ones (_beside; a thread pool made
    # the GIL-bound sweep slower). The split is strided because a cell's
    # cost varies smoothly over the grid, so the halves stay balanced where
    # contiguous ones would not. A row does not depend on its block-mates
    # (each bracket steps by its own map), so the rows are the serial ones.
    if len(cells) > 1 and _can_fork():
        rows: list = [None] * len(cells)
        with _beside(lambda: _scan_rows(cells[1::2], budgets)) as odd_rows:
            rows[0::2] = _scan_rows(cells[0::2], budgets)
            rows[1::2] = odd_rows()
    else:
        rows = _scan_rows(cells, budgets)
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(SCAN_COLUMNS)
    out.writerows([r[k] for k in SCAN_COLUMNS] for r in rows)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_plotdata(args: argparse.Namespace) -> int:
    spec = load_map(args.map)
    buf = io.StringIO()
    if args.kind == "cobweb":
        if args.x0 is None:
            raise MapValidationError("cobweb needs --x0")
        seg = iterate_orbit(spec, args.x0, Side.NONE, args.steps)
        buf.write("x_k,x_k1\n")
        xs = [p.x for p in seg.points]
        for a, b in zip(xs[:-1], xs[1:]):
            buf.write(f"{a!r},{b!r}\n")
    elif args.kind == "returnmap":
        if not args.interval:
            raise MapValidationError("returnmap needs --interval lo,hi")
        _write_branches(buf, first_return_map(spec, _interval(args.interval), args.horizon, args.resolution))
    elif args.kind == "strata":
        budgets = _load_budgets(args)
        if _refused(spec, args.out):
            return EXIT_INVALID_MAP
        rec = decompose(Analysis(spec, budgets))
        buf.write("n,lo,hi,tag\n")
        for s in rec.strata:
            for (lo, hi) in s.K_n:
                buf.write(f"{s.n},{lo!r},{hi!r},K\n")
            w = 1.0 / s.resolution
            for cell in s.recurrent_cells:
                buf.write(f"{s.n},{cell * w!r},{(cell + 1) * w!r},recurrent\n")
    elif args.kind == "limitset":
        if args.x0 is None:
            raise MapValidationError("limitset needs --x0")
        est = estimate_omega_limit(spec, args.x0, args.steps, args.resolution)
        w = 1.0 / est.resolution
        buf.write("cell_index,cell_lo,cell_hi\n")
        for cell in est.cells:
            buf.write(f"{cell},{cell * w!r},{(cell + 1) * w!r}\n")
    elif args.kind == "phobic":
        if not args.interval:
            raise MapValidationError("phobic needs --interval lo,hi")
        est = phobic_measure(spec, _interval(args.interval, spec), args.steps, args.resolution)
        w = 1.0 / est.grid
        buf.write("cell_index,cell_lo,cell_hi\n")
        for cell in est.surviving_cells:
            buf.write(f"{cell},{cell * w!r},{(cell + 1) * w!r}\n")
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_embed_unimodal(args: argparse.Namespace) -> int:
    spec = embed_unimodal(logistic(args.logistic))
    _emit(_dump_json(spec.to_dict()), args.out)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lorenzlab",
        description="Contracting Lorenz maps: return maps, renormalization, attractor classification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    flags = {
        "map": dict(required=True, help=f"map config path or builtin: {', '.join(BUILTIN_NAMES)}"),
        "budgets": dict(default=None, help="budgets JSON (inline or path)"),
        "out": dict(default=None, help="output path (default stdout)"),
        "seed": dict(type=_int_in(0, math.inf), default=None),
    }

    def add_common(p, *names):
        """The shared flags of p, each added only where the command reads it."""
        for name in names:
            p.add_argument(f"--{name}", **flags[name])

    p = sub.add_parser("analyze", help="full report")
    add_common(p, "map", "budgets", "out", "seed")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("classify", help="attractor class only")
    add_common(p, "map", "budgets", "out")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("decompose", help="strata decomposition")
    add_common(p, "map", "budgets", "out")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("returnmap", help="first-return branch CSV")
    add_common(p, "map", "out")
    p.add_argument("--interval", required=True, help="lo,hi")
    p.add_argument("--horizon", type=_int_in(1, MAX_HORIZON), default=1000)
    p.add_argument("--resolution", type=_int_in(2, MAX_RESOLUTION), default=1 << 12)
    p.set_defaults(fn=cmd_returnmap)

    p = sub.add_parser("orbit", help="orbit CSV dump")
    add_common(p, "map", "out")
    p.add_argument("--x0", type=_unit_float, required=True)
    p.add_argument("--side", default="none", choices=["minus", "plus", "none"])
    p.add_argument("--steps", type=_int_in(0, MAX_HORIZON), default=200)
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("scan", help="quadratic-pair parameter sweep CSV")
    add_common(p, "budgets", "out")
    p.add_argument("--a-left", required=True, help="lo:hi")
    p.add_argument("--a-right", required=True, help="lo:hi")
    p.add_argument("--steps", type=_int_in(1, 1024), default=10)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("plotdata", help="cobweb / returnmap / strata / limitset / phobic CSV")
    add_common(p, "map", "budgets", "out")
    p.add_argument(
        "--kind", required=True, choices=["cobweb", "returnmap", "strata", "limitset", "phobic"]
    )
    p.add_argument("--x0", type=_unit_float, default=None)
    p.add_argument("--steps", type=_int_in(0, MAX_HORIZON), default=200)
    p.add_argument("--interval", default=None)
    p.add_argument("--horizon", type=_int_in(1, MAX_HORIZON), default=1000)
    p.add_argument("--resolution", type=_int_in(2, MAX_RESOLUTION), default=1 << 12)
    p.set_defaults(fn=cmd_plotdata)

    p = sub.add_parser("embed-unimodal", help="emit the two-branch embedding of a symmetric unimodal map")
    p.add_argument("--logistic", type=float, required=True)
    add_common(p, "out")
    p.set_defaults(fn=cmd_embed_unimodal)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_BAD_CONFIG if e.code not in (0, None) else 0
    try:
        _check_out(getattr(args, "out", None))
        return args.fn(args)
    except (MapValidationError, KeyError, OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_BAD_CONFIG
    except ValueError as e:
        # the input passed its checks, so a stage failed
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
