import json
import math
import os
import signal
import tracemalloc
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzlab import Budgets, builtin_map
from lorenzlab.cli import (
    EXIT_BAD_CONFIG,
    EXIT_INTERNAL,
    EXIT_INVALID_MAP,
    EXIT_OK,
    _dump_json,
    _validated,
    build_report,
    main,
)
from lorenzlab.map_core import BUILTIN_NAMES, BranchSpec, LorenzMapSpec, MapValidationError, load_map
from lorenzlab.return_maps import MAX_HORIZON, MAX_RESOLUTION

FAST_BUDGETS = json.dumps(
    {"max_period": 8, "horizon": 2000, "grid_resolution": 1 << 12, "samples": 20_000}
)


def test_analyze_report(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["analyze", "--map", "paper-example", "--budgets", FAST_BUDGETS, "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["schema_version"] == "1"
    assert rep["validation"]["is_lorenz"]
    assert rep["decomposition"]["omega0"] == "{1}"
    assert rep["decomposition"]["final_class"]["kind"] == "periodic_attractor"
    assert rep["renorm"]["degenerate"] is not None
    assert rep["entropy"]["estimate"] <= math.log(2) + 0.1
    assert rep["provenance"]["budgets"]["max_period"] == 8


def test_analyze_validates_against_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res

    out = tmp_path / "rep.json"
    main(["analyze", "--map", "logistic3.4-embed", "--budgets", FAST_BUDGETS, "--out", str(out)])
    rep = json.loads(out.read_text())
    schema = json.loads(
        res.files("lorenzlab").joinpath("schemas/map_report.schema.json").read_text()
    )
    jsonschema.validate(rep, schema)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_report_peak_memory(monkeypatch, name):
    # the whole analyze report at default budgets: logistic4-embed peaked at
    # 14.8 MB while the candidate search indexed all 198,099 pairs that
    # pass the catalog mask and the entropy's work arrays held every orbit;
    # the entropy runs inline, so the bound covers its arrays too
    from lorenzlab import cli

    monkeypatch.setattr(cli, "_can_fork", lambda: False)
    tracemalloc.start()
    try:
        build_report(builtin_map(name), Budgets())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        main(["analyze", "--map", "paper-example", "--budgets", FAST_BUDGETS, "--seed", "5", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def _forks(monkeypatch) -> list[int]:
    """The pids os.fork returns from here on (0 in the child); the test is
    skipped where the entropy may not fork."""
    from lorenzlab import cli

    if not cli._can_fork():
        pytest.skip("the entropy runs inline on this host")
    real, pids = os.fork, []

    def counted():
        pids.append(real())
        return pids[-1]

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


POWER_MAP = LorenzMapSpec(
    c=0.45,
    left=BranchSpec(kind="power_form", domain_side="left", a=0.97, alpha=2.7),
    right=BranchSpec(kind="power_form", domain_side="right", a=0.9, alpha=1.9),
    name="power",
)


@pytest.mark.parametrize(
    "spec, budgets",
    [(builtin_map(name), Budgets()) for name in BUILTIN_NAMES]
    + [(POWER_MAP, Budgets(**json.loads(FAST_BUDGETS)))],
    ids=[*BUILTIN_NAMES, "power_form"],
)
def test_forked_entropy_gives_the_inline_bytes(monkeypatch, spec, budgets):
    from lorenzlab import cli

    real, here = cli.entropy_estimate, []

    def counted(*args, **kwargs):
        # a call in the child appends to the child's copy of the list
        here.append(os.getpid())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "entropy_estimate", counted)
    pids = _forks(monkeypatch)
    forked = build_report(spec, budgets)
    assert len(pids) == 1 and here == []
    monkeypatch.setattr(cli, "_can_fork", lambda: False)
    inline = build_report(spec, budgets)
    assert len(pids) == 1
    assert float.hex(forked["entropy"]["estimate"]) == float.hex(inline["entropy"]["estimate"])
    assert _dump_json(forked) == _dump_json(inline)
    _no_child_left()


def test_forked_entropy_raises_the_inline_exception(monkeypatch):
    from lorenzlab import cli

    def broken(spec, samples, rng):
        raise ValueError(f"no words on {spec.name} from {samples} samples")

    monkeypatch.setattr(cli, "entropy_estimate", broken)
    budgets = Budgets(**json.loads(FAST_BUDGETS))
    pids = _forks(monkeypatch)
    with pytest.raises(ValueError) as forked:
        build_report(builtin_map("paper-example"), budgets)
    assert len(pids) == 1
    monkeypatch.setattr(cli, "_can_fork", lambda: False)
    with pytest.raises(ValueError) as inline:
        build_report(builtin_map("paper-example"), budgets)
    assert (forked.type, str(forked.value)) == (inline.type, str(inline.value))
    _no_child_left()


def test_failed_child_is_answered_inline(monkeypatch):
    # a child that dies without its 8 bytes: the parent computes the value
    from lorenzlab import cli

    budgets = Budgets(**json.loads(FAST_BUDGETS))
    serial = _dump_json(build_report(builtin_map("paper-example"), budgets))
    parent, real = os.getpid(), cli.entropy_estimate

    def fails_in_child(*args, **kwargs):
        if os.getpid() != parent:
            raise MemoryError
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "entropy_estimate", fails_in_child)
    pids = _forks(monkeypatch)
    assert _dump_json(build_report(builtin_map("paper-example"), budgets)) == serial
    assert len(pids) == 1
    _no_child_left()

    # a child that sends 8 bytes of a wrong float but exits non-zero
    def wrong_in_child(*args, **kwargs):
        return -1.0 if os.getpid() != parent else real(*args, **kwargs)

    real_exit = os._exit
    monkeypatch.setattr(cli, "entropy_estimate", wrong_in_child)
    monkeypatch.setattr(os, "_exit", lambda code: real_exit(1))
    assert _dump_json(build_report(builtin_map("paper-example"), budgets)) == serial
    assert len(pids) == 2
    _no_child_left()


def test_forked_entropy_leaves_no_child(monkeypatch):
    from lorenzlab import cli

    budgets = Budgets(**json.loads(FAST_BUDGETS))
    pids = _forks(monkeypatch)
    build_report(builtin_map("paper-example"), budgets)
    _no_child_left()

    # a stage that raises while the child runs: the child is killed and reaped
    monkeypatch.setattr(cli, "decompose", _fails)
    with pytest.raises(ValueError, match="stage failed"):
        build_report(builtin_map("logistic4-embed"), budgets)
    assert len(pids) == 2
    _no_child_left()

    def interrupted(a):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "decompose", interrupted)
    with pytest.raises(KeyboardInterrupt):
        build_report(builtin_map("logistic4-embed"), budgets)
    assert len(pids) == 3
    _no_child_left()


def test_failed_fork_runs_the_entropy_inline(monkeypatch):
    from lorenzlab import cli

    if not cli._can_fork():
        pytest.skip("the entropy runs inline on this host")
    budgets = Budgets(**json.loads(FAST_BUDGETS))
    serial = _dump_json(build_report(builtin_map("paper-example"), budgets))
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None

    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    assert _dump_json(build_report(builtin_map("paper-example"), budgets)) == serial
    # the pipe is closed
    assert fds is None or len(os.listdir("/proc/self/fd")) == len(fds)


def test_beside_sends_a_value_larger_than_the_pipe(monkeypatch):
    # 1 MiB is 16 pipe buffers: the child writes it all, and the parent
    # reads to EOF before it reaps the child
    from lorenzlab import cli

    pids = _forks(monkeypatch)
    payload = bytes(range(256)) * 4096

    def timed_out(signum, frame):
        raise TimeoutError("the parent waits on a child blocked on a full pipe")

    handler = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        with cli._beside(lambda: (os.getpid(), payload)) as value:
            sender, data = value()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert len(pids) == 1 and sender == pids[0] != os.getpid()
    assert data == payload
    _no_child_left()


def test_entropy_runs_inline_on_one_cpu_or_with_threads(monkeypatch):
    import threading

    def no_fork():
        pytest.fail("os.fork was called")

    budgets = Budgets(**json.loads(FAST_BUDGETS))
    serial = _dump_json(build_report(builtin_map("paper-example"), budgets))
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    if hasattr(os, "sched_getaffinity"):
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert _dump_json(build_report(builtin_map("paper-example"), budgets)) == serial
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            assert _dump_json(build_report(builtin_map("paper-example"), budgets)) == serial
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_bad_config_exit_code(tmp_path):
    assert main(["analyze", "--map", str(tmp_path / "missing.json")]) == EXIT_BAD_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--map", str(bad)]) == EXIT_BAD_CONFIG


BROKEN_MAP = {
    "name": "broken",
    "c": 0.5,
    "left": {"kind": "polynomial", "coefficients": [0.1, 3.4, -3.4]},
    "right": {"kind": "polynomial", "coefficients": [1.0, -4.0, 4.0]},
}


def test_invalid_map_exit_code(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(BROKEN_MAP))
    out = tmp_path / "rep.json"
    rc = main(["analyze", "--map", str(cfg), "--out", str(out)])
    assert rc == EXIT_INVALID_MAP
    assert "error" in json.loads(out.read_text())


def test_overflowing_map_is_refused_without_numpy_warnings(tmp_path):
    # coefficients near the float limit overflow in the derivative kernels
    # and the sampled values; validation reports the failed conditions and
    # numpy says nothing on stderr
    config = {
        "c": 0.5,
        "left": {"kind": "polynomial", "coefficients": [0.0, 1.7e308, 1.7e308]},
        "right": {"kind": "quadratic_logistic", "a": 4.0},
    }
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--map", str(cfg), "--out", str(out)]) == EXIT_INVALID_MAP
    assert json.loads(out.read_text())["error"] == "map failed validation"


# f(x) = x on the left branch: not a Lorenz map
IDENTITY_LEFT_MAP = {
    **BROKEN_MAP,
    "name": "identity-left",
    "left": {"kind": "polynomial", "coefficients": [0.0, 1.0]},
}
# branches that leave [0, 1] at c: f(c-) = 1.125 and f(c+) = -0.125
# (logistic4.5-embed), and f(c-) = 1.2 and f(c+) = -0.2
OVERSHOOTING_MAPS = (
    {
        "c": 0.5,
        "left": {"kind": "polynomial", "coefficients": [0.0, 4.5, -4.5]},
        "right": {"kind": "polynomial", "coefficients": [1.0, -4.5, 4.5]},
    },
    {
        "c": 0.5,
        "left": {"kind": "power_form", "a": 1.2, "alpha": 2.0},
        "right": {"kind": "power_form", "a": 1.2, "alpha": 2.0},
    },
)


def test_one_validation_gate(tmp_path):
    # analyze, classify, decompose and plotdata --kind strata stop at the
    # same check with the same error report, validation included
    commands = (["analyze"], ["classify"], ["decompose"], ["plotdata", "--kind", "strata"])
    for config in (BROKEN_MAP, IDENTITY_LEFT_MAP, *OVERSHOOTING_MAPS):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps(config))
        reports = []
        for command in commands:
            out = tmp_path / f"{command[0]}.json"
            assert main([*command, "--map", str(cfg), "--out", str(out)]) == EXIT_INVALID_MAP
            reports.append(json.loads(out.read_text()))
        assert reports[0]["error"] == "map failed validation"
        assert "validation" in reports[0]
        assert all(r == reports[0] for r in reports)


def test_classify_command(tmp_path):
    out = tmp_path / "cls.json"
    rc = main(["classify", "--map", "logistic4-embed", "--budgets", FAST_BUDGETS, "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["final_class"]["kind"] == "interval_cycle"


def test_returnmap_csv(tmp_path):
    out = tmp_path / "rm.csv"
    lo, hi = 5.0 / 17.0, 12.0 / 17.0
    rc = main(
        ["returnmap", "--map", "logistic3.4-embed", "--interval", f"{lo!r},{hi!r}", "--out", str(out)]
    )
    assert rc == EXIT_OK
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0] == "branch_lo,branch_hi,return_time,image_lo,image_hi,is_full"
    assert len(lines) == 3  # header + the two renormalization branches
    for row in lines[1:]:
        assert row.split(",")[2] == "2"


def test_plotdata_returnmap_matches_returnmap(tmp_path):
    a, b = tmp_path / "rm.csv", tmp_path / "pd.csv"
    common = ["--map", "paper-example", "--interval", "0.3,0.6", "--resolution", "512"]
    assert main(["returnmap", *common, "--out", str(a)]) == EXIT_OK
    assert main(["plotdata", "--kind", "returnmap", *common, "--out", str(b)]) == EXIT_OK
    branch_rows = [l for l in a.read_text().splitlines() if not l.startswith("#")]
    assert len(branch_rows) > 1
    assert b.read_text().splitlines() == branch_rows


@pytest.mark.parametrize(
    "extra",
    [
        ["--resolution", "1"],
        ["--resolution", "0"],
        ["--resolution", str((1 << 22) + 1)],
        ["--horizon", "0"],
        ["--horizon", "-5"],
        ["--horizon", str(10**6 + 1)],
    ],
)
def test_returnmap_rejects_bad_grid_or_horizon(extra):
    for cmd in (["returnmap"], ["plotdata", "--kind", "returnmap"]):
        argv = [*cmd, "--map", "logistic4-embed", "--interval", "0.25,0.8", *extra]
        assert main(argv) == EXIT_BAD_CONFIG


def test_non_integer_budgets_rejected():
    for budgets in ('{"max_period": 8.9}', '{"max_depth": true}', '{"horizon": "1000"}'):
        assert main(["classify", "--map", "paper-example", "--budgets", budgets]) == EXIT_BAD_CONFIG


def test_orbit_csv(tmp_path):
    out = tmp_path / "orb.csv"
    rc = main(["orbit", "--map", "paper-example", "--x0", "0.3", "--steps", "10", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "k,x,side,logDf,itin_bit"
    assert len(lines) == 12
    k, x, side, logdf, bit = lines[1].split(",")
    assert (k, x, side, bit) == ("0", "0.3", "none", "0")


def test_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(
        [
            "scan",
            "--a-left",
            "3.4:4.0",
            "--a-right",
            "3.4:4.0",
            "--steps",
            "2",
            "--budgets",
            FAST_BUDGETS,
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    rows = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
    assert all(r[-1] == "ok" for r in rows.values())
    assert rows[("3.4", "4.0")][2] == "periodic_attractor"
    assert rows[("4.0", "4.0")][2] == "interval_cycle"
    assert rows[("3.4", "3.4")][2] == "periodic_attractor"


def test_scan_rejects_out_of_range():
    assert main(["scan", "--a-left", "1.0:4.0", "--a-right", "3.4:4.0"]) == EXIT_BAD_CONFIG


def test_plotdata_cobweb(tmp_path):
    out = tmp_path / "cw.csv"
    rc = main(
        ["plotdata", "--map", "paper-example", "--kind", "cobweb", "--x0", "0.3", "--steps", "50", "--out", str(out)]
    )
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "x_k,x_k1"
    assert len(lines) == 51  # header + one pair per step
    # converging staircase: late pairs alternate across the 2-cycle
    last = [float(v) for v in lines[-1].split(",")]
    assert sorted(last) == pytest.approx([0.48880830755049054, 0.849574136468393], abs=1e-6)


def test_plotdata_strata(tmp_path):
    out = tmp_path / "st.csv"
    rc = main(
        ["plotdata", "--map", "logistic3.4-embed", "--kind", "strata", "--budgets", FAST_BUDGETS, "--out", str(out)]
    )
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "n,lo,hi,tag"
    k_rows = [l for l in lines[1:] if l.endswith(",K")]
    # one K row per trapping-region component per stratum
    assert len(k_rows) >= 3


def test_embed_unimodal_command(tmp_path, capsys):
    rc = main(["embed-unimodal", "--logistic", "3.4"])
    assert rc == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["left"]["coefficients"] == [0.0, 3.4, -3.4]
    assert rep["right"]["coefficients"] == [1.0, -3.4, 3.4]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_embed_unimodal_refuses_non_finite(capsys, value):
    # refused before any array is evaluated: no numpy warning, no output
    assert main(["embed-unimodal", f"--logistic={value}"]) == EXIT_BAD_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "finite" in err and "Warning" not in err


def test_scan_cell_records_exception_type(monkeypatch):
    from lorenzlab import cli
    from lorenzlab.map_core import quadratic_pair
    from lorenzlab.spectral import Analysis, Budgets

    def broken(*args, **kwargs):
        raise ValueError("probe failed")

    monkeypatch.setattr(cli, "classify_attractor", broken)
    row = cli._scan_cell(3.5, 4.0, Analysis(quadratic_pair(3.5, 4.0), Budgets()))
    assert row["status"] == "error: ValueError: probe failed"
    assert (row["a_left"], row["a_right"], row["final_class"]) == (3.5, 4.0, "")


# one cell per (class, n_f) of the 10 x 10 grid np.linspace(3, 4, 10) on
# [3, 4]^2, as (a_left index, a_right index, class, n_f)
SCAN_CLASSES = [
    (9, 9, "interval_cycle", 0),
    (6, 6, "interval_cycle", 2),
    (3, 3, "periodic_attractor", 3),
    (4, 5, "cherry", 2),
    (5, 5, "cantor_chaotic_heuristic", 4),
]


@pytest.mark.parametrize("i, j, kind, n_f", SCAN_CLASSES)
def test_scan_cell_matches_decompose(i, j, kind, n_f):
    from lorenzlab import cli
    from lorenzlab.map_core import quadratic_pair
    from lorenzlab.spectral import Analysis, Budgets, decompose

    # below the default budgets, and every cell keeps its class and n_f
    budgets = Budgets(max_period=8, horizon=1000, recurrence_resolution=256)
    a_left, a_right = (float(v) for v in np.linspace(3, 4, 10)[[i, j]])
    row = cli._scan_cell(a_left, a_right, Analysis(quadratic_pair(a_left, a_right), budgets))
    dec = decompose(Analysis(quadratic_pair(a_left, a_right), budgets))
    assert row["status"] == "ok"
    assert (row["final_class"], row["n_f"]) == (dec.final_class.kind, dec.n_f) == (kind, n_f)


def test_scan_rows_in_input_order(tmp_path):
    out = tmp_path / "scan.csv"
    argv = ["scan", "--a-left", "3.5:4.0", "--a-right", "3.5:4.0", "--steps", "2"]
    assert main(argv + ["--budgets", FAST_BUDGETS, "--out", str(out)]) == EXIT_OK
    cells = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
    assert cells == [["3.5", "3.5"], ["3.5", "4.0"], ["4.0", "3.5"], ["4.0", "4.0"]]


BUDGET_LIMITS = {
    "horizon": 10**6,
    "grid_resolution": 1 << 22,
    "recurrence_resolution": 1 << 16,
    "probe_resolution": 1 << 16,
    "samples": 10**6,
    "max_period": 20,
}


@pytest.mark.parametrize("field", sorted(BUDGET_LIMITS))
def test_budget_caps(tmp_path, field):
    # the map fails validation after the budgets are read, so a budget at
    # its cap gets as far as the map check (exit 3) without running a probe
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(BROKEN_MAP))
    limit = BUDGET_LIMITS[field]
    at_cap = json.dumps({field: limit})
    assert main(["classify", "--map", str(cfg), "--budgets", at_cap]) == EXIT_INVALID_MAP
    over = json.dumps({field: limit + 1})
    assert main(["classify", "--map", str(cfg), "--budgets", over]) == EXIT_BAD_CONFIG
    assert main(["classify", "--map", "paper-example", "--budgets", over]) == EXIT_BAD_CONFIG


def test_report_is_strict_json_with_non_finite_paths(tmp_path, monkeypatch):
    from lorenzlab import cli
    from lorenzlab.orbits import LyapunovEstimate

    def nan_lyapunov(spec, orbit, n):
        return LyapunovEstimate(math.nan, [math.nan], n)

    monkeypatch.setattr(cli, "lyapunov", nan_lyapunov)
    out = tmp_path / "rep.json"
    rc = main(["analyze", "--map", "paper-example", "--budgets", FAST_BUDGETS, "--out", str(out)])
    assert rc == EXIT_OK

    def no_constants(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rep = json.loads(out.read_text(), parse_constant=no_constants)
    assert rep["non_finite"] == [f"/lyapunov_samples/{i}/value" for i in range(3)]
    assert all(s["value"] is None for s in rep["lyapunov_samples"])
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res

    schema = json.loads(
        res.files("lorenzlab").joinpath("schemas/map_report.schema.json").read_text()
    )
    jsonschema.validate(rep, schema)


def _schema_valid_report(spec) -> dict:
    """build_report of spec at FAST_BUDGETS, checked against the schema."""
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res

    from lorenzlab.cli import build_report
    from lorenzlab.spectral import Budgets

    rep = json.loads(_dump_json(build_report(spec, Budgets(**json.loads(FAST_BUDGETS)))))
    schema = json.loads(res.files("lorenzlab").joinpath("schemas/map_report.schema.json").read_text())
    jsonschema.validate(rep, schema)
    return rep


def _fails(*args, **kwargs):
    raise ValueError("stage failed")


def test_failed_trapping_probe_falls_back_to_J(monkeypatch):
    from lorenzlab import builtin_map, spectral

    monkeypatch.setattr(spectral, "trapping_region", _fails)
    rep = _schema_valid_report(builtin_map("logistic3.4-embed"))
    # the chain: the renormalization interval (5/17, 12/17) and j_max
    renorm = rep["renorm"]
    chain = [(r["a"], r["b"]) for r in (*renorm["chain"], renorm["j_max"])]
    assert [n for n in rep["decomposition"]["notes"] if "invariance probe" in n] == [
        f"trapping region of {J} failed its invariance probe: stage failed" for J in chain
    ]
    # so the K_n of each chain level is its interval J
    assert [s["K_n"] for s in rep["decomposition"]["strata"]] == [[[0.0, 1.0]]] + [[list(J)] for J in chain]


def test_failed_rotation_probe_is_evidence(monkeypatch):
    from lorenzlab import quadratic_pair, spectral

    spec = quadratic_pair(3.2222222222222223, 3.4444444444444446)
    assert _schema_valid_report(spec)["decomposition"]["final_class"]["kind"] == "cherry"
    monkeypatch.setattr(spectral, "rotation_number", _fails)
    evidence = _schema_valid_report(spec)["decomposition"]["final_class"]["evidence"]
    assert evidence["rotation_probe_error"] == "stage failed"
    assert "rotation_estimate" not in evidence


def test_failed_block_decomposition_is_a_stratum_note(monkeypatch):
    from lorenzlab import builtin_map, spectral

    monkeypatch.setattr(spectral, "stratum_blocks", _fails)
    strata = _schema_valid_report(builtin_map("logistic3.4-embed"))["decomposition"]["strata"]
    assert [s["notes"] for s in strata] == [["block decomposition unavailable: stage failed"]] * 2 + [[]]
    assert all(s["block_decomposition"] is None for s in strata)


def test_finite_reports_have_no_non_finite_key():
    from lorenzlab.cli import _dump_json

    assert "non_finite" not in json.loads(_dump_json({"a": [1.0, 2], "b": {"c": -0.0}}))
    text = _dump_json({"a/b": [1.0, math.inf], "c~": {"d": -math.inf}, "e": (math.nan,)})
    assert json.loads(text)["non_finite"] == ["/a~1b/1", "/c~0/d", "/e/0"]


def test_unread_flags_rejected():
    # each command takes --budgets and --seed only where it reads them
    common = {
        "returnmap": ["--map", "paper-example", "--interval", "0.4,0.6"],
        "orbit": ["--map", "paper-example", "--x0", "0.3"],
        "plotdata": ["--map", "paper-example", "--kind", "cobweb", "--x0", "0.3"],
        "scan": ["--a-left", "3.5:4.0", "--a-right", "3.5:4.0", "--steps", "1"],
    }
    common["classify"] = common["decompose"] = ["--map", "paper-example"]
    unread = [("returnmap", "--budgets", "{}"), ("returnmap", "--seed", "1"), ("orbit", "--budgets", "{}"),
              ("orbit", "--seed", "1"), ("plotdata", "--seed", "1"), ("scan", "--seed", "1"),
              ("classify", "--seed", "1"), ("decompose", "--seed", "1")]  # fmt: skip
    for cmd, flag, value in unread:
        assert main([cmd, *common[cmd], flag, value]) == EXIT_BAD_CONFIG, (cmd, flag)


@pytest.mark.parametrize("budgets", ["[1]", "5", "null", '"x"'])
def test_budgets_must_be_a_json_object(budgets, capsys):
    assert main(["classify", "--map", "paper-example", "--budgets", budgets]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


SCAN = ["scan", "--a-left", "3.5:4.0", "--a-right", "3.5:4.0"]
ORBIT = ["orbit", "--map", "paper-example", "--x0", "0.3"]
COBWEB = ["plotdata", "--map", "paper-example", "--kind", "cobweb", "--x0", "0.3"]
PHOBIC = ["plotdata", "--map", "paper-example", "--kind", "phobic", "--interval", "0.4,0.6"]


def test_scan_runs_no_stratum_probe(tmp_path, monkeypatch):
    # a row prints the class and n_f: one catalog per cell, all four from
    # one root stage, and no decomposition, block or transitivity probe;
    # the calls are counted in this process, so the cells run inline
    from lorenzlab import cli, periodic, spectral

    monkeypatch.setattr(cli, "_can_fork", lambda: False)
    calls = dict.fromkeys(["decompose", "stratum_blocks", "_coverage_probe", "_grid_roots", "_catalog"], 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    stages = {spectral: ["decompose", "stratum_blocks", "_coverage_probe"], periodic: ["_grid_roots", "_catalog"]}
    for mod, names in stages.items():
        for name in names:
            monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    monkeypatch.setattr(cli, "decompose", spectral.decompose)
    argv = [*SCAN, "--steps", "2", "--budgets", FAST_BUDGETS, "--out", str(tmp_path / "scan.csv")]
    assert main(argv) == EXIT_OK
    assert calls == {"decompose": 0, "stratum_blocks": 0, "_coverage_probe": 0, "_grid_roots": 1, "_catalog": 4}


def _inline_bytes(monkeypatch, argv, out) -> bytes:
    """The output of argv with _can_fork forced false."""
    from lorenzlab import cli

    with monkeypatch.context() as m:
        m.setattr(cli, "_can_fork", lambda: False)
        assert main([*argv, "--out", str(out)]) == EXIT_OK
    return out.read_bytes()


def test_forked_scan_rows_in_input_order(tmp_path, monkeypatch):
    # 36 cells: each half of the strided split runs two blocks, and the
    # rows come back interleaved in input order
    argv = [*SCAN, "--steps", "6", "--budgets", FAST_BUDGETS]
    serial = _inline_bytes(monkeypatch, argv, tmp_path / "serial.csv")
    pids = _forks(monkeypatch)
    out = tmp_path / "scan.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert len(pids) == 1
    _no_child_left()
    assert out.read_bytes() == serial
    grid = [repr(float(v)) for v in np.linspace(3.5, 4.0, 6)]
    assert [line.split(",")[:2] for line in out.read_text().splitlines()[1:]] == [[l, r] for l in grid for r in grid]


@pytest.mark.parametrize("failure", ["exit-1", "short-payload"])
def test_failed_scan_child_is_answered_inline(tmp_path, monkeypatch, failure):
    # the child computes wrong rows, then exits 1 or sends all but the last
    # byte of their pickle: the parent computes the odd cells itself
    import pickle

    from lorenzlab import cli

    argv = [*SCAN, "--steps", "2", "--budgets", FAST_BUDGETS]
    serial = _inline_bytes(monkeypatch, argv, tmp_path / "serial.csv")
    parent, rows, dumps, real_exit = os.getpid(), cli._scan_rows, pickle.dumps, os._exit

    def wrong_in_child(cells, budgets):
        return [dict(r, status="wrong") for r in rows(cells, budgets)] if os.getpid() != parent else rows(cells, budgets)

    monkeypatch.setattr(cli, "_scan_rows", wrong_in_child)
    if failure == "exit-1":
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(1))
    else:
        monkeypatch.setattr(pickle, "dumps", lambda *args: dumps(*args)[:-1])
    pids = _forks(monkeypatch)
    out = tmp_path / "scan.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert len(pids) == 1
    _no_child_left()
    assert out.read_bytes() == serial


@pytest.mark.parametrize(
    "command, failure", [("scan", "pipe"), ("analyze", "pipe"), ("scan", "fork")], ids=lambda v: v
)
def test_failed_pipe_or_fork_runs_inline(tmp_path, monkeypatch, command, failure):
    # no pipe (EMFILE) or no process (EAGAIN) to spare is no config error:
    # the child's work runs in this process and the output is the serial one
    from lorenzlab import cli

    argv = [*SCAN, "--steps", "2"] if command == "scan" else ["analyze", "--map", "paper-example"]
    argv += ["--budgets", FAST_BUDGETS]
    serial = _inline_bytes(monkeypatch, argv, tmp_path / "serial")
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None

    def no_pipe():
        raise OSError(24, "Too many open files")

    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(cli, "_can_fork", lambda: True)
    if failure == "pipe":
        monkeypatch.setattr(os, "pipe", no_pipe)
    monkeypatch.setattr(os, "fork", no_process, raising=False)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == serial
    # the pipe is closed
    assert fds is None or len(os.listdir("/proc/self/fd")) == len(fds)


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_forked_scan_leaves_no_child(tmp_path, monkeypatch, error):
    # a cell of this process's half raises while the child runs: the child
    # is killed and reaped
    from lorenzlab import cli

    parent, real = os.getpid(), cli._scan_cell

    def fails_in_parent(*args):
        if os.getpid() == parent:
            raise error("cell failed")
        return real(*args)

    monkeypatch.setattr(cli, "_scan_cell", fails_in_parent)
    pids = _forks(monkeypatch)
    argv = [*SCAN, "--steps", "3", "--budgets", FAST_BUDGETS, "--out", str(tmp_path / "scan.csv")]
    if error is ValueError:
        assert main(argv) == EXIT_INTERNAL
    else:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    assert len(pids) == 1
    _no_child_left()


def test_one_cell_scan_never_forks(tmp_path, monkeypatch):
    from lorenzlab import cli

    def no_fork():
        pytest.fail("os.fork was called")

    monkeypatch.setattr(cli, "_can_fork", lambda: True)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--a-left", "3.5:3.5", "--a-right", "3.5:3.5", "--steps", "1", "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[1].endswith(",ok")


@pytest.mark.parametrize(
    "argv", [[*SCAN, "--steps", "2"], ["analyze", "--map", "paper-example"]], ids=["scan", "analyze"]
)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_refused_before_any_work(tmp_path, monkeypatch, capsys, argv, where):
    # a missing directory or a directory as --out exits 2 up front: no
    # cell runs and no report is built
    from lorenzlab import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "_scan_block", no_work)
    monkeypatch.setattr(cli, "build_report", no_work)
    out = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
    assert main([*argv, "--out", str(out)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: --out") and "Traceback" not in err


def test_internal_error_exit_code(monkeypatch, capsys):
    # a ValueError from a stage, after every input check passed, is not a
    # config error
    from lorenzlab import cli

    def broken(a):
        raise ValueError("probe failed")

    monkeypatch.setattr(cli, "classify_attractor", broken)
    assert main(["classify", "--map", "paper-example"]) == EXIT_INTERNAL
    assert "probe failed" in capsys.readouterr().err


# malformed or out-of-range values of --interval, --a-left and --x0 (the
# [:-1] commands end with that flag)
@pytest.mark.parametrize(
    "argv",
    [
        ["returnmap", "--map", "paper-example", "--interval", "0.3"],
        ["returnmap", "--map", "paper-example", "--interval", "0.6,0.3"],
        ["returnmap", "--map", "paper-example", "--interval", "0.1,0.2"],
        ["plotdata", "--map", "paper-example", "--kind", "returnmap", "--interval", "0.3,x"],
        [*PHOBIC[:-1], "0.1,0.2"],
        ["scan", "--a-left", "3.5-4.0", "--a-right", "3.5:4.0"],
        [*ORBIT[:-1], "1.5"],
        [*COBWEB[:-1], "-0.1"],
        # interval ends outside [0, 1], the map's domain
        ["returnmap", "--map", "paper-example", "--interval=-0.5,0.6", "--horizon", "50", "--resolution", "64"],
        ["plotdata", "--map", "paper-example", "--kind", "returnmap", "--interval=-3,-1"],
        [*PHOBIC[:-1], "0.4,1.5"],
        # a method of Budgets is not a budget field
        ["classify", "--map", "paper-example", "--budgets", '{"to_dict": 5}'],
        ["scan", "--a-left", "3:3", "--a-right", "3:3", "--steps", "1", "--budgets", '{"from_dict": 1}'],
    ],
)
def test_malformed_inputs_are_config_errors(argv):
    assert main(argv) == EXIT_BAD_CONFIG


def load_map_text(path, config: dict):
    path.write_text(json.dumps(config))
    return load_map(str(path))


def test_malformed_map_config_is_a_config_error(tmp_path):
    # a numeric field must be a finite JSON number: a numeric string, a bool,
    # NaN or an infinity is not coerced, and an integer beyond any float fails
    cfg = tmp_path / "m.json"
    for bad in ({"c": "half"}, {"c": "0.5"}, {"tolerance": True}, {"tolerance": "1e-10"}, {"c": 10**400}):
        cfg.write_text(json.dumps({**BROKEN_MAP, **bad}))
        assert main(["analyze", "--map", str(cfg)]) == EXIT_BAD_CONFIG, bad
    # the name is a string, as the report schema has it
    for bad in ({"name": 5}, {"name": None}, {"name": True}, {"name": ["a"]}):
        cfg.write_text(json.dumps({**BROKEN_MAP, **bad}))
        assert main(["analyze", "--map", str(cfg)]) == EXIT_BAD_CONFIG, bad
    # a key that nothing reads, misspelled or not read by the branch kind
    good = {"c": 0.5, "left": {"kind": "quadratic_logistic", "a": 3.4}, "right": {"kind": "quadratic_logistic", "a": 4.0}}
    poly = {"kind": "polynomial", "coefficients": [0.0, 3.4, -3.4]}
    power = {"kind": "power_form", "a": 0.9, "alpha": 2.0}
    for bad in (
        {"tolerence": 1e-6},
        {"left": {**good["left"], "alpha_typo": 2.0}},
        {"left": {**good["left"], "coefficients": [0.0, 3.4, -3.4]}},
        {"left": {**good["left"], "alpha": 2.0}},
        {"left": {**poly, "a": 3.4}},
        {"left": {**poly, "alpha": 2.0}},
        {"right": {**power, "coefficients": [1.0]}},
        {"right": {"kind": "quadratic_logistic", "a": math.nan}},
        {"right": {**power, "alpha": math.inf}},
        {"left": {"kind": "polynomial", "coefficients": [0.0, -math.inf]}},
    ):
        cfg.write_text(json.dumps({**good, **bad}))
        assert main(["classify", "--map", str(cfg)]) == EXIT_BAD_CONFIG, bad
    # the keys each kind reads load, and so does every to_dict output
    from lorenzlab import builtin_map, embed_unimodal, logistic

    loaded = [load_map_text(cfg, {**good, "left": branch}) for branch in (poly, power)]
    assert [spec.left.kind for spec in loaded] == ["polynomial", "power_form"]
    for spec in (builtin_map("paper-example"), embed_unimodal(logistic(3.6)), *loaded):
        assert load_map_text(cfg, spec.to_dict()) == spec


# any float (NaN and the infinities included, which the JSON reader
# accepts), small ones, and the edge values of the config rules
NUMBER = st.one_of(st.floats(), st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1e-10, 0.5, 1.0, 2.0]))
BRANCH = st.one_of(
    st.fixed_dictionaries({"kind": st.just("polynomial"), "coefficients": st.lists(NUMBER, min_size=1, max_size=5)}),
    st.fixed_dictionaries({"kind": st.just("quadratic_logistic"), "a": NUMBER}),
    st.fixed_dictionaries({"kind": st.just("power_form"), "a": NUMBER, "alpha": NUMBER}),
)
NAME = st.one_of(st.text(max_size=8), st.none(), st.booleans(), NUMBER, st.lists(st.text(max_size=2), max_size=2))
MAP_CONFIG = st.fixed_dictionaries(
    {"c": NUMBER, "left": BRANCH, "right": BRANCH}, optional={"name": NAME, "tolerance": NUMBER}
)


@settings(max_examples=300, deadline=None)
@given(MAP_CONFIG)
def test_accepted_map_configs_give_schema_valid_reports(tmp_path_factory, config):
    # the report head of every config load_map accepts validates
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res

    try:
        spec = load_map_text(tmp_path_factory.getbasetemp() / "map_config.json", config)
    except MapValidationError:
        return
    schema = json.loads(res.files("lorenzlab").joinpath("schemas/map_report.schema.json").read_text())
    jsonschema.validate(json.loads(_dump_json(_validated(spec))), schema)


@pytest.mark.parametrize(
    "argv",
    [
        [*SCAN, "--steps", "0"],
        [*SCAN, "--steps", "1025"],
        [*ORBIT, "--steps", "-1"],
        [*ORBIT, "--steps", str(MAX_HORIZON + 1)],
        [*COBWEB, "--steps", "-1"],
        [*COBWEB, "--steps", str(MAX_HORIZON + 1)],
        [*PHOBIC, "--resolution", "1"],
        [*PHOBIC, "--resolution", str(MAX_RESOLUTION + 1)],
    ],
)
def test_integer_flags_out_of_range(tmp_path, argv, capsys):
    # rejected while the arguments are parsed: no work, no output file
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert not out.exists()
    assert "must lie in" in capsys.readouterr().err


def test_integer_flags_at_lower_bounds(tmp_path):
    out = tmp_path / "out.csv"
    assert main([*ORBIT, "--steps", "0", "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 2
    assert main([*PHOBIC, "--steps", "0", "--resolution", "2", "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[0] == "cell_index,cell_lo,cell_hi"


def _csv_rows(path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_orbit_itin_bit_follows_itinerary(tmp_path):
    from lorenzlab import builtin_map, itinerary
    from lorenzlab.map_core import Side

    out = tmp_path / "orb.csv"
    # a directed start within tolerance of c takes the branch of its side
    for x0, side, bit in (("0.49999999999", "plus", "1"), ("0.50000000001", "minus", "0")):
        assert main([*ORBIT[:-1], x0, "--side", side, "--steps", "4", "--out", str(out)]) == EXIT_OK
        assert _csv_rows(out)[0][4] == bit
    rng = np.random.default_rng(8)
    for name in ("paper-example", "logistic4-embed"):
        spec = builtin_map(name)
        # c without a side is an undirected landing: its row has no bit
        for x0 in [spec.c, *rng.uniform(0.0, 1.0, 4)]:
            for side in ("none", "minus", "plus"):
                argv = ["orbit", "--map", name, "--x0", repr(float(x0)), "--side", side, "--steps", "60"]
                assert main([*argv, "--out", str(out)]) == EXIT_OK
                rows = _csv_rows(out)
                word = itinerary(spec, float(x0), Side(side), len(rows)).word
                assert "".join(row[4] for row in rows) == word


@pytest.mark.parametrize(
    "branch",
    [
        {"kind": "quadratic_logistic", "a": "x"},
        {"kind": "quadratic_logistic", "a": [3.4]},
        {"kind": "quadratic_logistic", "a": True},
        {"kind": "power_form", "a": 0.9, "alpha": "2"},
        {"kind": "polynomial", "coefficients": "034"},
        {"kind": "polynomial", "coefficients": [True, -4, 4]},
    ],
)
def test_non_numeric_branch_parameters_are_config_errors(tmp_path, capsys, branch):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"c": 0.5, "left": branch, "right": {"kind": "quadratic_logistic", "a": 4.0}}))
    assert main(["classify", "--map", str(cfg)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_plotdata_limitset_rows_are_the_omega_limit_cells(tmp_path):
    from lorenzlab import builtin_map, estimate_omega_limit

    out = tmp_path / "ls.csv"
    argv = ["plotdata", "--map", "logistic4-embed", "--kind", "limitset", "--x0", "0.3", "--steps", "500"]
    assert main([*argv, "--resolution", "256", "--out", str(out)]) == EXIT_OK
    est = estimate_omega_limit(builtin_map("logistic4-embed"), 0.3, 500, 256)
    w = 1.0 / 256
    assert len(est.cells) > 1
    assert out.read_text().splitlines()[0] == "cell_index,cell_lo,cell_hi"
    assert _csv_rows(out) == [[str(c), repr(c * w), repr((c + 1) * w)] for c in est.cells]


def test_plotdata_phobic_rows_are_the_surviving_cells(tmp_path):
    from lorenzlab import builtin_map, phobic_measure

    out = tmp_path / "ph.csv"
    argv = ["plotdata", "--map", "logistic4-embed", "--kind", "phobic", "--interval", "0.4,0.6", "--steps", "8"]
    assert main([*argv, "--resolution", "4096", "--out", str(out)]) == EXIT_OK
    est = phobic_measure(builtin_map("logistic4-embed"), (0.4, 0.6), 8, 4096)
    w = 1.0 / 4096
    assert 0 < len(est.surviving_cells) < 4096
    assert out.read_text().splitlines()[0] == "cell_index,cell_lo,cell_hi"
    assert _csv_rows(out) == [[str(c), repr(c * w), repr((c + 1) * w)] for c in est.surviving_cells]


@pytest.mark.parametrize(
    ("command", "message"),
    [("analyze", "must lie in"), ("classify", "unrecognized arguments: --seed"),
     ("decompose", "unrecognized arguments: --seed")],  # fmt: skip
    ids=["analyze", "classify", "decompose"],
)
def test_negative_seed_rejected_at_parse_time(tmp_path, monkeypatch, capsys, command, message):
    # analyze range-checks --seed; classify and decompose read no seed and refuse the flag
    from lorenzlab import cli

    def no_work(*args, **kwargs):
        raise AssertionError("a stage ran with a negative seed")

    monkeypatch.setattr(cli, "Analysis", no_work)
    out = tmp_path / "out.json"
    assert main([command, "--map", "paper-example", "--seed", "-3", "--out", str(out)]) == EXIT_BAD_CONFIG
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_scan_error_row_keeps_six_columns(tmp_path, monkeypatch):
    import csv

    from lorenzlab import cli

    def broken(a, *, kind_only):
        raise ValueError("orbits (0.1, 0.2), (0.3, 0.4) did not close")

    monkeypatch.setattr(cli, "classify_attractor", broken)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--a-left", "3.5:3.5", "--a-right", "3.5:3.5", "--steps", "1", "--out", str(out)]) == EXIT_OK
    with open(out, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["a_left", "a_right", "final_class", "n_f", "lyapunov", "status"]
    assert [list(r) for r in rows] == [reader.fieldnames]
    assert rows[0]["status"] == "error: ValueError: orbits (0.1, 0.2), (0.3, 0.4) did not close"
    assert (rows[0]["final_class"], rows[0]["n_f"], rows[0]["lyapunov"]) == ("", "", "")


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1e-10, 0.0, -0.0])
def test_bad_tolerance_is_a_config_error(tmp_path, capsys, tolerance):
    # rejected when the config is read, before the validation grid runs
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({**BROKEN_MAP, "tolerance": tolerance}))
    assert main(["analyze", "--map", str(cfg)]) == EXIT_BAD_CONFIG
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", [1e-3, 0.49])
def test_tolerance_in_range_is_accepted(tmp_path, tolerance):
    from lorenzlab.map_core import load_map

    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({**BROKEN_MAP, "tolerance": tolerance}))
    assert load_map(str(cfg)).tolerance == tolerance


def test_budgets_read_from_a_file(tmp_path):
    # --budgets names a file: its JSON gives the same report as the inline text
    path = tmp_path / "budgets.json"
    path.write_text(FAST_BUDGETS)
    inline, from_file = tmp_path / "inline.json", tmp_path / "file.json"
    assert main(["analyze", "--map", "paper-example", "--budgets", FAST_BUDGETS, "--out", str(inline)]) == EXIT_OK
    assert main(["analyze", "--map", "paper-example", "--budgets", str(path), "--out", str(from_file)]) == EXIT_OK
    assert from_file.read_bytes() == inline.read_bytes()


@pytest.mark.parametrize(
    ("budgets", "message"),
    [('{"horizon": 0}', "must be positive"), ('{"seed": -1}', "seed must be non-negative"),
     ('{"sed": 1}', "unknown budget field"), ('{"to_dict": 5}', "unknown budget field")],  # fmt: skip
    ids=["zero-horizon", "negative-seed", "unknown-key", "method-name"],
)
def test_bad_budget_values_are_config_errors(tmp_path, capsys, budgets, message):
    out = tmp_path / "rep.json"
    assert main(["analyze", "--map", "paper-example", "--budgets", budgets, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    ("kind", "needs"),
    [("cobweb", "--x0"), ("limitset", "--x0"), ("returnmap", "--interval"), ("phobic", "--interval")],
)
def test_plotdata_kind_without_its_input_is_a_config_error(tmp_path, capsys, kind, needs):
    out = tmp_path / "plot.csv"
    assert main(["plotdata", "--map", "paper-example", "--kind", kind, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert not out.exists()
    assert needs in capsys.readouterr().err
