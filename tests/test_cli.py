import json
import math

import numpy as np
import pytest

from lorenzlab.cli import EXIT_BAD_CONFIG, EXIT_INTERNAL, EXIT_INVALID_MAP, EXIT_OK, main
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


def test_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        main(["analyze", "--map", "paper-example", "--budgets", FAST_BUDGETS, "--seed", "5", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


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


def test_one_validation_gate(tmp_path):
    # analyze, classify and decompose stop at the same check with the same
    # error report, validation included
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(BROKEN_MAP))
    reports = []
    for command in ("analyze", "classify", "decompose"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--map", str(cfg), "--out", str(out)]) == EXIT_INVALID_MAP
        reports.append(json.loads(out.read_text()))
    assert reports[0]["error"] == "map failed validation"
    assert "validation" in reports[0]
    assert reports[0] == reports[1] == reports[2]


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


def test_scan_cell_records_exception_type(monkeypatch):
    from lorenzlab import cli
    from lorenzlab.spectral import Budgets

    def broken(*args, **kwargs):
        raise ValueError("probe failed")

    monkeypatch.setattr(cli, "classify_attractor", broken)
    row = cli._scan_cell(3.5, 4.0, Budgets())
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
    row = cli._scan_cell(a_left, a_right, budgets)
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

    def nan_lyapunov(spec, x0, n=10_000, tail_windows=10, side=None):
        return LyapunovEstimate(math.nan, [math.nan], n, tail_windows)

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
    unread = [("returnmap", "--budgets", "{}"), ("returnmap", "--seed", "1"), ("orbit", "--budgets", "{}"),
              ("orbit", "--seed", "1"), ("plotdata", "--seed", "1"), ("scan", "--seed", "1")]  # fmt: skip
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
    # a row prints the class and n_f: one catalog per cell, and no
    # decomposition, block or transitivity probe
    from lorenzlab import cli, spectral

    calls = dict.fromkeys(["decompose", "stratum_blocks", "_coverage_probe", "find_periodic_points"], 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(spectral, name, counting(name, getattr(spectral, name)))
    monkeypatch.setattr(cli, "decompose", spectral.decompose)
    argv = [*SCAN, "--steps", "2", "--budgets", FAST_BUDGETS, "--out", str(tmp_path / "scan.csv")]
    assert main(argv) == EXIT_OK
    assert calls == {"decompose": 0, "stratum_blocks": 0, "_coverage_probe": 0, "find_periodic_points": 4}


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
    ],
)
def test_malformed_inputs_are_config_errors(argv):
    assert main(argv) == EXIT_BAD_CONFIG


def test_malformed_map_config_is_a_config_error(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({**BROKEN_MAP, "c": "half"}))
    assert main(["analyze", "--map", str(cfg)]) == EXIT_BAD_CONFIG


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
    est = estimate_omega_limit(builtin_map("logistic4-embed"), 0.3, 1000, 500, 256)
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
