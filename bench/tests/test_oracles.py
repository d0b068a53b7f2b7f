"""Each oracle accepts the right answer and rejects a deliberately wrong
one; two traced runs of one input give identical counts.

    python3 -m pytest bench/tests -q
"""

import csv
import math
from fractions import Fraction as F

import oracles
import pytest
import tracing
from lorenzlab import builtin_map, cli, find_periodic_points, first_return_map


def doubling_catalog(max_period):
    out = []
    for n, cycles in oracles.expected_cycles(max_period).items():
        q = 2**n - 1
        for ks in sorted(cycles):
            out.append({"period": n, "points": [math.sin(math.pi * k / (2 * q)) ** 2 for k in ks]})
    return out


def test_orbit_counts_match_enumeration():
    cycles = oracles.expected_cycles(12)
    assert [len(cycles[n]) for n in range(1, 13)] == [oracles.orbit_count(n) for n in range(1, 13)]
    assert oracles.orbit_count(12) == 335


def test_catalog_check_rejects_a_missing_orbit():
    catalog = doubling_catalog(12)
    assert oracles.check_doubling_catalog(catalog, 12) == []
    missing = [o for o in catalog if o is not next(o for o in catalog if o["period"] == 12)]
    assert oracles.check_doubling_catalog(missing, 12)
    assert oracles.missing_orbits(missing, 12) == 1
    assert oracles.check_doubling_catalog(catalog + catalog[-1:], 12)


def test_catalog_check_accepts_the_program_catalog():
    spec = builtin_map("logistic4-embed")
    catalog = [r.to_dict() for r in find_periodic_points(spec, 6)]
    assert oracles.check_doubling_catalog(catalog, 6) == []


def test_two_cycle_check_rejects_a_shifted_cycle():
    p, q, mult = cycle = oracles.paper_example_two_cycle()
    program = [r.to_dict() for r in find_periodic_points(builtin_map("paper-example"), 4)]
    assert oracles.check_two_cycle(program, cycle) == []
    shifted = [{"period": 2, "points": [p + 2e-8, q], "multiplier": mult, "kind": "attracting"}]
    assert oracles.check_two_cycle(shifted, cycle)
    assert oracles.check_two_cycle([dict(shifted[0], points=[p, q])], cycle) == []


@pytest.mark.parametrize(
    "name, J_s, J",
    [
        ("logistic4-embed", (F(8, 31), F(16, 31)), None),
        ("paper-example", None, (0.40080719415817356, 0.8165466767153675)),
    ],
)
def test_return_map_check_rejects_a_return_time_off_by_one(name, J_s, J):
    if J_s is not None:
        J = (oracles.s_to_x(J_s[0]), oracles.s_to_x(J_s[1]))
    rec = first_return_map(builtin_map(name), J, 1000, 4096)
    branches = [(b.domain, b.return_time) for b in rec.branches]
    assert oracles.check_return_map(name, J, J_s, branches, 1000) == []
    i = len(branches) // 2
    wrong = branches[:i] + [(branches[i][0], branches[i][1] + 1)] + branches[i + 1 :]
    assert oracles.check_return_map(name, J, J_s, wrong, 1000)


def small_scan(path):
    argv = ["scan", "--a-left", "3.5:4.0", "--a-right", "3.5:4.0", "--steps", "2",
            "--budgets", '{"max_period": 4, "horizon": 1000, "samples": 10000}',
            "--out", str(path)]  # fmt: skip
    assert cli.main(argv) == 0
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_scan_check_rejects_rows_out_of_order(tmp_path):
    cells = [(3.5, 3.5), (3.5, 4.0), (4.0, 3.5), (4.0, 4.0)]
    rows = small_scan(tmp_path / "scan.csv")
    assert all(oracles.check_scan_rows(rows, cells))
    assert not all(oracles.check_scan_rows(rows[::-1], cells))
    assert not all(oracles.check_scan_rows([dict(rows[3], n_f="2")] + rows[1:], cells))


def test_two_traced_runs_give_identical_counts(tmp_path):
    spec = builtin_map("logistic4-embed")
    J = (oracles.s_to_x(F(8, 31)), oracles.s_to_x(F(16, 31)))
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            from lorenzlab import return_maps

            return_maps.first_return_map(spec, J, 1000, 4096)
            small_scan(tmp_path / "scan.csv")
        finally:
            tracer.uninstall()
        runs.append((tracer.counts(), dict(tracer.elements), len(tracer.spans)))
    assert runs[0] == runs[1]
    assert runs[0][0]["map_core.apply_raw"] > 0 and runs[0][0]["cli.cmd_scan"] == 1
    assert return_maps.first_return_map is first_return_map
