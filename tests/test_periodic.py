import math

import numpy as np
import pytest

from lorenzlab import (
    count_nonrepelling,
    embed_unimodal,
    find_periodic_points,
    laps,
    logistic,
    lyapunov,
    minimal_period_orbit_in,
)
from lorenzlab import periodic
from lorenzlab.periodic import (
    NoPeriodicOrbitFound,
    VariationalPrincipleViolated,
)
from known_points import A3, B3, P_CYCLE, Q_CYCLE


def necklace(n):
    # number of period-n orbits of the full 2-shift
    def mobius(m):
        if m == 1:
            return 1
        cnt, mm = 0, m
        for p in range(2, m + 1):
            if mm % p == 0:
                e = 0
                while mm % p == 0:
                    mm //= p
                    e += 1
                if e > 1:
                    return 0
                cnt += 1
        return -1 if cnt % 2 else 1

    total = sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def bisect_cycle(f, lo, hi):
    # independent root isolation of f(x) = x on a bracket
    glo = f(lo) - lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) - mid > 0) == (glo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_laps_depth_one(ex1):
    ls = laps(ex1, 1)
    assert len(ls) == 2
    assert ls[0].interval == pytest.approx((0.0, 0.5))
    assert ls[1].interval == pytest.approx((0.5, 1.0))


def test_laps_depth_two_boundaries(ex1):
    ls = laps(ex1, 2)
    cuts = sorted({round(v, 9) for l in ls for v in l.interval} - {0.0, 1.0})
    # preimages of c: 3.4x(1-x) = 0.5 and 1-4x(1-x) = 0.5 (closed forms)
    left = (1 - math.sqrt(1 - 2.0 / 3.4 * 1.0)) / 2
    right = (1 + math.sqrt(0.5)) / 2
    assert cuts == pytest.approx([round(left, 9), 0.5, round(right, 9)], abs=1e-8)
    assert len(ls) == 4


def test_laps_cover_interval(ex2):
    ls = laps(ex2, 10)
    total = sum(hi - lo for (lo, hi) in (l.interval for l in ls))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_lap_itinerary_prefix(ex2):
    for lap in laps(ex2, 4):
        assert len(lap.itinerary_prefix) == 4
        assert set(lap.itinerary_prefix) <= {"0", "1"}


def test_paper_pair_catalog(ex1, cat1):
    fixed = [r for r in cat1 if r.period == 1]
    assert sorted(r.points[0] for r in fixed) == pytest.approx([0.0, 1.0])
    mults = sorted(r.multiplier for r in fixed)
    assert mults == pytest.approx([3.4, 4.0])

    two = [r for r in cat1 if r.period == 2]
    assert len(two) == 2
    attract = next(r for r in two if r.kind == "attracting")
    assert attract.points[0] == pytest.approx(P_CYCLE, abs=1e-9)
    assert attract.points[1] == pytest.approx(Q_CYCLE, abs=1e-9)
    assert attract.multiplier == pytest.approx(
        3.4 * (1 - 2 * P_CYCLE) * 4 * (2 * Q_CYCLE - 1), abs=1e-9
    )
    assert abs(attract.multiplier) < 1

    # independent oracle for the repelling companion cycle
    def f2(x):
        y = 3.4 * x * (1 - x)
        return 1 - 4 * y * (1 - y)

    repel = next(r for r in two if r.kind == "repelling")
    oracle = bisect_cycle(f2, 0.35, 0.45)
    assert repel.points[0] == pytest.approx(oracle, abs=1e-9)
    assert abs(repel.multiplier) > 1


def test_embedded_catalog(ex3, cat3):
    two = next(r for r in cat3 if r.period == 2)
    assert two.points == pytest.approx([A3, B3], abs=1e-9)
    assert two.multiplier == pytest.approx(1.96, abs=1e-9)
    assert two.kind == "repelling"

    four = next(r for r in cat3 if r.period == 4)
    a = 3.4
    assert min(four.points) == pytest.approx(
        ((a + 1) - math.sqrt((a + 1) * (a - 3))) / (2 * a) * 1.0, abs=1e-9
    ) or any(
        p == pytest.approx(((a + 1) - math.sqrt((a + 1) * (a - 3))) / (2 * a), abs=1e-9)
        for p in four.points
    )
    assert four.multiplier == pytest.approx((-(a**2) + 2 * a + 4) ** 2, abs=1e-9)
    assert four.kind == "attracting"


def test_full_shift_orbit_counts(ex2, cat2):
    by_period = {}
    for r in cat2:
        by_period[r.period] = by_period.get(r.period, 0) + 1
    for n in range(1, 9):
        assert by_period.get(n, 0) == necklace(n), f"period {n}"
    assert all(r.kind == "repelling" for r in cat2)


def test_orbit_closure_residuals(ex1, ex2, ex3, cat1, cat2, cat3):
    from lorenzlab.map_core import apply_raw, Side

    for spec, cat in ((ex1, cat1), (ex2, cat2), (ex3, cat3)):
        for r in cat:
            if "*" in r.side_word:
                continue
            x = r.points[0]
            for _ in range(r.period):
                x = apply_raw(spec, x, Side.NONE)
            assert abs(x - r.points[0]) <= 10 * spec.tolerance


def test_multiplier_matches_lyapunov(ex1, cat1):
    rec = next(r for r in cat1 if r.kind == "attracting")
    est = lyapunov(ex1, rec.points[0], 10_000)
    assert math.exp(rec.period * est.value) == pytest.approx(abs(rec.multiplier), rel=1e-6)


def test_count_nonrepelling(cat1, cat2, cat3):
    assert count_nonrepelling(cat1) == 1
    assert count_nonrepelling(cat2) == 0
    assert count_nonrepelling(cat3) == 1


def test_neutral_cycle_detection():
    # boundary parameter: the embedded period-2 orbit of the logistic map at
    # a = 3 has multiplier exactly 1
    spec = embed_unimodal(logistic(3.0))
    cat = find_periodic_points(spec, 4)
    neutral = [r for r in cat if r.kind == "neutral"]
    assert len(neutral) == 1
    rec = neutral[0]
    assert rec.period == 2
    assert rec.points == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-6)
    assert abs(rec.multiplier) == pytest.approx(1.0, abs=1e-4)
    assert rec.neutral_attracting_probe is not None


def test_catalog_points_are_floats(cat2):
    # the neutral period-2 orbit of logistic(3.0) is a tangency root, found
    # by ternary search between grid points (np.float64 ends)
    neutral = find_periodic_points(embed_unimodal(logistic(3.0)), 12, 16384)
    assert any(r.kind == "neutral" for r in neutral)
    for catalog in (neutral, cat2):
        assert all(type(p) is float for r in catalog for p in r.points)


def test_minimal_period_orbit(ex1, ex3, cat1, cat3):
    rec = minimal_period_orbit_in(ex3, (A3, B3), catalog=cat3)
    assert rec.period == 2
    assert rec.points == pytest.approx([A3, B3], abs=1e-9)

    rec1 = minimal_period_orbit_in(ex1, (0.45, 0.55), catalog=cat1)
    assert rec1.period == 2
    assert rec1.kind == "attracting"

    # an interval reaching a fixed point returns it at period 1
    rec0 = minimal_period_orbit_in(ex1, (-1e-9, 0.51), catalog=cat1)
    assert rec0.period == 1
    assert rec0.points[0] == pytest.approx(0.0)


def test_minimal_period_tie_is_an_error(ex1, cat1):
    # both period-2 orbits meet (0.4, 0.6); with a periodic attractor
    # around, the uniqueness statement's hypotheses fail and the tie is
    # reported rather than resolved
    with pytest.raises(VariationalPrincipleViolated):
        minimal_period_orbit_in(ex1, (0.4, 0.6), catalog=cat1)


def test_minimal_period_budget_error(ex1, cat1):
    # the catalog's nearest point to c sits ~4.9e-4 away; a narrower window
    # is periodic-point free at this budget
    with pytest.raises(NoPeriodicOrbitFound):
        minimal_period_orbit_in(ex1, (0.4999, 0.5001), catalog=cat1)


def test_singer_bound_small_sweep():
    # negative-Schwarzian pairs carry at most two non-repelling orbits
    for al in (3.0, 3.5, 4.0):
        for ar in (3.0, 3.5, 4.0):
            from lorenzlab import quadratic_pair

            spec = quadratic_pair(al, ar)
            assert count_nonrepelling(find_periodic_points(spec, 8)) <= 2


def test_catalog_work_counts(ex2, monkeypatch):
    # each orbit registered once, f^n stepped from the previous level's grid
    # and collapsed brackets frozen; registering every root made 12,456
    # _directed_cycle calls, 12 _ternary_min calls and 18,222 eval_array
    # calls on 9.36 M elements
    counts = {"_directed_cycle": 0, "_ternary_min": 0, "eval_array": 0, "elements": 0}

    def counted(name):
        fn = getattr(periodic, name)

        def wrapper(*args):
            counts[name] += 1
            if name == "eval_array":
                counts["elements"] += int(np.size(args[1]))
            return fn(*args)

        monkeypatch.setattr(periodic, name, wrapper)

    for name in ("_directed_cycle", "_ternary_min", "eval_array"):
        counted(name)
    runs = []
    for _ in range(2):
        counts.update(dict.fromkeys(counts, 0))
        assert len(periodic.find_periodic_points(ex2, 12)) == 747
        runs.append(dict(counts))
    assert runs[0] == runs[1]
    assert runs[0]["_directed_cycle"] <= 7_000
    assert runs[0]["_ternary_min"] <= 2
    assert runs[0]["eval_array"] <= 4_500
    assert runs[0]["elements"] <= 6_000_000
