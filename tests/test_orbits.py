import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzlab import (
    Side,
    builtin_map,
    estimate_alpha_limit,
    estimate_omega_limit,
    evaluate,
    iterate_orbit,
    itinerary,
    lyapunov,
    rotation_number,
)
from lorenzlab.map_core import branch_inverse_array, quadratic_pair
from lorenzlab.orbits import ALPHA_LIMIT_CAP, ALPHA_LIMIT_DEPTH, ALPHA_LIMIT_RESOLUTION, AlphaLimitEstimate, orbit_list
from known_points import A3, B3, P_CYCLE, Q_CYCLE


def test_orbit_hand_arithmetic(ex2):
    seg = iterate_orbit(ex2, 0.3, Side.NONE, 3)
    xs = [p.x for p in seg.points]
    # 0.3 -> 4*.3*.7 -> 1-4*.84*.16 -> 4*.4624*.5376 by hand
    assert xs == pytest.approx([0.3, 0.84, 0.4624, 0.99434496], abs=1e-10)


def test_orbit_two_cycle(ex1):
    seg = iterate_orbit(ex1, P_CYCLE, Side.NONE, 4)
    xs = [p.x for p in seg.points]
    assert xs[0::2] == pytest.approx([P_CYCLE] * 3, abs=1e-9)
    assert xs[1::2] == pytest.approx([Q_CYCLE] * 2, abs=1e-9)


def test_orbit_fixed_point(ex1):
    seg = iterate_orbit(ex1, 0.0, Side.NONE, 10)
    assert all(p.x == 0.0 for p in seg.points)
    assert seg.hit_critical_at is None


def test_orbit_stops_at_break(ex1):
    seg = iterate_orbit(ex1, 0.5, Side.NONE, 10)
    assert seg.hit_critical_at == 0
    assert seg.length == 1
    seg2 = iterate_orbit(ex1, 0.5, Side.MINUS, 3)
    assert seg2.points[1].x == pytest.approx(0.85)


def test_orbit_consistency(ex1, ex2, rng):
    for spec in (ex1, ex2):
        for _ in range(20):
            x0 = float(rng.uniform(0.01, 0.99))
            seg = iterate_orbit(spec, x0, Side.NONE, 30)
            for a, b in zip(seg.points[:-1], seg.points[1:]):
                assert evaluate(spec, a).x == pytest.approx(b.x, abs=1e-12)


def test_itinerary_words(ex1):
    assert itinerary(ex1, P_CYCLE, Side.NONE, 6).word == "010101"
    assert itinerary(ex1, 0.0, Side.NONE, 5).word == "00000"


def test_itinerary_orbit_coherence(ex2, rng):
    for _ in range(20):
        x0 = float(rng.uniform(0.01, 0.99))
        seg = iterate_orbit(ex2, x0, Side.NONE, 25)
        word = itinerary(ex2, x0, Side.NONE, 25).word
        for bit, p in zip(word, seg.points):
            assert bit == ("0" if p.x < ex2.c else "1")


def test_lyapunov_two_cycle(ex1):
    est = lyapunov(ex1, orbit_list(ex1, P_CYCLE, 10_000), 10_000)
    mult = 3.4 * (1 - 2 * P_CYCLE) * 4 * (2 * Q_CYCLE - 1)
    assert est.value == pytest.approx(0.5 * math.log(mult), abs=0.01)


def test_lyapunov_fixed_point(ex1):
    est = lyapunov(ex1, orbit_list(ex1, 0.0, 1000), 1000)
    assert est.value == pytest.approx(math.log(3.4), abs=1e-9)


def test_lyapunov_matches_multiplier(ex1, cat1):
    # at a found attracting cycle point the exponent equals
    # (1/period) log |multiplier|
    rec = next(r for r in cat1 if r.kind == "attracting" and r.period == 2)
    est = lyapunov(ex1, orbit_list(ex1, rec.points[0], 10_000), 10_000)
    assert est.value == pytest.approx(math.log(abs(rec.multiplier)) / rec.period, rel=1e-6)


def test_lyapunov_full_shift(ex2):
    est = lyapunov(ex2, orbit_list(ex2, 0.2137, 100_000), 100_000)
    assert est.value == pytest.approx(math.log(2.0), abs=0.05)


def test_omega_limit_two_cycle(ex1):
    est = estimate_omega_limit(ex1, 0.3, 10_000, 1024)
    expect = {min(int(P_CYCLE * 1024), 1023), min(int(Q_CYCLE * 1024), 1023)}
    assert set(est.cells) == expect
    assert not est.contains_c


def test_omega_limit_fixed_point(ex1):
    est = estimate_omega_limit(ex1, 0.0, 1000, 1024)
    assert est.cells == (0,)


def test_omega_limit_full_map(ex2):
    est = estimate_omega_limit(ex2, 0.3, 100_000, 256)
    assert len(est.cells) >= 0.95 * 256


def test_omega_perfectness_proxy(ex2):
    # a non-periodic recurrent orbit: every occupied cell at doubled
    # resolution has an occupied neighbor
    est = estimate_omega_limit(ex2, 0.3, 200_000, 512)
    cells = set(est.cells)
    x0_cell = min(int(0.3 * 512), 511)
    assert x0_cell in cells  # x0 is in its own limit estimate
    for i in cells:
        assert (i - 1 in cells) or (i + 1 in cells)


def test_alpha_limit_full_map(ex2):
    est = estimate_alpha_limit(ex2, 0.3)
    assert len(est.cells) >= 0.95 * est.resolution
    assert est.j_x_est is None


def test_alpha_limit_monotone_tail(ex1):
    est = estimate_alpha_limit(ex1, 0.95)
    # backward orbit climbs the right branch toward the fixed point 1
    assert min(est.cells) >= int(0.9 * est.resolution)


def test_alpha_limit_renormalization_gap(ex3, seq3):
    est = estimate_alpha_limit(ex3, B3)
    assert est.j_x_est is not None
    lo, hi = est.j_x_est
    assert lo == pytest.approx(A3, abs=1e-6)
    assert hi == pytest.approx(B3, abs=1e-6)
    # cross-check against the certified renormalization interval
    J = seq3.intervals[0].J
    assert lo == pytest.approx(J[0], abs=1e-6)
    assert hi == pytest.approx(J[1], abs=1e-6)


def ref_alpha_limit(spec, x):
    """estimate_alpha_limit as it was written with one list of (depth,
    value) tuples for the whole tree."""
    tol = spec.tolerance
    level = np.array([x])
    all_nodes = [(0, x)]
    complete = True
    for d in range(1, ALPHA_LIMIT_DEPTH + 1):
        pre_l = branch_inverse_array(spec, "left", level)
        pre_r = branch_inverse_array(spec, "right", level)
        nxt = np.concatenate([pre_l, pre_r])
        nxt = nxt[~np.isnan(nxt)]
        nxt = np.unique(np.round(nxt, 13))
        if len(all_nodes) + nxt.size > ALPHA_LIMIT_CAP:
            complete = False
            break
        all_nodes.extend((d, float(v)) for v in nxt)
        level = nxt
        if level.size == 0:
            break
    deep = [v for (d, v) in all_nodes if d >= ALPHA_LIMIT_DEPTH / 2]
    cells = tuple(sorted({min(int(v * ALPHA_LIMIT_RESOLUTION), ALPHA_LIMIT_RESOLUTION - 1) for v in deep}))
    below = [v for (_, v) in all_nodes if v <= spec.c - tol]
    above = [v for (_, v) in all_nodes if v >= spec.c + tol]
    lo = max(below) if below else 0.0
    hi = min(above) if above else 1.0
    j_x = (lo, hi)
    if hi - lo <= 2.0 / ALPHA_LIMIT_RESOLUTION:
        j_x = None
    return AlphaLimitEstimate(cells, ALPHA_LIMIT_RESOLUTION, len(all_nodes), j_x, complete)


ALPHA_CASES = [
    ("paper-example", 0.95),
    ("logistic3.4-embed", 0.3),
    ("logistic3.4-embed", 0.5),
    ("logistic3.4-embed", B3),
    # a full-branch map: the tree doubles each level and stops at the node cap
    ("logistic4-embed", 0.3),
]


@pytest.mark.parametrize("name, x", ALPHA_CASES)
def test_alpha_limit_matches_reference(name, x):
    spec = builtin_map(name)
    assert estimate_alpha_limit(spec, x) == ref_alpha_limit(spec, x)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.floats(2.9, 4.0), st.floats(2.9, 4.0), st.floats(0.0, 1.0))
def test_alpha_limit_matches_reference_on_pairs(a_left, a_right, x):
    spec = quadratic_pair(a_left, a_right)
    assert estimate_alpha_limit(spec, x) == ref_alpha_limit(spec, x)


def test_rotation_number_two_cycle(ex1):
    # each half of [0, 1] returns to [0, 1] at once
    rot = rotation_number(ex1, (0.0, 1.0), (1, 1), P_CYCLE, 1000)
    assert rot == pytest.approx(0.5, abs=1e-12)


def test_rotation_number_periodic_exact(ex2, cat2):
    # a period-5 orbit visiting the left side twice has rotation 2/5
    rec5 = next(
        r for r in cat2 if r.period == 5 and sum(1 for p in r.points if p < 0.5) == 2
    )
    rot = rotation_number(ex2, (0.0, 1.0), (1, 1), rec5.points[0], 1000)
    assert rot == pytest.approx(2.0 / 5.0, abs=1e-12)


def test_rotation_number_renormalized(ex3, seq3):
    rec = seq3.intervals[0]
    rot = rotation_number(ex3, rec.J, (rec.period_a, rec.period_b), 0.5 - 1e-3, 10_000)
    assert rot == pytest.approx(0.5, abs=1e-3)


def test_rotation_number_escape_error(ex1):
    with pytest.raises(ValueError, match="not forward invariant"):
        rotation_number(ex1, (0.4, 0.6), (1, 1), 0.45, 1000)
