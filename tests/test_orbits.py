import math

import pytest

from lorenzlab import (
    Side,
    estimate_alpha_limit,
    estimate_omega_limit,
    evaluate,
    first_return_map,
    iterate_orbit,
    itinerary,
    lyapunov,
    rotation_number,
)
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
    est = lyapunov(ex1, P_CYCLE, 10_000)
    mult = 3.4 * (1 - 2 * P_CYCLE) * 4 * (2 * Q_CYCLE - 1)
    assert est.value == pytest.approx(0.5 * math.log(mult), abs=0.01)


def test_lyapunov_fixed_point(ex1):
    est = lyapunov(ex1, 0.0, 1000)
    assert est.value == pytest.approx(math.log(3.4), abs=1e-9)


def test_lyapunov_matches_multiplier(ex1, cat1):
    # at a found attracting cycle point the exponent equals
    # (1/period) log |multiplier|
    rec = next(r for r in cat1 if r.kind == "attracting" and r.period == 2)
    est = lyapunov(ex1, rec.points[0], 10_000)
    assert est.value == pytest.approx(math.log(abs(rec.multiplier)) / rec.period, rel=1e-6)


def test_lyapunov_full_shift(ex2):
    est = lyapunov(ex2, 0.2137, 100_000)
    assert est.value == pytest.approx(math.log(2.0), abs=0.05)


def test_omega_limit_two_cycle(ex1):
    est = estimate_omega_limit(ex1, 0.3, 1000, 10_000, 1024)
    expect = {min(int(P_CYCLE * 1024), 1023), min(int(Q_CYCLE * 1024), 1023)}
    assert set(est.cells) == expect
    assert not est.contains_c


def test_omega_limit_fixed_point(ex1):
    est = estimate_omega_limit(ex1, 0.0, 100, 1000, 1024)
    assert est.cells == (0,)


def test_omega_limit_full_map(ex2):
    est = estimate_omega_limit(ex2, 0.3, 1000, 100_000, 256)
    assert len(est.cells) >= 0.95 * 256


def test_omega_perfectness_proxy(ex2):
    # a non-periodic recurrent orbit: every occupied cell at doubled
    # resolution has an occupied neighbor
    est = estimate_omega_limit(ex2, 0.3, 1000, 200_000, 512)
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


def test_rotation_number_two_cycle(ex1):
    rec = first_return_map(ex1, (0.0, 1.0), horizon=10, resolution=1 << 10)
    assert len(rec.branches) == 2
    rot = rotation_number(ex1, rec, P_CYCLE, 1000)
    assert rot == pytest.approx(0.5, abs=1e-12)


def test_rotation_number_periodic_exact(ex2, cat2):
    # a period-5 orbit visiting the left side twice has rotation 2/5
    rec5 = next(
        r for r in cat2 if r.period == 5 and sum(1 for p in r.points if p < 0.5) == 2
    )
    rec = first_return_map(ex2, (0.0, 1.0), horizon=10, resolution=1 << 10)
    rot = rotation_number(ex2, rec, rec5.points[0], 1000)
    assert rot == pytest.approx(2.0 / 5.0, abs=1e-12)


def test_rotation_number_renormalized(ex3, seq3):
    J = seq3.intervals[0].J
    rec = first_return_map(ex3, J, horizon=100, resolution=1 << 10)
    two = [b for b in rec.branches if b.touches_c]
    assert len(two) == 2
    rot = rotation_number(ex3, rec, 0.5 - 1e-3, 10_000)
    assert rot == pytest.approx(0.5, abs=1e-3)


def test_rotation_number_escape_error(ex1):
    rec = first_return_map(ex1, (0.0, 1.0), horizon=10, resolution=1 << 10)
    import dataclasses

    shrunk = dataclasses.replace(rec, J=(0.4, 0.6))
    with pytest.raises(ValueError, match="not forward invariant"):
        rotation_number(ex1, shrunk, 0.45, 1000)
