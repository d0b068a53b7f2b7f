"""The scalar orbit walker `orbits.orbit_chunks` and the probes built on it
against the apply_raw loops they replaced, kept here as references."""

import math

import numpy as np
import pytest

from lorenzlab import builtin_map, quadratic_pair, renorm, spectral
from lorenzlab.map_core import (
    BranchSpec,
    LorenzMapSpec,
    Side,
    apply_raw,
    branch_inverse_array,
    derivative,
)
from lorenzlab.orbits import WALK_CHUNK, estimate_omega_limit, lyapunov, orbit_chunks
from lorenzlab.periodic import find_periodic_points


def ref_lyapunov(spec, x0, n=10_000, tail_windows=10, side=Side.NONE):
    tol = spec.tolerance
    stride = max(1, n // 100)
    checkpoints = sorted({n - j * stride for j in range(tail_windows)} | {n})
    averages = []
    x, s = x0, side
    total = 0.0
    k = 0
    hit = False
    nxt = 0
    while k < n:
        at_c = abs(x - spec.c) <= tol
        if at_c and s == Side.NONE:
            hit = True
            break
        if not at_c:
            d = abs(derivative(spec, x))
            if d <= 0:
                hit = True
                break
            total += math.log(d)
        x = apply_raw(spec, x, s)
        s = Side.NONE
        k += 1
        if nxt < len(checkpoints) and k == checkpoints[nxt]:
            averages.append(total / k)
            nxt += 1
    if not averages:
        averages = [total / max(k, 1)]
    return (min(averages), averages, k, hit)


def ref_omega_limit(spec, x0, burn_in=1000, sample_len=10_000, resolution=1024, side=Side.NONE):
    tol = spec.tolerance
    x, s = x0, side
    truncated = False
    k = 0
    cells = set()
    contains_c = False
    cw = 1.0 / resolution
    while k < burn_in + sample_len:
        at_c = abs(x - spec.c) <= tol
        if at_c and s == Side.NONE:
            truncated = True
            if k >= burn_in:
                contains_c = True
                cells.add(min(int(x * resolution), resolution - 1))
            break
        if k >= burn_in:
            cells.add(min(int(x * resolution), resolution - 1))
            if abs(x - spec.c) <= cw:
                contains_c = True
        x = apply_raw(spec, x, s)
        s = Side.NONE
        k += 1
    return (tuple(sorted(cells)), contains_c, truncated)


def ref_orbit_points(spec, start, horizon):
    tol, c = spec.tolerance, spec.c
    pts = []
    x = start
    for _ in range(horizon):
        pts.append(x)
        if abs(x - c) <= tol:
            break
        nxt = apply_raw(spec, x, Side.NONE)
        if abs(nxt - x) <= tol:
            pts.append(nxt)
            break
        x = nxt
    return np.asarray(pts)


def ref_absorbed_by_cycle(spec, x0, cycle, horizon):
    # x_j for horizon - tail < j <= horizon, and a landing at c at any step
    tail = max(horizon // 10, 10)
    xs = [x0]
    while len(xs) <= horizon and abs(xs[-1] - spec.c) > spec.tolerance:
        xs.append(apply_raw(spec, xs[-1], Side.NONE))
    late = xs[max(horizon - tail + 1, 1) :]
    if abs(xs[-1] - spec.c) <= spec.tolerance:
        late.append(xs[-1])
    return any(abs(x - p) < 1e-3 for x in late for p in cycle)


def power_map() -> LorenzMapSpec:
    return LorenzMapSpec(
        c=0.45,
        left=BranchSpec(kind="power_form", domain_side="left", a=0.97, alpha=2.7),
        right=BranchSpec(kind="power_form", domain_side="right", a=0.9, alpha=1.9),
        name="power",
    )


MAPS = [
    builtin_map("paper-example"),
    builtin_map("logistic4-embed"),
    builtin_map("logistic3.4-embed"),
    quadratic_pair(3.83, 3.61),
    power_map(),
]


def landing_start(spec, steps: int) -> float | None:
    """A point whose float orbit lands within tolerance of c after `steps`
    steps and not before (checked), or None when none is found."""
    rng = np.random.default_rng(steps)
    for _ in range(200):
        y = spec.c
        for side in rng.choice(["left", "right"], steps):
            y = float(branch_inverse_array(spec, str(side), np.array([y]))[0])
            if math.isnan(y):
                break
        if math.isnan(y):
            continue
        x, k = y, 0
        while abs(x - spec.c) > spec.tolerance and k <= steps:
            x = apply_raw(spec, x)
            k += 1
        if k == steps:
            return y
    return None


def starts(spec):
    c = spec.c
    points = [
        (c, Side.MINUS),
        (c, Side.PLUS),
        (c, Side.NONE),
        (c + 0.5 * spec.tolerance, Side.PLUS),
        (0.0, Side.NONE),
        (1.0, Side.NONE),
        (0.3141592653589793, Side.NONE),
        (0.7182818284590452, Side.MINUS),
    ]
    landings = (landing_start(spec, 5), landing_start(spec, 9))
    return points + [(x, Side.NONE) for x in landings if x is not None]


def test_landing_starts_found():
    assert all(len(starts(spec)) == 10 for spec in MAPS)


def test_orbit_chunks_match_apply_raw():
    for spec in MAPS:
        for x0, side in starts(spec):
            for n in (1, 2, 5, WALK_CHUNK - 1, WALK_CHUNK, WALK_CHUNK + 1, 2 * WALK_CHUNK + 3):
                chunks = list(orbit_chunks(spec, x0, n, side))
                assert all(0 < len(pts) <= WALK_CHUNK for pts, _ in chunks)
                assert not any(landed for _, landed in chunks[:-1])
                got = [x for pts, _ in chunks for x in pts]
                want, x, s = [x0], x0, side
                landed = abs(x0 - spec.c) <= spec.tolerance and side == Side.NONE
                while len(want) < n and not landed:
                    x = apply_raw(spec, x, s)
                    s = Side.NONE
                    want.append(x)
                    landed = abs(x - spec.c) <= spec.tolerance
                assert got == want
                assert chunks[-1][1] == landed
    assert list(orbit_chunks(MAPS[0], 0.3, 0)) == []


def test_lyapunov_matches_reference():
    for spec in MAPS:
        for x0, side in starts(spec):
            for n in (1000, WALK_CHUNK - 1, WALK_CHUNK, WALK_CHUNK + 1):
                est = lyapunov(spec, x0, n, side=side)
                want = ref_lyapunov(spec, x0, n, side=side)
                assert (est.value, est.window_averages, est.steps, est.hit_critical) == want
        # more tail windows than checkpoints above zero
        est = lyapunov(spec, 0.3141592653589793, 1000, tail_windows=150)
        assert (est.value, est.window_averages, est.steps, est.hit_critical) == ref_lyapunov(
            spec, 0.3141592653589793, 1000, tail_windows=150
        )


@pytest.mark.parametrize("sample_len", [WALK_CHUNK - 1, WALK_CHUNK, WALK_CHUNK + 1])
def test_omega_limit_matches_reference(sample_len):
    for spec in MAPS:
        for x0, side in starts(spec):
            # burn-in 0 and 3 end before the landings at steps 5 and 9, and
            # 7 ends between them
            for burn_in, resolution in ((0, 256), (3, 1000), (7, 1024)):
                est = estimate_omega_limit(spec, x0, burn_in, sample_len, resolution, side)
                want = ref_omega_limit(spec, x0, burn_in, sample_len, resolution, side)
                assert (est.cells, est.contains_c, est.truncated) == want


def test_omega_limit_matches_reference_across_chunks():
    spec = MAPS[3]
    for burn_in in (WALK_CHUNK - 2, WALK_CHUNK, 2 * WALK_CHUNK + 1):
        for sample_len in (1, WALK_CHUNK + 1, 10_000):
            est = estimate_omega_limit(spec, 0.3141592653589793, burn_in, sample_len, 1000)
            want = ref_omega_limit(spec, 0.3141592653589793, burn_in, sample_len, 1000)
            assert (est.cells, est.contains_c, est.truncated) == want
    est = lyapunov(spec, 0.3141592653589793, 10_000)
    want = ref_lyapunov(spec, 0.3141592653589793, 10_000)
    assert (est.value, est.window_averages, est.steps, est.hit_critical) == want


def test_omega_limit_truncation_around_burn_in():
    spec = builtin_map("paper-example")
    x0 = landing_start(spec, 9)
    before = estimate_omega_limit(spec, x0, burn_in=20, sample_len=100)
    after = estimate_omega_limit(spec, x0, burn_in=4, sample_len=100)
    assert before.truncated and not before.cells and not before.contains_c
    assert after.truncated and after.contains_c and len(after.cells) >= 1
    with pytest.raises(ValueError):
        estimate_omega_limit(spec, math.nan, burn_in=0, sample_len=10)


def test_orbit_points_match_reference():
    # quadpair(2.6, 2.6) has an attracting fixed point: the near-fixed stop
    for spec in MAPS + [quadratic_pair(2.6, 2.6)]:
        for x0, side in starts(spec):
            if side != Side.NONE:
                continue
            for horizon in (0, 1, 2, 50, WALK_CHUNK - 1, WALK_CHUNK, WALK_CHUNK + 1):
                got = renorm._orbit_points(spec, x0, horizon)
                want = ref_orbit_points(spec, x0, horizon)
                assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_detect_degenerate_matches_reference(monkeypatch):
    specs = MAPS[:4] + [quadratic_pair(3.2, 3.9), quadratic_pair(3.95, 3.3)]
    cats = [find_periodic_points(s, 8) for s in specs]
    got = [renorm.detect_degenerate(s, catalog=cat) for s, cat in zip(specs, cats)]
    monkeypatch.setattr(renorm, "_orbit_points", ref_orbit_points)
    want = [renorm.detect_degenerate(s, catalog=cat) for s, cat in zip(specs, cats)]
    assert got == want
    assert any(d is not None for d in want)


def test_absorbed_by_cycle_matches_reference():
    for spec in MAPS:
        for x0, side in starts(spec):
            if side != Side.NONE:
                continue
            for horizon in (0, 1, 5, 11, 12, WALK_CHUNK, WALK_CHUNK + 1):
                late = spectral._late_points(spec, x0, horizon)
                # the landing starts meet c long before the late window
                for cycle in ([0.0], [0.4888, 0.8496, 1.0], [spec.c]):
                    got = spectral._absorbed_by_cycle(late, cycle)
                    assert got == ref_absorbed_by_cycle(spec, x0, cycle, horizon)


def ref_iterate_orbit(spec, x0, side=Side.NONE, n=100):
    tol = spec.tolerance
    pts = [(x0, side)]
    hit = None
    x, s = x0, side
    if abs(x0 - spec.c) <= tol and s == Side.NONE:
        return pts, 0
    for _ in range(n):
        if abs(x - spec.c) <= tol and s == Side.NONE:
            hit = len(pts) - 1
            break
        x = apply_raw(spec, x, s)
        s = Side.NONE
        pts.append((x, s))
    return pts, hit


def test_iterate_orbit_matches_reference():
    from lorenzlab.orbits import iterate_orbit

    for spec in MAPS:
        for x0, side in starts(spec):
            # 5 and 9 end exactly on the landings at steps 5 and 9
            for n in (0, 1, 4, 5, 8, 9, 10, 300, WALK_CHUNK + 1):
                seg = iterate_orbit(spec, x0, side, n)
                got = ([(p.x, p.side) for p in seg.points], seg.hit_critical_at)
                assert got == ref_iterate_orbit(spec, x0, side, n)
