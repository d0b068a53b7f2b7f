"""The scalar orbit walker `orbits.orbit_chunks` and the probes built on it
against the apply_raw loops they replaced, kept here as references."""

import math
import pickle
import sys
from itertools import chain

import numpy as np
import pytest

from lorenzlab import builtin_map, embed_unimodal, logistic, orbits, quadratic_pair, renorm, spectral
from lorenzlab.map_core import (
    BranchSpec,
    LorenzMapSpec,
    Side,
    apply_raw,
    branch_inverse_array,
    critical_values,
    derivative,
)
from lorenzlab.orbits import WALK_CHUNK, critical_orbit, estimate_omega_limit, lyapunov, orbit_chunks, orbit_list
from lorenzlab.periodic import find_periodic_points


def ref_lyapunov(spec, x0, n=10_000, tail_windows=10, side=Side.NONE):
    tol = spec.tolerance
    stride = n // 100
    checkpoints = {n - j * stride for j in range(tail_windows)}
    averages = []
    x, s = x0, side
    total = 0.0
    k = 0
    hit = False
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
        if k in checkpoints:
            averages.append(total / k)
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
    # the first horizon points of the orbit of start, up to a landing at c
    tol, c = spec.tolerance, spec.c
    pts = []
    x = start
    for _ in range(horizon):
        pts.append(x)
        if abs(x - c) <= tol:
            break
        x = apply_raw(spec, x, Side.NONE)
    return pts


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


def undirected_starts(spec):
    """The start points of starts(spec), each once, without a side."""
    return sorted({x0 for x0, _ in starts(spec)})


def test_lyapunov_matches_reference(monkeypatch):
    for spec in MAPS:
        for x0 in undirected_starts(spec):
            for n in (1000, WALK_CHUNK - 1, WALK_CHUNK, WALK_CHUNK + 1):
                want = ref_lyapunov(spec, x0, n)
                # a list, or the chunks of the walk as they are made
                for orbit in (orbit_list(spec, x0, n), chain.from_iterable(p for p, _ in orbit_chunks(spec, x0, n))):
                    est = lyapunov(spec, orbit, n)
                    assert (est.value, est.window_averages, est.steps, est.hit_critical) == want
    # more tail windows than checkpoints above zero: the ones at or below
    # zero are never met, and every one above zero still is
    monkeypatch.setattr(orbits, "LYAPUNOV_TAIL_WINDOWS", 150)
    for spec in MAPS:
        est = lyapunov(spec, orbit_list(spec, 0.3141592653589793, 1000), 1000)
        assert (est.value, est.window_averages, est.steps, est.hit_critical) == ref_lyapunov(
            spec, 0.3141592653589793, 1000, tail_windows=150
        )
    spec = builtin_map("logistic4-embed")
    est = lyapunov(spec, orbit_list(spec, 0.3141592653589793, 1000), 1000)
    monkeypatch.setattr(orbits, "LYAPUNOV_TAIL_WINDOWS", 100)
    assert lyapunov(spec, orbit_list(spec, 0.3141592653589793, 1000), 1000) == est
    assert len(est.window_averages) == 100 and round(est.value, 4) == 0.5965


@pytest.mark.parametrize("sample_len", [WALK_CHUNK - 1, WALK_CHUNK, WALK_CHUNK + 1])
def test_omega_limit_matches_reference(sample_len, monkeypatch):
    for spec in MAPS:
        for x0 in undirected_starts(spec):
            # burn-in 0 and 3 end before the landings at steps 5 and 9, and
            # 7 ends between them
            for burn_in, resolution in ((0, 256), (3, 1000), (7, 1024)):
                monkeypatch.setattr(orbits, "OMEGA_BURN_IN", burn_in)
                est = estimate_omega_limit(spec, x0, sample_len, resolution)
                want = ref_omega_limit(spec, x0, burn_in, sample_len, resolution)
                assert (est.cells, est.contains_c, est.truncated) == want


def test_omega_limit_matches_reference_across_chunks(monkeypatch):
    spec = MAPS[3]
    for burn_in in (WALK_CHUNK - 2, WALK_CHUNK, 2 * WALK_CHUNK + 1):
        monkeypatch.setattr(orbits, "OMEGA_BURN_IN", burn_in)
        for sample_len in (1, WALK_CHUNK + 1, 10_000):
            est = estimate_omega_limit(spec, 0.3141592653589793, sample_len, 1000)
            want = ref_omega_limit(spec, 0.3141592653589793, burn_in, sample_len, 1000)
            assert (est.cells, est.contains_c, est.truncated) == want
    est = lyapunov(spec, orbit_list(spec, 0.3141592653589793, 10_000), 10_000)
    want = ref_lyapunov(spec, 0.3141592653589793, 10_000)
    assert (est.value, est.window_averages, est.steps, est.hit_critical) == want


def test_omega_limit_truncation_around_burn_in(monkeypatch):
    spec = builtin_map("paper-example")
    x0 = landing_start(spec, 9)
    monkeypatch.setattr(orbits, "OMEGA_BURN_IN", 20)
    before = estimate_omega_limit(spec, x0, sample_len=100)
    monkeypatch.setattr(orbits, "OMEGA_BURN_IN", 4)
    after = estimate_omega_limit(spec, x0, sample_len=100)
    assert before.truncated and not before.cells and not before.contains_c
    assert after.truncated and after.contains_c and len(after.cells) >= 1
    monkeypatch.setattr(orbits, "OMEGA_BURN_IN", 0)
    with pytest.raises(ValueError):
        estimate_omega_limit(spec, math.nan, sample_len=10)
    # a start below 0 is clamped by the first step
    monkeypatch.setattr(orbits, "OMEGA_BURN_IN", 1)
    assert estimate_omega_limit(spec, -0.5, sample_len=10).cells


def fresh(spec):
    """A copy of spec without its walks: a pickle drops them."""
    return pickle.loads(pickle.dumps(spec))


# the maps of MAPS, and one whose critical orbits land at c (period 2)
WALK_MAPS = MAPS + [embed_unimodal(logistic(1 + math.sqrt(5)))]
PREFIXES = (1, 2, WALK_CHUNK - 1, WALK_CHUNK, WALK_CHUNK + 1, 10_001)


def test_critical_orbit_matches_reference():
    # quadpair(2.6, 2.6) has an attracting fixed point: the orbit stands
    # still and is read to the end
    for spec in MAPS + [quadratic_pair(2.6, 2.6)]:
        for i in (0, 1):
            walked = fresh(spec)
            for horizon in (1, 2, 50, WALK_CHUNK - 1, WALK_CHUNK, WALK_CHUNK + 1):
                got = critical_orbit(walked, i, horizon)
                assert got.typecode == "d"
                assert got.tolist() == ref_orbit_points(spec, critical_values(spec)[i], horizon)


def test_critical_orbit_prefixes_short_long_short(monkeypatch):
    # each prefix is the orbit_list of the critical value, whether the walk
    # is extended to it or cut from a longer one; an extension starts again
    # at the last point walked, and the walk that landed at c is never extended
    walk = orbits.orbit_chunks
    starts = []

    def counted(spec, x0, n, side=Side.NONE):
        starts.append(x0)
        return walk(spec, x0, n, side)

    for spec in WALK_MAPS:
        walked = fresh(spec)
        for i in (0, 1):
            want = {n: orbit_list(spec, critical_values(spec)[i], n) for n in PREFIXES}
            starts.clear()
            with monkeypatch.context() as m:
                m.setattr(orbits, "orbit_chunks", counted)
                for n in PREFIXES + PREFIXES[::-1]:
                    assert critical_orbit(walked, i, n).tolist() == want[n]
            assert (len(want[PREFIXES[-1]]) < PREFIXES[-1]) == (spec is WALK_MAPS[-1])
            ends = [want[n][-1] for n in PREFIXES[:-1]]
            assert starts == [critical_values(spec)[i]] + [x for x in ends if abs(x - spec.c) > spec.tolerance]
        assert walked == spec


@pytest.mark.parametrize("name", ["paper-example", "logistic4-embed", "logistic3.4-embed"])
def test_report_walks_each_critical_orbit_once(monkeypatch, name):
    # every stage of a report reads the one walk of each critical orbit: the
    # walker steps at most max(horizon, 1000) + 1 points of each, plus the
    # repeated start of each extension
    from lorenzlab.cli import build_report
    from lorenzlab.spectral import Budgets

    walk = orbits.orbit_chunks
    fed = []

    def counted(spec, x0, n, side=Side.NONE):
        if sys._getframe(1).f_code is not critical_orbit.__code__:
            return walk(spec, x0, n, side)
        chunks = list(walk(spec, x0, n, side))
        fed.append(sum(len(pts) for pts, _ in chunks))
        return iter(chunks)

    monkeypatch.setattr(orbits, "orbit_chunks", counted)
    budgets = Budgets()
    build_report(fresh(builtin_map(name)), budgets)
    n = max(budgets.horizon, 1000)
    assert 2 <= len(fed) and sum(fed) <= 2 * (n + 1) + len(fed) - 2


def test_walked_spec_pickles_as_a_fresh_one():
    for spec in WALK_MAPS:
        walked, new = fresh(spec), fresh(spec)
        for i in (0, 1):
            critical_orbit(walked, i, WALK_CHUNK + 1)
        assert "_critical_orbits" in walked.__dict__
        assert pickle.dumps(walked) == pickle.dumps(new)
        assert walked == new and hash(walked) == hash(new)


def test_detect_degenerate_matches_reference(monkeypatch):
    specs = MAPS[:4] + [quadratic_pair(3.2, 3.9), quadratic_pair(3.95, 3.3)]
    cats = [find_periodic_points(s, 8) for s in specs]
    got = [renorm.detect_degenerate(s, catalog=cat) for s, cat in zip(specs, cats)]

    def ref_critical_orbit(spec, i, n):
        return ref_orbit_points(spec, critical_values(spec)[i], n)

    monkeypatch.setattr(renorm, "critical_orbit", ref_critical_orbit)
    want = [renorm.detect_degenerate(s, catalog=cat) for s, cat in zip(specs, cats)]
    assert got == want
    assert any(d is not None for d in want)


def test_absorbed_by_cycle_matches_reference():
    # the late points of classify_attractor's step (1), read from the shared
    # walk; the period-2 and period-4 superattracting maps land at c before
    # or inside the late window, by the horizon
    specs = WALK_MAPS + [embed_unimodal(logistic(3.4985616993277016))]
    for spec in specs:
        for i in (0, 1):
            v = critical_values(spec)[i]
            for horizon in (1, 5, 11, 12, WALK_CHUNK, WALK_CHUNK + 1):
                late = spectral._critical_tail(spec, i, horizon)
                for cycle in ([0.0], [0.4888, 0.8496, 1.0], [spec.c]):
                    got = spectral._absorbed_by_cycle(late, cycle)
                    assert got == ref_absorbed_by_cycle(spec, v, cycle, horizon)


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
