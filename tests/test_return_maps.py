import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from lorenzlab import (
    first_return_map,
    gaps,
    is_nice,
    mane_expansion_check,
    order,
    phobic_measure,
    root_interval,
)
from lorenzlab import builtin_map
from lorenzlab.map_core import BranchSpec, LorenzMapSpec, Side, apply_raw, quadratic_pair, validate_map
from lorenzlab.periodic import find_periodic_points
from lorenzlab.return_maps import RootIntervalResult, _first_return_time, _return_times, push_interval
from known_points import A3, B3, P_CYCLE

# alpha = 2 on both sides: numpy's power and libm's pow then both round x*x
# correctly, so the vector and the scalar step agree bit for bit; for other
# exponents they can differ in the last bit and long orbits part
POWER_FORM = LorenzMapSpec(
    c=0.45,
    left=BranchSpec(kind="power_form", domain_side="left", a=0.9, alpha=2.0),
    right=BranchSpec(kind="power_form", domain_side="right", a=0.85, alpha=2.0),
    name="power-form",
)


def test_is_nice_renormalization_interval(ex3):
    rec = is_nice(ex3, (A3, B3), 10_000)
    assert rec.is_nice
    assert rec.boundary_periodic == (2, 2)


def test_is_nice_whole_interval(ex1):
    rec = is_nice(ex1, (0.0, 1.0), 1000)
    assert rec.is_nice
    assert rec.boundary_periodic == (1, 1)


def test_is_nice_simulation_report(ex1):
    rec = is_nice(ex1, (0.49, 0.51), 1000)
    assert isinstance(rec.is_nice, bool)
    assert not rec.undetermined


@pytest.mark.parametrize("horizon", [0, -3])
def test_is_nice_refuses_horizon_below_one(ex2, horizon):
    # a horizon of no steps would report "nice" without looking at an orbit
    with pytest.raises(ValueError, match=r"horizon must lie in \[1, 1000000\]"):
        is_nice(ex2, (0.3, 0.9), horizon)


def test_is_nice_accepts_horizon_one(ex2):
    assert is_nice(ex2, (0.3, 0.9), 1).horizon == 1
    assert not is_nice(ex2, (0.3, 0.9), 10).is_nice


def test_is_nice_catches_reentry(ex2):
    # orbit of 0.4: 0.96 -> 0.8464 -> 0.47997..., re-entering at step 3
    rec = is_nice(ex2, (0.4, 0.6), 1000)
    assert not rec.is_nice


def test_order_basics(ex1):
    assert order(ex1, (0.49, 0.51)) == 0
    k = order(ex1, (0.1, 0.2))
    # direct-simulation oracle
    lo, hi = 0.1, 0.2
    for j in range(20):
        if lo < 0.5 < hi:
            break
        side = Side.NONE
        lo, hi = apply_raw(ex1, lo, side), apply_raw(ex1, hi, side)
    assert k == j


def test_order_trapped_interval(ex1):
    eps = 1e-6
    assert order(ex1, (P_CYCLE - eps, P_CYCLE + eps), 100) is None


def test_return_map_renormalization_case(ex3):
    rec = first_return_map(ex3, (A3, B3), 1000, 1 << 12)
    assert len(rec.branches) == 2
    assert all(b.touches_c for b in rec.branches)
    assert [b.return_time for b in rec.branches] == [2, 2]
    left, right = rec.branches
    assert left.domain == pytest.approx((A3, 0.5), abs=1e-9)
    assert right.domain == pytest.approx((0.5, B3), abs=1e-9)
    # one-sided images computed by hand: f^2(c-) = 0.5665, f^2(c+) = 0.4335
    assert left.image == pytest.approx((A3, 0.5665), abs=1e-9)
    assert right.image == pytest.approx((0.4335, B3), abs=1e-9)
    assert not any(b.is_full for b in rec.branches)
    assert rec.uncovered_measure < 1e-6


def test_full_branch_law(ex2):
    J = (0.25, 0.75)
    assert is_nice(ex2, J, 1000).is_nice
    rec = first_return_map(ex2, J, 1000, 1 << 12)
    interior = [b for b in rec.branches if not b.touches_c]
    assert interior
    for b in interior:
        assert b.is_full
        assert b.image == pytest.approx(J, abs=1e-6)


def test_full_branch_per_point_oracle(ex2):
    J = (0.25, 0.75)
    rec = first_return_map(ex2, J, 1000, 1 << 12)
    for b in rec.branches[:6]:
        if b.touches_c or not b.is_full:
            continue
        lo, hi = b.domain
        w = hi - lo
        for x0, target in ((lo + 1e-9 * w, J[0]), (hi - 1e-9 * w, J[1])):
            x = x0
            for _ in range(b.return_time):
                x = apply_raw(ex2, x, Side.NONE)
            assert x == pytest.approx(target, abs=1e-6)


def test_boundary_periodicity_law(ex2, ex1):
    # periodic boundary 0.25 of EX2's (0.25, 0.75) owns a branch edge
    rec = first_return_map(ex2, (0.25, 0.75), 1000, 1 << 12)
    assert any(abs(b.domain[0] - 0.25) <= 1e-9 for b in rec.branches)
    assert any(abs(b.domain[1] - 0.75) <= 1e-9 for b in rec.branches)
    # non-periodic boundaries own no branch edge
    rec2 = first_return_map(ex1, (0.49, 0.51), 1000, 1 << 10)
    nice2 = is_nice(ex1, (0.49, 0.51), 1000)
    if nice2.is_nice and nice2.boundary_periodic == (None, None):
        for b in rec2.branches:
            assert abs(b.domain[0] - 0.49) > 1e-9
            assert abs(b.domain[1] - 0.51) > 1e-9


def test_return_time_consistency(ex2, rng):
    J = (0.25, 0.75)
    rec = first_return_map(ex2, J, 1000, 1 << 12)
    for b in rec.branches[:8]:
        lo, hi = b.domain
        for _ in range(3):
            x = float(rng.uniform(lo + 1e-9, hi - 1e-9))
            assert _first_return_time(ex2, x, J, 1000) == b.return_time


def test_gaps_structure(ex2):
    J = (0.25, 0.75)
    out = gaps(ex2, J, 25, 100_000)
    assert out[0].gap == J and out[0].order == 0
    assert all(g.image_is_J for g in out)
    # pairwise disjoint interiors
    ivs = sorted(g.gap for g in out)
    for (a1, b1), (a2, b2) in zip(ivs[:-1], ivs[1:]):
        assert b1 <= a2 + 1e-9
    total = sum(b - a for (a, b) in ivs)
    assert total >= 0.98


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.floats(2.9, 4.0),
    st.floats(2.9, 4.0),
    st.floats(0.001, 0.2),
    st.floats(0.001, 0.2),
    st.integers(0, 8),
)
def test_gaps_map_onto_J(a_left, a_right, h_left, h_right, max_order):
    """Every gap of a random quadratic pair, around a random J, maps
    monotonically onto J at its order."""
    spec = quadratic_pair(a_left, a_right)
    J = (spec.c - h_left, spec.c + h_right)
    out = gaps(spec, J, max_order)
    assert out[0].gap == J
    for g in out:
        assert g.image_is_J
        assert g.order <= max_order
        if g.order:
            assert push_interval(spec, g.gap, g.order) == pytest.approx(J, abs=1e-6)


def test_gaps_trivial(ex1):
    out = gaps(ex1, (0.45, 0.55), 0, 100)
    assert len(out) == 1
    assert out[0].gap == (0.45, 0.55)


def test_gap_boundary_sharing_flag(ex3):
    # when both boundary points lie on one orbit, a neighbor gap shares an
    # endpoint with J (the avoiding set has isolated boundary points)
    out = gaps(ex3, (A3, B3), 3, 100)
    assert any(g.touches_boundary for g in out[1:])
    side = next(g for g in out if g.touches_boundary)
    assert min(abs(side.gap[0] - B3), abs(side.gap[1] - A3)) <= 1e-9


def test_gap_survivor_disjointness(ex2):
    J = (0.25, 0.75)
    out = gaps(ex2, J, 12, 10_000)
    ph = phobic_measure(ex2, J, 30, 20_000)
    centers = (np.array(ph.surviving_cells) + 0.5) / ph.grid
    for (a, b) in (g.gap for g in out):
        assert not np.any((centers > a + 1e-9) & (centers < b - 1e-9))


def test_phobic_measure_decay(ex2):
    vals = [phobic_measure(ex2, (0.4, 0.6), n, 100_000).surviving_measure for n in (5, 10, 20, 50)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] < 0.02


def test_phobic_whole_interval(ex1):
    est = phobic_measure(ex1, (0.0 + 1e-12, 1.0 - 1e-12), 5, 1000)
    assert est.surviving_measure == 0.0


def test_mane_expansion(ex2, rng):
    fit = mane_expansion_check(ex2, (0.4, 0.6), samples=200_000, n=40, rng=rng)
    assert fit.passed
    assert fit.lam > 1.0
    assert fit.survivors >= 10


def test_mane_fixed_point_rate(ex2):
    # the orbit sitting at 0 avoids any interval around c forever and its
    # per-step log-derivative is exactly log 4
    from lorenzlab import derivative

    assert math.log(abs(derivative(ex2, 0.0))) == pytest.approx(math.log(4.0))


def test_mane_insufficient_survivors(ex1, rng):
    with pytest.raises(ValueError, match="insufficient survivors"):
        mane_expansion_check(ex1, (0.05, 0.95), samples=200, n=50, rng=rng)


def test_root_interval(ex3, cat3):
    res = root_interval(ex3, (A3, B3), 8, catalog=cat3)
    assert res.interval == (0.0, 1.0)
    # always contains the closure of its input
    assert res.interval[0] <= A3 and res.interval[1] >= B3


def test_root_interval_whole(ex1, cat1):
    res = root_interval(ex1, (1e-9, 1 - 1e-9), 8, catalog=cat1)
    assert res.interval == (0.0, 1.0)


def test_root_interval_nested(ex3, cat3, seq3):
    # the root of the deepest certified interval is the level above it
    J_inner = seq3.chain()[1].J
    res = root_interval(ex3, J_inner, 8, catalog=cat3)
    assert res.interval[0] <= seq3.intervals[0].J[0] + 1e-9
    assert res.interval[1] >= seq3.intervals[0].J[1] - 1e-9


def test_root_interval_matches_reference(ex1, ex2, ex3, cat1, cat2, cat3):
    rng = np.random.default_rng(29)
    for spec, cat in ((ex1, cat1), (ex2, cat2), (ex3, cat3)):
        c = spec.c
        Js = [(c - u, c + v) for u, v in rng.uniform(0.001, 0.3, (15, 2))]
        # intervals bounded by catalog points, whose boundary periods bound the pairs
        below = sorted({max((p for p in r.points if p < c), default=0.0) for r in cat})
        above = sorted({min((p for p in r.points if p > c), default=1.0) for r in cat})
        Js += [(float(rng.choice(below)), float(rng.choice(above))) for _ in range(5)]
        # the nested loops take about 2 s on the 747 orbits of period <= 12 of
        # logistic4-embed, so one interval runs at 12 and the others lower
        periods = [12] + [int(p) for p in rng.integers(4, 10, len(Js) - 1)]
        for J, max_period in zip(Js, periods):
            got = root_interval(spec, J, max_period, catalog=cat, horizon=1000)
            assert got == ref_root_interval(spec, J, max_period, catalog=cat, horizon=1000), (J, max_period)


@pytest.mark.parametrize(
    "name, J",
    [
        ("paper-example", (0.3, 0.6)),
        ("logistic4-embed", (0.25, 0.75)),
        ("logistic3.4-embed", (A3, B3)),
        ("power-form", (0.35, 0.55)),
    ],
)
def test_return_times_match_scalar_reference(name, J, rng):
    spec = POWER_FORM if name == "power-form" else builtin_map(name)
    assert validate_map(spec).ok
    h = 1000
    lo, hi = J
    # random points in J and in [0, 1], the break point and its tolerance
    # ball, and both sides of every grid-run edge first_return_map refines
    grid = np.linspace(lo, hi, 1024 + 2)[1:-1]
    run_edge = np.flatnonzero(np.diff(_return_times(spec, grid, J, h)))
    branch_ends = [x for b in first_return_map(spec, J, h, 1024).branches for x in b.domain]
    xs = np.concatenate(
        [
            rng.uniform(lo, hi, 300),
            rng.uniform(0.0, 1.0, 100),
            spec.c + spec.tolerance * np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
            grid[run_edge],
            grid[run_edge + 1],
            branch_ends,
            np.nextafter(branch_ends, lo),
            np.nextafter(branch_ends, hi),
        ]
    )
    ref = np.array([_first_return_time(spec, float(x), J, h) for x in xs])
    assert (ref > 0).any() and (ref != 1).any()
    assert np.array_equal(_return_times(spec, xs, J, h), ref)
    for short in (0, 1, 2, 3, 5):
        ref_short = np.array([_first_return_time(spec, float(x), J, short) for x in xs])
        assert np.array_equal(_return_times(spec, xs, J, short), ref_short)
    # each point stops at its own t: a common t from 1 to beyond the largest
    # return time, then one random t per point
    t_max = int(ref.max())
    assert t_max + 2 <= h
    for t in sorted({*range(1, 9), *ref[ref > 0].tolist(), t_max + 1, t_max + 2}):
        assert np.array_equal(_return_times(spec, xs, J, t) == t, ref == t), t
    ts = rng.integers(1, t_max + 3, xs.size)
    assert np.array_equal(_return_times(spec, xs, J, ts) == ts, ref == ts)


def _power_pair(c, left, right):
    return LorenzMapSpec(
        c=c,
        left=BranchSpec(kind="power_form", domain_side="left", a=left[0], alpha=left[1]),
        right=BranchSpec(kind="power_form", domain_side="right", a=right[0], alpha=right[1]),
    )


@pytest.mark.parametrize(
    "spec, J",
    [
        (builtin_map("logistic3.4-embed"), (0.294117647, 0.705882353)),
        (builtin_map("logistic4-embed"), (0.25, 0.75)),
        # power_form maps with edges one ulp from a float that does not return at t
        (_power_pair(0.49, (0.983, 3.01), (0.976, 2.82)), (0.343, 0.541)),
        (_power_pair(0.49, (0.968, 2.59), (0.964, 2.91)), (0.392, 0.592)),
        (_power_pair(0.562, (0.973, 2.83), (0.982, 1.69)), (0.4496, 0.6496)),
        (_power_pair(0.43, (0.963, 2.12), (0.993, 2.55)), (0.301, 0.487)),
    ],
    ids=["logistic3.4-embed", "logistic4-embed", "power-1", "power-2", "power-3", "power-4"],
)
def test_bisected_edges_return_at_their_time(spec, J):
    # an edge inside J that is not c is the x_in its bisection left: the
    # last float found to first return at the branch's time t (the branches
    # of logistic3.4-embed end only at c and at the ends of J)
    assert validate_map(spec).ok
    rec = first_return_map(spec, J, 1000, 4096)
    ends = [(e, b.return_time) for b in rec.branches for e in b.domain if e not in (*J, spec.c)]
    xs = np.array([e for e, _ in ends])
    ts = np.array([t for _, t in ends])
    bad = [(e, t) for (e, t), ok in zip(ends, _return_times(spec, xs, J, ts) == ts) if not ok]
    assert not bad


def _covered(rec):
    covered = 0.0
    for b in rec.branches:
        covered += b.domain[1] - b.domain[0]
    return covered


# intervals of logistic4-embed between catalog points, the periodic points
# x = sin^2(pi s / 2) with s = 510/1023 and 533/1023, and 509/1023 and
# 573/1023. Some of their grid runs of one return time still hold branch
# structure below grid resolution: an earlier image of the run straddles c.
# The push certificate refuses those runs, and they stay uncovered.
@pytest.mark.parametrize(
    "J, count",
    [
        ((0.49769678772492537, 0.5329888453091722), 22),
        ((0.49616133700945364, 0.5938716448513344), 58),
    ],
)
def test_sub_resolution_runs_stay_uncovered(ex2, J, count):
    rec = first_return_map(ex2, J, 1000, 4096)
    assert len(rec.branches) == count
    assert rec.uncovered_measure == max((J[1] - J[0]) - _covered(rec), 0.0)
    for b in rec.branches:
        lo, hi = b.domain
        for frac in np.linspace(0.05, 0.95, 19):
            x = lo + float(frac) * (hi - lo)
            assert _first_return_time(ex2, x, J, 1000) == b.return_time, (b, frac)


# polynomial maps only: on power_form maps the scalar and the array kernel
# can differ in the last bit, and the scalar reference can then part from
# the vector return times
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    a_left=st.floats(3.0, 4.0),
    a_right=st.floats(3.0, 4.0),
    u=st.floats(0.01, 0.3),
    v=st.floats(0.01, 0.3),
)
def test_return_map_branches_disjoint_inside_J(a_left, a_right, u, v):
    spec = quadratic_pair(a_left, a_right)
    J = (0.5 - u, 0.5 + v)
    try:
        rec = first_return_map(spec, J, 1000, 1024)
    except ValueError as e:
        if "no returns" not in str(e):
            raise
        reject()
    ends = [x for b in rec.branches for x in b.domain]
    assert all(J[0] <= x <= J[1] for x in ends)
    assert all(p < q for p, q in zip(ends[::2], ends[1::2]))  # nonempty
    assert all(p <= q for p, q in zip(ends[1::2], ends[2::2]))  # sorted, disjoint
    assert rec.uncovered_measure == max((J[1] - J[0]) - _covered(rec), 0.0)
    for b in rec.branches:
        lo, hi = b.domain
        for frac in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
            assert _first_return_time(spec, lo + frac * (hi - lo), J, 1000) == b.return_time, (b, frac)


# ---------------------------------------------------------------------------
# references


def ref_root_interval(spec, J, max_period=12, catalog=None, horizon=10_000):
    """return_maps.root_interval as it was, with the catalog pairs in nested
    loops, kept verbatim."""
    lo, hi = J
    tol = spec.tolerance
    if catalog is None:
        catalog = find_periodic_points(spec, max_period)
    nice = is_nice(spec, J, horizon)
    notes = []
    if not nice.is_nice:
        notes.append("input interval failed the niceness probe")
    per_a, per_b = nice.boundary_periodic
    per_a = per_a or max_period
    per_b = per_b or max_period

    best: tuple[float, float] | None = None
    count = 0
    for o1 in catalog:
        if o1.period > per_a:
            continue
        left_pts = [p for p in o1.points if p <= lo - tol]
        if not left_pts:
            continue
        a2 = max(left_pts)
        for o2 in catalog:
            if o2.period > per_b:
                continue
            right_pts = [q for q in o2.points if q >= hi + tol]
            if not right_pts:
                continue
            b2 = min(right_pts)
            inside = [p for p in o1.points + o2.points if a2 + tol < p < b2 - tol]
            if inside:
                continue
            count += 1
            if best is None:
                best = (a2, b2)
            else:
                best = (max(best[0], a2), min(best[1], b2))
    if best is None:
        return RootIntervalResult(
            interval=(0.0, 1.0),
            candidates=0,
            notes=notes + ["no periodic nice candidate found; using the whole interval"],
        )
    # consistency spot check: the root boundary orbit must avoid the root interval
    a2, b2 = best
    chk = is_nice(spec, best, min(horizon, 10_000))
    if not chk.is_nice:
        notes.append("intersection of candidates failed the niceness probe")
    for g in gaps(spec, J, max_order=6, budget=64)[1:4]:
        if not g.image_is_J:
            notes.append(f"gap {g.gap} at order {g.order} failed to map onto J")
    return RootIntervalResult(interval=best, candidates=count, notes=notes)
