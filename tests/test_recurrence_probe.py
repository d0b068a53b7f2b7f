"""The block-stepped recurrence probe `spectral._recurrent_cells`, with its
scalar block fill, against the per-step loop it replaced, kept here verbatim
as the reference."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzlab import builtin_map, quadratic_pair, spectral, validate_map
from lorenzlab.map_core import (
    BranchSpec,
    LorenzMapSpec,
    UndirectedCriticalEvaluation,
    apply_raw,
    critical_values,
    eval_array,
)
from lorenzlab.orbits import orbit_list
from lorenzlab.spectral import (
    CORE_MARGIN,
    RECURRENCE_BLOCK_FLOATS,
    RECURRENCE_BLOCK_STEPS,
    RECURRENCE_TAIL_POINTS,
    _certified_core,
    _in_any,
    _recurrent_cells,
)


def reference_recurrent_cells(spec, region, holes, resolution, horizon):
    centers = (np.arange(resolution) + 0.5) / resolution
    keep = _in_any(centers, region)
    if holes:
        lo_edges = np.arange(resolution) / resolution
        hi_edges = (np.arange(resolution) + 1) / resolution
        swallowed = np.zeros(resolution, dtype=bool)
        for (lo, hi) in holes:
            swallowed |= (lo_edges >= lo) & (hi_edges <= hi)
        keep &= ~swallowed
    idx = np.nonzero(keep)[0]
    if idx.size == 0:
        return ()
    start = centers[idx]
    x = start.copy()
    active = np.ones(idx.shape, dtype=bool)
    recurrent = np.zeros(idx.shape, dtype=bool)
    cw = 1.0 / resolution
    for _ in range(horizon):
        if not active.any():
            break
        x[active] = eval_array(spec, x[active])
        dead = active & np.isnan(x)
        active &= ~dead
        back = active & (np.abs(x - start) <= cw)
        recurrent |= back
        active &= ~back
    return tuple(int(i) for i in idx[recurrent])


def first_block(cells: int) -> int:
    """Steps in the probe's first block when `cells` cells start live."""
    return min(RECURRENCE_BLOCK_STEPS, max(1, RECURRENCE_BLOCK_FLOATS // cells))


def power_map() -> LorenzMapSpec:
    c = 0.45
    return LorenzMapSpec(
        c=c,
        left=BranchSpec(kind="power_form", domain_side="left", a=0.97, alpha=2.7),
        right=BranchSpec(kind="power_form", domain_side="right", a=0.9, alpha=1.9),
        name="power",
    )


def random_pairs(count: int) -> list:
    rng = np.random.default_rng(5)
    return [quadratic_pair(*(float(v) for v in rng.uniform(3.0, 4.0, 2))) for _ in range(count)]


REGIONS = [
    ([(0.0, 1.0)], []),
    ([(0.05, 0.95)], [(0.3, 0.45), (0.6, 0.7)]),
    ([(0.1, 0.4), (0.55, 0.9)], [(0.2, 0.25)]),
]


def check(spec, region, holes, resolution, horizons):
    for horizon in horizons:
        got = _recurrent_cells(spec, region, holes, resolution, horizon)
        assert got == reference_recurrent_cells(spec, region, holes, resolution, horizon), (
            spec.name, region, holes, resolution, horizon)


def block_horizons(resolution: int, long: int) -> list[int]:
    k = first_block(resolution)
    return sorted({1, 7, k - 1, k, k + 1, 2 * k + 1, long})


@pytest.mark.parametrize("name", ["paper-example", "logistic4-embed", "logistic3.4-embed"])
def test_recurrent_cells_match_reference_on_builtins(name):
    spec = builtin_map(name)
    for region, holes in REGIONS:
        check(spec, region, holes, 1024, block_horizons(1024, 10_000))
    # fewer cells than a block's float budget over its step cap
    check(spec, [(0.0, 1.0)], [], 128, block_horizons(128, 2_000))


def test_recurrent_cells_match_reference_on_random_maps():
    maps = random_pairs(6) + [power_map()]
    for i, spec in enumerate(maps):
        region, holes = REGIONS[i % len(REGIONS)]
        check(spec, region, holes, 256, block_horizons(256, 1_000))
    for spec in maps[::3]:
        check(spec, [(0.0, 1.0)], [], 1024, [10_000])


def test_recurrent_cells_match_reference_when_orbits_hit_c():
    # a wide tolerance ball around c swallows many orbits (NaN from then on);
    # at an odd resolution the middle cell's center is c itself
    wide = quadratic_pair(3.7, 3.9, tolerance=1e-3)
    for resolution in (1023, 1024):
        check(wide, [(0.0, 1.0)], [], resolution, block_horizons(resolution, 5_000))
    check(builtin_map("paper-example"), [(0.4, 0.6)], [], 1023, [1, 7, 300])


def test_recurrent_cells_empty_region():
    spec = builtin_map("paper-example")
    assert _recurrent_cells(spec, [(0.3, 0.4)], [(0.2, 0.5)], 256, 100) == ()
    assert _recurrent_cells(spec, [(0.0, 1.0)], [], 256, 0) == ()


def test_float_cycle_exit_fires(monkeypatch):
    # paper-example has an attracting 2-cycle: almost every float orbit
    # falls onto an exact float cycle long before the horizon
    spec = builtin_map("paper-example")
    elements = []

    def counting(spec, x):
        elements.append(np.size(x))
        return eval_array(spec, x)

    monkeypatch.setattr(spectral, "eval_array", counting)
    resolution, horizon = 1024, 10_000
    cells = _recurrent_cells(spec, [(0.0, 1.0)], [], resolution, horizon)
    assert len(cells) < resolution // 10
    assert sum(elements) < 0.05 * resolution * horizon


# maps around the core exit, with the certified core V each one must get:
# "inside" when 0 < lo and hi < 1, "lo=0" / "hi=1" when one end is clipped,
# "full" for V = [0, 1], None when the probe must not use the exit
CORE_CASES = {
    "inside": (quadratic_pair(3.75, 3.0), "inside"),
    "lo-clipped": (quadratic_pair(3.6, 4.0), "lo=0"),
    "hi-clipped": (quadratic_pair(4.0, 3.4), "hi=1"),
    "full": (quadratic_pair(4.0, 4.0), "full"),
    # f(c+) = 0.55 >= c: no core
    "no-core": (quadratic_pair(3.5, 1.8), None),
    # f(c+) = 1.2e-9: lo = 2e-10 lies so close to the fixed point 0 that
    # f(lo) - lo < CORE_MARGIN, and the certificate fails
    "uncertified": (quadratic_pair(3.7, 4.0 - 4.8e-9), None),
    "power": (power_map(), "inside"),
}


@pytest.mark.parametrize("case", sorted(CORE_CASES))
def test_recurrent_cells_match_reference_around_the_core(case):
    spec, want = CORE_CASES[case]
    assert validate_map(spec).ok
    core = _certified_core(spec)
    if want is None:
        assert core is None
    else:
        v0, v1 = critical_values(spec)
        lo, hi = core
        assert lo == (0.0 if want in ("lo=0", "full") else v0 - CORE_MARGIN)
        assert hi == (1.0 if want in ("hi=1", "full") else v1 + CORE_MARGIN)
        assert 0.0 <= lo < spec.c < hi <= 1.0
        # the invariance the exit rests on, on a dense grid of V
        xs = np.linspace(lo, hi, 100_001)
        ys = eval_array(spec, xs[np.abs(xs - spec.c) > spec.tolerance])
        assert ys.min() >= lo and ys.max() <= hi
    for region, holes in REGIONS:
        check(spec, region, holes, 512, block_horizons(512, 3_000))
    check(spec, [(0.0, 1.0)], [], 1024, [10_000])


def test_core_exit_fires(monkeypatch):
    # on this chaotic pair about a third of [0, 1] lies outside the core and
    # never comes back; without the exit those cells run the full horizon
    spec = quadratic_pair(3.75, 3.0)
    elements = []

    def counting(spec, x):
        elements.append(np.size(x))
        return eval_array(spec, x)

    monkeypatch.setattr(spectral, "eval_array", counting)
    resolution, horizon = 1024, 10_000
    cells = _recurrent_cells(spec, [(0.0, 1.0)], [], resolution, horizon)
    assert sum(elements) < 0.25 * resolution * horizon
    monkeypatch.undo()
    assert cells == reference_recurrent_cells(spec, [(0.0, 1.0)], [], resolution, horizon)


def spy_fill(monkeypatch) -> list:
    """Record (x0, n) of every scalar walk the probe's block fill makes."""
    calls = []
    walk = spectral.orbit_list

    def spy(spec, x0, n, *rest):
        calls.append((x0, n))
        return walk(spec, x0, n, *rest)

    monkeypatch.setattr(spectral, "orbit_list", spy)
    return calls


def first_return(spec, s: float, cw: float, horizon: int) -> int:
    """The first k in 1..horizon with x_k within cw of s."""
    orbit = orbit_list(spec, s, horizon + 1)
    return next(k for k in range(1, len(orbit)) if abs(orbit[k] - s) <= cw)


@pytest.mark.parametrize("pair", [(3.875, 3.5), (3.75, 3.0)])
def test_scalar_tail_fires_and_matches_reference(monkeypatch, pair):
    # slow returners inside the core: 11 on (3.875, 3.5) at this resolution
    # run the whole horizon and come back only after it
    spec = quadratic_pair(*pair)
    resolution, horizon = 1024, 10_000
    whole = [(0.0, 1.0)]
    walks = spy_fill(monkeypatch)
    steps = []

    def counting(spec, x):
        steps.append(np.size(x))
        return eval_array(spec, x)

    def array_steps() -> int:
        # every array step carries more live points than the fill takes;
        # the one smaller call is the core certificate's
        return sum(n > RECURRENCE_TAIL_POINTS for n in steps)

    monkeypatch.setattr(spectral, "eval_array", counting)
    cells = _recurrent_cells(spec, whole, [], resolution, horizon)
    # the array steps end at the step t0 where the scalar fill takes over;
    # without the fill every step up to the horizon is an array call
    t0 = array_steps()
    assert walks
    assert len(steps) < horizon // 2
    assert cells == reference_recurrent_cells(spec, whole, [], resolution, horizon)

    # horizons around t0: t0 itself ends on that block boundary before the
    # fill runs; the others end inside the fill, one of them on the end of
    # its first block, and two on the first return of a point live at t0
    # and one step before it
    cw = 1.0 / resolution
    late = set(cells) - set(reference_recurrent_cells(spec, whole, [], resolution, t0))
    t1 = min(first_return(spec, (i + 0.5) / resolution, cw, horizon) for i in late)
    assert t0 < t1
    horizons = (t0, t0 + 1, t0 + RECURRENCE_BLOCK_STEPS, t0 + RECURRENCE_BLOCK_STEPS + 1, t1 - 1, t1)
    for h in horizons:
        walks.clear()
        steps.clear()
        got = _recurrent_cells(spec, whole, [], resolution, h)
        assert array_steps() == t0, h
        if h == t0:
            assert walks == []
        else:
            # the fill's first block: one walk per point live at t0
            assert walks[0][1] == min(RECURRENCE_BLOCK_STEPS, h - t0) + 1, h
        if h == t0 + 1:
            assert 0 < len(walks) <= RECURRENCE_TAIL_POINTS
        assert got == reference_recurrent_cells(spec, whole, [], resolution, h), h


def test_power_form_never_enters_the_tail(monkeypatch):
    # the two kernel families differ in the last bit on power_form branches,
    # so their live points stay on the array step even when few are left
    spec = power_map()
    calls = spy_fill(monkeypatch)
    for region, resolution in (([(0.0, 1.0)], 1024), ([(0.4, 0.5)], 256)):
        check(spec, region, [], resolution, [3_000])
    assert calls == []
    # a quadratic pair on the same small region does take the scalar fill
    check(quadratic_pair(3.875, 3.5), [(0.4, 0.5)], [], 256, [3_000])
    assert calls


def intervals(min_size: int, max_size: int):
    """Lists of closed intervals in [0, 1] with ends on a 1/1000 grid."""
    end = st.integers(0, 1000).map(lambda k: k / 1000)
    pair = st.tuples(end, end).map(sorted).map(tuple)
    return st.lists(pair, min_size=min_size, max_size=max_size)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    a=st.floats(3.0, 4.0),
    b=st.floats(3.0, 4.0),
    tolerance=st.sampled_from([1e-10, 1e-3]),
    region=intervals(1, 2),
    holes=intervals(0, 2),
    resolution=st.integers(64, 512),
    horizon=st.integers(0, 3_000),
)
def test_recurrent_cells_match_reference_on_random_pairs(a, b, tolerance, region, holes, resolution, horizon):
    spec = quadratic_pair(a, b, tolerance=tolerance)
    check(spec, region, holes, resolution, [horizon])


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# polynomial maps whose branches leave [0, 1], so that both clamps act; the
# left branch x + (-0.0) maps -0.0 to -0.0 before the clamp
OVERSHOOT = LorenzMapSpec(
    c=0.5,
    left=BranchSpec(kind="polynomial", domain_side="left", coefficients=(-0.0, 1.0)),
    right=BranchSpec(kind="polynomial", domain_side="right", coefficients=(-0.3, 2.5)),
)
CLAMPING = LorenzMapSpec(
    c=0.4,
    left=BranchSpec(kind="polynomial", domain_side="left", coefficients=(-0.5, 1.5, 1.0)),
    right=BranchSpec(kind="polynomial", domain_side="right", coefficients=(0.2, 0.5, 1.5)),
    tolerance=1e-3,
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    spec=st.one_of(
        st.tuples(st.floats(3.0, 4.0), st.floats(3.0, 4.0), st.sampled_from([1e-10, 1e-3])).map(
            lambda t: quadratic_pair(t[0], t[1], tolerance=t[2])
        ),
        st.sampled_from([OVERSHOOT, CLAMPING, builtin_map("logistic4-embed")]),
    ),
    xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
    near_c=st.lists(st.floats(-3.0, 3.0), max_size=20),
)
def test_scalar_step_equals_array_step_on_polynomial_maps(spec, xs, near_c):
    # the fact the scalar fill rests on: one apply_raw step is eval_array's
    # step bit for bit, and eval_array's NaN is exactly |x - c| <= tol
    c, tol = spec.c, spec.tolerance
    points = xs + [0.0, -0.0, 1.0] + [min(max(c + u * tol, 0.0), 1.0) for u in near_c]
    ys = eval_array(spec, np.array(points))
    for x, y in zip(points, ys.tolist()):
        if abs(x - c) <= tol:
            assert np.isnan(y), x
            with pytest.raises(UndirectedCriticalEvaluation):
                apply_raw(spec, x)
        elif apply_raw(spec, x) == 0.0:
            # the one allowed difference: the scalar clamp passes a -0.0
            # through, numpy's maximum may give 0.0; the recurrence probe
            # only compares values, which cannot tell the two apart
            assert y == 0.0, x
        else:
            assert bits(apply_raw(spec, x)) == bits(y), x


def test_clamps_and_signed_zero_are_exercised():
    # the maps above reach what the step test is meant to cover
    assert apply_raw(OVERSHOOT, 0.9) == 1.0 and apply_raw(CLAMPING, 0.1) == 0.0
    assert bits(apply_raw(OVERSHOOT, -0.0)) == bits(-0.0)
    assert eval_array(OVERSHOOT, np.array([-0.0]))[0] == 0.0
    # on a quadratic pair the step of -0.0 is 0.0 in both kernels
    spec = quadratic_pair(3.5, 3.5)
    assert bits(apply_raw(spec, -0.0)) == bits(eval_array(spec, np.array([-0.0]))[0]) == bits(0.0)


def shift_map(shift: float) -> LorenzMapSpec:
    """x + 1/2 left of c = 1/2, x - 1/2 + shift right of it: a start s below
    1/2 - shift is at s + shift after two steps."""
    return LorenzMapSpec(
        c=0.5,
        left=BranchSpec(kind="polynomial", domain_side="left", coefficients=(0.5, 1.0)),
        right=BranchSpec(kind="polynomial", domain_side="right", coefficients=(shift - 0.5, 1.0)),
    )


@pytest.mark.parametrize("region", [[(0.1, 0.2)], [(0.0, 0.45)]], ids=["fill", "array"])
def test_recurrent_cells_count_the_last_step_and_the_cell_edge(monkeypatch, region):
    # every start's second iterate lies exactly one cell width away (on the
    # edge: comes back) or one bit further (past it: does not); 26 cells
    # take the scalar fill, 115 the array step
    resolution = 256
    cw = 1.0 / resolution
    centers = (np.arange(resolution) + 0.5) / resolution
    inside = tuple(int(i) for i in np.nonzero(_in_any(centers, region))[0])
    walks = spy_fill(monkeypatch)
    for shift, comes_back in ((cw, True), (cw + 2.0**-54, False)):
        spec = shift_map(shift)
        for i in inside:
            s = centers[i]
            assert orbit_list(spec, s, 3)[2] - s == shift
        assert _recurrent_cells(spec, region, [], resolution, 1) == ()
        assert _recurrent_cells(spec, region, [], resolution, 2) == (inside if comes_back else ())
        check(spec, region, [], resolution, [1, 2, 3])
    assert bool(walks) == (len(inside) <= RECURRENCE_TAIL_POINTS)
