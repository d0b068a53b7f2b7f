"""The block-stepped recurrence probe `spectral._recurrent_cells` against the
per-step loop it replaced, kept here verbatim as the reference."""

import numpy as np
import pytest

from lorenzlab import builtin_map, quadratic_pair, spectral, validate_map
from lorenzlab.map_core import BranchSpec, LorenzMapSpec, critical_values, eval_array
from lorenzlab.spectral import (
    CORE_MARGIN,
    RECURRENCE_BLOCK_FLOATS,
    RECURRENCE_BLOCK_STEPS,
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
