"""map_core.pull_back against the interval pullbacks it replaced in
renorm.trapping_region and spectral.stratum_blocks, and return_maps.gaps
(which inverts a whole level at once) against its per-endpoint loop, kept
here verbatim as references together with the branch inverse they ran on."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzlab import builtin_map, embed_unimodal, logistic, map_core, quadratic_pair, renorm, return_maps
from lorenzlab.map_core import (
    BranchSpec,
    LorenzMapSpec,
    _kernels,
    branch_inverse_array,
    branch_value,
    critical_values,
    pull_back,
)
from lorenzlab.renorm import RenormalizationRecord, renormalization_cycle, trapping_region
from lorenzlab.return_maps import FULL_TOLERANCE, GapRecord, gaps, push_interval
from lorenzlab.spectral import (
    Analysis,
    Budgets,
    NoPeriodicOrbitFound,
    VariationalPrincipleViolated,
    _entry_sides,
    stratum_blocks,
)


def power(c, a, alpha, name):
    return LorenzMapSpec(
        c=c,
        left=BranchSpec(kind="power_form", domain_side="left", a=a[0], alpha=alpha[0]),
        right=BranchSpec(kind="power_form", domain_side="right", a=a[1], alpha=alpha[1]),
        name=name,
    )


BUILTINS = [builtin_map(n) for n in ("paper-example", "logistic4-embed", "logistic3.4-embed")]
POWER = [
    power(0.45, (0.97, 0.9), (2.7, 1.9), "power-a"),
    power(0.4, (0.85, 0.8), (3.0, 2.2), "power-b"),
    power(0.5, (0.9, 0.9), (2, 2), "power-c"),
]
MAPS = (
    BUILTINS
    + [embed_unimodal(logistic(a)) for a in (3.5, 3.55, 3.566)]
    + [
        quadratic_pair(3.2984012230168758, 3.313986002034337),
        quadratic_pair(3.388697230416737, 3.3804731641328023),
        quadratic_pair(3.0052653045655746, 3.8212284183827663),
    ]
    + POWER
)
IDS = [m.name for m in MAPS]
BUDGETS = Budgets(max_period=8, max_depth=3, grid_resolution=4096)


@pytest.fixture(scope="module", params=MAPS, ids=IDS)
def spec(request):
    return request.param


@functools.cache
def analysis(spec):
    return Analysis(spec, BUDGETS)


def chain(spec):
    return analysis(spec).seq.chain()


def records(spec):
    """The chain of spec plus constructed records of periods (2, 3), (1, 2)
    and (5, 4) around c."""
    c = spec.c
    made = [((c - 0.05, c + 0.07), 2, 3), ((c - 0.2, c + 0.1), 1, 2), ((c - 0.03, c + 0.04), 5, 4)]
    return chain(spec) + [
        RenormalizationRecord(J=J, period_a=p, period_b=q, regular=True, left_image=(0, 0), right_image=(0, 0))
        for J, p, q in made
    ]


# ---------------------------------------------------------------------------
# references


def ref_branch_inverse_array(spec, side, y):
    c = spec.c
    lo0, hi0 = (0.0, c) if side == "left" else (c, 1.0)
    ker = _kernels(spec)[side][1][0]
    y = np.asarray(y, dtype=float)
    lo = np.full(y.shape, lo0)
    hi = np.full(y.shape, hi0)
    bad = (y < ker(np.array(lo0)) - 1e-15) | (y > ker(np.array(hi0)) + 1e-15)
    for _ in range(80):
        m = 0.5 * (lo + hi)
        keep = ker(m) < y
        lo = np.where(keep, m, lo)
        hi = np.where(keep, hi, m)
    return np.where(bad, np.nan, 0.5 * (lo + hi))


def ref_trapping_region(spec, rec):
    """trapping_region(spec, rec) with renorm.TRAP_PROBE_POINTS = 0."""
    branch_inverse_array = ref_branch_inverse_array
    a, b = rec.J
    c = spec.c
    comps = []

    def walk(start, period):
        sides = []
        cur = start
        for _ in range(period):
            sides.append("left" if cur[1] <= c + spec.tolerance else "right")
            nxt = push_interval(spec, cur, 1)
            if nxt is None:
                break
            cur = nxt
        comps.append(rec.J)
        for i in range(1, len(sides)):
            lo, hi = rec.J
            for side in reversed(sides[i:]):
                vr_lo = branch_value(spec, side, 0.0 if side == "left" else c)
                vr_hi = branch_value(spec, side, c if side == "left" else 1.0)
                lo2 = min(max(lo, vr_lo), vr_hi)
                hi2 = min(max(hi, vr_lo), vr_hi)
                lo = float(branch_inverse_array(spec, side, np.array([lo2]))[0])
                hi = float(branch_inverse_array(spec, side, np.array([hi2]))[0])
            if not (math.isnan(lo) or math.isnan(hi)) and hi - lo > spec.tolerance:
                comps.append((lo, hi))

    walk((a, c), rec.period_a)
    walk((c, b), rec.period_b)
    uniq = []
    for iv in comps:
        if not any(abs(iv[0] - u[0]) <= 1e-9 and abs(iv[1] - u[1]) <= 1e-9 for u in uniq):
            uniq.append(iv)
    uniq.sort()
    return uniq


def ref_block_pullback(spec, L, sides):
    """The pullback of L along sides as stratum_blocks wrote it, None
    standing for its `continue`."""
    branch_inverse_array = ref_branch_inverse_array
    lo, hi = L
    for side in reversed(sides):
        lo = float(branch_inverse_array(spec, side, np.array([lo]))[0])
        hi = float(branch_inverse_array(spec, side, np.array([hi]))[0])
    if math.isnan(lo) or math.isnan(hi):
        return None
    return lo, hi


def ref_blocks(spec, L, sources, cap):
    """The block loop of stratum_blocks: (blocks, return steps)."""
    branch_inverse_array = ref_branch_inverse_array
    blocks = [L]
    steps = [0]
    for (u, v) in sources:
        for frac in (0.5, 0.25, 0.75, 0.125, 0.875):
            w = u + frac * (v - u)
            sides = _entry_sides(spec, w, L, cap)
            if sides is None:
                continue
            lo, hi = L
            for side in reversed(sides):
                lo = float(branch_inverse_array(spec, side, np.array([lo]))[0])
                hi = float(branch_inverse_array(spec, side, np.array([hi]))[0])
            if math.isnan(lo) or math.isnan(hi):
                continue
            if not any(abs(lo - b[0]) <= 1e-9 and abs(hi - b[1]) <= 1e-9 for b in blocks):
                img = push_interval(spec, (lo, hi), len(sides))
                if img is None or abs(img[0] - L[0]) > FULL_TOLERANCE or abs(img[1] - L[1]) > FULL_TOLERANCE:
                    continue
                blocks.append((lo, hi))
                steps.append(len(sides))
    return blocks, steps


def ref_gaps(spec, J, max_order=25, budget=100_000):
    branch_inverse_array = ref_branch_inverse_array
    lo, hi = J
    v0, v1 = critical_values(spec)
    tol = spec.tolerance
    out = [GapRecord(gap=J, order=0, image_is_J=True)]
    seen = {(round(lo, 12), round(hi, 12))}
    frontier = [(lo, hi)]
    depth = 0
    while frontier and depth < max_order and len(out) < budget:
        depth += 1
        nxt = []
        for (u, v) in frontier:
            for side, vmin, vmax in (("left", 0.0, v1), ("right", v0, 1.0)):
                if u < vmin - tol or v > vmax + tol:
                    continue
                uu = float(branch_inverse_array(spec, side, np.array([u]))[0])
                vv = float(branch_inverse_array(spec, side, np.array([v]))[0])
                if math.isnan(uu) or math.isnan(vv) or vv - uu <= 2 * tol:
                    continue
                if uu < hi and vv > lo:
                    continue
                key = (round(uu, 12), round(vv, 12))
                if key in seen:
                    continue
                seen.add(key)
                img = push_interval(spec, (uu, vv), depth)
                ok = img is not None and abs(img[0] - lo) <= FULL_TOLERANCE and abs(img[1] - hi) <= FULL_TOLERANCE
                shares = min(abs(uu - lo), abs(uu - hi), abs(vv - lo), abs(vv - hi)) <= 10 * tol
                out.append(GapRecord(gap=(uu, vv), order=depth, image_is_J=bool(ok), touches_boundary=shares))
                nxt.append((uu, vv))
                if len(out) >= budget:
                    break
        frontier = nxt
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:
        return f"{type(e).__name__}: {e}"


def counted():
    """A branch_inverse_array that counts its calls, and the count."""
    calls = [0]

    def wrapper(spec, side, y):
        calls[0] += 1
        return branch_inverse_array(spec, side, y)

    return wrapper, calls


# ---------------------------------------------------------------------------
# equivalence


def test_trapping_region_matches_reference(spec, monkeypatch):
    monkeypatch.setattr(renorm, "TRAP_PROBE_POINTS", 0)
    for rec in records(spec):
        assert outcome(trapping_region, spec, rec) == outcome(ref_trapping_region, spec, rec)


def test_stratum_blocks_match_reference(spec):
    recs = chain(spec)
    for s in range(1, len(recs) + 1):
        try:
            sb = stratum_blocks(analysis(spec), s)
        except (NoPeriodicOrbitFound, VariationalPrincipleViolated):
            continue
        sources = [(0.0, spec.c), (spec.c, 1.0)] if s == 1 else renormalization_cycle(spec, recs[s - 2])
        cap = max(64, 8 * BUDGETS.max_period)
        assert (sb.blocks, sb.return_steps) == ref_blocks(spec, sb.x0, sources, cap)


def test_gaps_match_reference(spec):
    # the last J is narrow enough that some of its preimages are not wider
    # than 2 * tolerance
    Js = [r.J for r in records(spec)] + [(spec.c - 3e-10, spec.c + 3e-10)]
    if 0.4 < spec.c < 0.6:
        Js.append((0.4, 0.6))
    for J in Js:
        assert gaps(spec, J, 5) == ref_gaps(spec, J, 5)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    spec=st.one_of(st.builds(quadratic_pair, st.floats(2.9, 4.0), st.floats(2.9, 4.0)), st.just(POWER[1])),
    h=st.tuples(st.floats(0.001, 0.2), st.floats(0.001, 0.2)),
    max_order=st.integers(1, 8),
)
def test_gaps_match_reference_on_random_maps(spec, h, max_order):
    """Random quadratic pairs and the power_form map with c = 0.4,
    a = (0.85, 0.8), alpha = (3.0, 2.2), around random J."""
    J = (spec.c - h[0], spec.c + h[1])
    assert gaps(spec, J, max_order) == ref_gaps(spec, J, max_order)


# ---------------------------------------------------------------------------
# the helper


def test_pull_back_maps_onto_interval(spec):
    c = spec.c
    J = (c - 0.01, c + 0.01)
    assert pull_back(spec, J, []) == J
    for path in (["left"], ["right"], ["left", "right"], ["right", "right", "left"]):
        pre = pull_back(spec, J, path)
        lo, hi = J
        for side in reversed(path):
            lo, hi = (float(branch_inverse_array(spec, side, np.array([e]))[0]) for e in (lo, hi))
        if pre is None:
            assert math.isnan(lo) or math.isnan(hi)
            continue
        assert pre == (lo, hi)
        # path[0] is taken first: pre lies on the side of path[0]
        assert (pre[1] <= c) == (path[0] == "left")
        img = push_interval(spec, pre, len(path))
        assert img == pytest.approx(J, abs=1e-9)


def test_pull_back_keeps_nan_of_a_middle_step():
    spec = POWER[0]
    J, path = (spec.c - 0.01, spec.c + 0.01), ["right", "right", "left"]
    assert pull_back(spec, J, path) is None
    # the old loop lost the NaN of the middle step and ended at c
    assert ref_block_pullback(spec, J, path) == pytest.approx((spec.c, spec.c))


def test_pull_back_none_outside_range(spec):
    v0, v1 = critical_values(spec)
    if v1 < 1.0 - 1e-9:
        assert pull_back(spec, (v1 - 1e-3, (v1 + 1.0) / 2), ["left"]) is None
    if v0 > 1e-9:
        assert pull_back(spec, (v0 / 2, v0 + 1e-3), ["right"]) is None
    assert pull_back(spec, (0.2, math.nan), ["right"]) is None


@pytest.mark.parametrize("spec", BUILTINS + POWER[:1], ids=lambda s: s.name)
def test_branch_inverse_nan_in_nan_out(spec):
    for side in ("left", "right"):
        y = np.array([math.nan, 0.3, math.nan, 1.5, -0.5])
        got = branch_inverse_array(spec, side, y)
        assert np.isnan(got[[0, 2, 3, 4]]).all()
        # the old mask let NaN through as a finite point
        assert not np.isnan(ref_branch_inverse_array(spec, side, y[:1])).any()
        finite = [1, 3, 4]
        assert np.array_equal(got[finite], ref_branch_inverse_array(spec, side, y[finite]), equal_nan=True)


# ---------------------------------------------------------------------------
# gaps budget and work


def test_gaps_respect_budget():
    spec = builtin_map("paper-example")
    J = (0.4, 0.6)
    full = gaps(spec, J, 25, 200)
    assert len(full) == 200
    for B in (1, 5, 10, 17, 64):
        got = gaps(spec, J, 25, B)
        assert got == full[:B] and len(got) <= B
    everything = gaps(spec, J, 6, 10**5)
    for B in (5, 10, 17, 64):
        assert gaps(spec, J, 6, B) == everything[:B]


def test_trapping_region_one_inversion_per_component(spec, monkeypatch):
    wrapper, calls = counted()
    monkeypatch.setattr(map_core, "branch_inverse_array", wrapper)
    monkeypatch.setattr(renorm, "TRAP_PROBE_POINTS", 0)
    for rec in records(spec):
        calls[0] = 0
        trapping_region(spec, rec)
        assert calls[0] <= (rec.period_a - 1) + (rec.period_b - 1)


def test_trapping_region_work_on_doubling_chain(monkeypatch):
    spec = embed_unimodal(logistic(3.566))
    recs = chain(spec)
    assert [(r.period_a, r.period_b) for r in recs] == [(2, 2), (4, 4), (8, 8)]
    wrapper, calls = counted()
    monkeypatch.setattr(map_core, "branch_inverse_array", wrapper)
    monkeypatch.setattr(renorm, "TRAP_PROBE_POINTS", 0)
    calls[0] = 0
    for rec in recs:
        trapping_region(spec, rec)
    assert calls[0] == 22


def test_gaps_two_inversions_per_level(spec, monkeypatch):
    """gaps inverts the ends of its whole frontier with one call per branch:
    two calls per level it expands, and no pull_back."""
    wrapper, calls = counted()
    monkeypatch.setattr(return_maps, "branch_inverse_array", wrapper)
    assert not hasattr(return_maps, "pull_back")
    c = spec.c
    for J in [r.J for r in records(spec)] + [(c - 0.1, c + 0.1)]:
        for max_order in (0, 1, 4, 7):
            calls[0] = 0
            full = gaps(spec, J, max_order)
            top = max(g.order for g in full)
            assert calls[0] == 2 * min(max_order, top + 1)
            # a budget cut ends the level of the first record it refuses
            for budget in (1, 3, 10):
                if len(full) > budget:
                    calls[0] = 0
                    assert gaps(spec, J, max_order, budget) == full[:budget]
                    assert calls[0] == 2 * full[budget].order
