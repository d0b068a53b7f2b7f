"""The renormalization search on one orbit table against the three catalog
scans it replaced: the old renorm._candidate_pairs, the critical-orbit
precheck loop of find_renormalizations and the old detect_degenerate, kept
here verbatim as references, save that the old detect_degenerate reads the
first `horizon` points of each critical orbit, as the shared walk does.
Also kept: the table search that indexed every pair passing the catalog
mask before the critical-orbit test, against which the search that decides
that test on the mask is pinned."""

import functools
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzlab import builtin_map, embed_unimodal, logistic, quadratic_pair, renorm
from lorenzlab.map_core import BranchSpec, LorenzMapSpec, critical_values
from lorenzlab.orbits import orbit_list
from lorenzlab.periodic import PeriodicOrbitRecord, find_periodic_points
from lorenzlab.renorm import DegenerateRecord
from lorenzlab.return_maps import push_interval


def power(c, a, alpha, name):
    return LorenzMapSpec(
        c=c,
        left=BranchSpec(kind="power_form", domain_side="left", a=a[0], alpha=alpha[0]),
        right=BranchSpec(kind="power_form", domain_side="right", a=a[1], alpha=alpha[1]),
        name=name,
    )


BUILTINS = ("paper-example", "logistic4-embed", "logistic3.4-embed")
MAPS = (
    [embed_unimodal(logistic(a)) for a in (3.2, 3.5, 3.55, 3.566, 3.7, 3.83, 3.9)]
    + [quadratic_pair(float(a), float(b)) for a, b in np.random.default_rng(7).uniform(3, 4, (24, 2))]
    + [
        quadratic_pair(a, b)
        for a, b in ((3.4, 4), (3.2, 3.9), (3.3, 3.95), (2.9, 4), (3.0, 3.6), (3.0052653045655746, 3.8212284183827663))
    ]
    + [
        power(0.45, (0.97, 0.9), (2.7, 1.9), "power-a"),
        power(0.4, (0.85, 0.8), (3.0, 2.2), "power-b"),
        power(0.5, (0.9, 0.9), (2, 2), "power-c"),
    ]
)
MAX_PERIOD = 8


@functools.cache
def catalog(spec):
    return find_periodic_points(spec, MAX_PERIOD, 4096)


@pytest.fixture(params=[*BUILTINS, *range(len(MAPS)), "empty"], ids=[*BUILTINS, *(m.name for m in MAPS), "empty"])
def case(request, cat1, cat2, cat3):
    """(spec, catalog, max_period): the builtins with the cached catalogs of
    conftest, the other maps at MAX_PERIOD, and paper-example with no orbits."""
    p = request.param
    if p in BUILTINS:
        return builtin_map(p), {"paper-example": cat1, "logistic4-embed": cat2, "logistic3.4-embed": cat3}[p], 12
    if p == "empty":
        return builtin_map("paper-example"), [], 12
    return MAPS[p], catalog(MAPS[p]), MAX_PERIOD


# ---------------------------------------------------------------------------
# references, verbatim but for their names


def ref_candidate_pairs(
    spec: LorenzMapSpec, catalog: list[PeriodicOrbitRecord]
) -> list[tuple[float, float, int, int]]:
    """Boundary candidates (a, b, period_a, period_b) from orbit pairs.

    a is an orbit's point adjacent to c from below, b another orbit's point
    adjacent from above; both orbits must stay clear of (a, b), which is an
    exact finite-set check on catalog orbits (no iteration needed). The
    orbit of a entering (a, b) at its first step already disqualifies any
    boundary period above 1, which prunes most pairs of expanding maps.
    """
    tol = spec.tolerance
    c = spec.c
    info = []
    for o in catalog:
        below = [p for p in o.points if p < c - tol]
        above = [p for p in o.points if p > c + tol]
        a = max(below) if below else None
        b = min(above) if above else None

        def successor(x):
            i = o.points.index(x)
            return o.points[(i + 1) % o.period]

        info.append(
            (
                a,
                b,
                o.period,
                successor(a) if a is not None else None,
                successor(b) if b is not None else None,
            )
        )
    pairs: dict[tuple[float, float], tuple[int, int]] = {}
    for (lo_i, hi_i, per_i, fa_i, _) in info:
        if lo_i is None:
            continue
        for (lo_j, hi_j, per_j, _, fb_j) in info:
            if hi_j is None:
                continue
            a, b = lo_i, hi_j
            if a <= tol and b >= 1.0 - tol:
                continue
            # orbit of a must not enter (a, b): its least point above c is >= b
            if hi_i is not None and hi_i < b - tol:
                continue
            # orbit of b must not enter (a, b): its greatest point below c is <= a
            if lo_j is not None and lo_j > a + tol:
                continue
            # unless a is fixed, f((a,c)) = (f(a), v1) must clear (a, b) at once
            if per_i > 1 and fa_i < b - tol:
                continue
            if per_j > 1 and fb_j > a + tol:
                continue
            key = (a, b)
            if key not in pairs:
                pairs[key] = (per_i, per_j)
    return sorted(
        ((a, b, la, rb) for (a, b), (la, rb) in pairs.items()),
        key=lambda t: t[0] - t[1],
    )


def ref_detect_degenerate(
    spec: LorenzMapSpec,
    max_period: int = 12,
    horizon: int = 10_000,
    catalog: list[PeriodicOrbitRecord] | None = None,
) -> DegenerateRecord | None:
    """Widest half-interval (alpha, c) or (c, alpha) with f^period(alpha)
    mapping it into itself while both the orbit of alpha and the opposite
    one-sided critical orbit stay clear of it."""
    tol = spec.tolerance
    c = spec.c
    if catalog is None:
        catalog = find_periodic_points(spec, max_period)
    v0, v1 = critical_values(spec)

    orbit_v0 = np.array(orbit_list(spec, v0, horizon))  # forward orbit of f(c+)
    orbit_v1 = np.array(orbit_list(spec, v1, horizon))  # forward orbit of f(c-)

    def avoids(arr: np.ndarray, lo: float, hi: float) -> bool:
        return not bool(np.any((arr > lo + tol) & (arr < hi - tol)))

    best: DegenerateRecord | None = None
    for o in catalog:
        if o.kind == "super":
            continue
        for p in o.points:
            if abs(p - c) <= tol:
                continue
            if p < c:
                I = (p, c)
                img = push_interval(spec, I, o.period)
                inside = img is not None and img[0] >= p - 10 * tol and img[1] <= c + 10 * tol
                opp = avoids(orbit_v0, *I)
            else:
                I = (c, p)
                img = push_interval(spec, I, o.period)
                inside = img is not None and img[0] >= c - 10 * tol and img[1] <= p + 10 * tol
                opp = avoids(orbit_v1, *I)
            if not (inside and opp):
                continue
            if not all(not (I[0] + tol < q < I[1] - tol) for q in o.points):
                continue
            if best is None or I[1] - I[0] > best.I[1] - best.I[0]:
                best = DegenerateRecord(
                    I=I, n=o.period, avoidance_horizon=horizon, boundary_point=p
                )
    return best


def ref_precheck(spec, catalog, pairs, max_period=12):
    # the critical-orbit precheck loop of find_renormalizations
    tol = spec.tolerance
    v0, v1 = critical_values(spec)

    steps = max(p.period for p in catalog) if catalog else max_period
    orb_v0 = orbit_list(spec, v0, steps + 1)
    orb_v1 = orbit_list(spec, v1, steps + 1)

    out = []
    for (a, b, la, rb) in pairs:
        if la > 1 and la - 1 < len(orb_v1) and not (a - tol <= orb_v1[la - 1] <= b + tol):
            continue
        if rb > 1 and rb - 1 < len(orb_v0) and not (a - tol <= orb_v0[rb - 1] <= b + tol):
            continue
        out.append((a, b, la, rb))
    return out


def ref_candidates(spec, catalog):
    return ref_precheck(spec, catalog, ref_candidate_pairs(spec, catalog))


def index_then_filter_pairs(
    spec: LorenzMapSpec, catalog: list[PeriodicOrbitRecord]
) -> list[tuple[float, float, int, int]]:
    """The table search that indexed every pair passing the catalog mask,
    deduped their (a, b) keys and then applied the critical-orbit test."""
    tol = spec.tolerance
    t = renorm._orbit_table(spec, catalog)
    # rows: the orbit of a; columns: the orbit of b
    a, b = t.a[:, None], t.b[None, :]
    ok = (
        ~np.isnan(a)
        & ~np.isnan(b)
        & ~((a <= tol) & (b >= 1.0 - tol))
        # orbit of a must not enter (a, b): its least point above c is >= b
        & ~(t.b[:, None] < b - tol)
        # orbit of b must not enter (a, b): its greatest point below c is <= a
        & ~(t.a[None, :] > a + tol)
        # unless a is fixed, f((a,c)) = (f(a), v1) must clear (a, b) at once
        & ~((t.period[:, None] > 1) & (t.fa[:, None] < b - tol))
        & ~((t.period[None, :] > 1) & (t.fb[None, :] > a + tol))
    )
    i, j = np.nonzero(ok)
    # the first pair of each (a, b) key in row-major order, as a dict keeps it
    ka, kb = (np.unique(x, return_inverse=True)[1] for x in (t.a, t.b))
    first = np.zeros(len(i), dtype=bool)
    first[np.unique(ka[i] * len(kb) + kb[j], return_index=True)[1]] = True
    i, j = i[first], j[first]
    a, b = t.a[i], t.b[j]
    # one-sided critical orbits: f^period(a)([a,c)) = (a, f^(period(a)-1)(v1))
    # when the side certifies, so the critical orbit must re-enter [a,b] at
    # exactly that time (NaN: no test)
    w1, w0 = t.w1[i], t.w0[j]
    ok = ~((w1 < a - tol) | (w1 > b + tol)) & ~((w0 < a - tol) | (w0 > b + tol))
    order = np.argsort(a[ok] - b[ok], kind="stable")  # widest first
    i, j = i[ok][order], j[ok][order]
    return list(zip(t.a[i].tolist(), t.b[j].tolist(), t.period[i].tolist(), t.period[j].tolist()))


# ---------------------------------------------------------------------------
# equivalence


def check(spec, catalog, max_period):
    got = renorm._candidate_pairs(spec, catalog)
    assert got == ref_candidates(spec, catalog)
    assert all(type(x) is float for t in got for x in t[:2]) and all(type(p) is int for t in got for p in t[2:])
    assert repr(renorm.detect_degenerate(spec, catalog=catalog)) == repr(
        ref_detect_degenerate(spec, max_period, catalog=catalog)
    )


def test_search_matches_reference(case, monkeypatch):
    spec, cat, max_period = case
    check(spec, cat, max_period)
    got = renorm.find_renormalizations(spec, max_period, 8, catalog=cat).to_dict()
    monkeypatch.setattr(renorm, "_candidate_pairs", ref_candidates)
    monkeypatch.setattr(renorm, "detect_degenerate", ref_detect_degenerate)
    assert got == renorm.find_renormalizations(spec, max_period, 8, catalog=cat).to_dict()


def test_pair_tests_match_reference_without_the_precheck(case, monkeypatch):
    # with every critical-orbit point unknown (NaN) the precheck keeps every
    # pair, and the list is the old unfiltered one
    spec, cat, _ = case
    table = renorm._orbit_table

    def unknown(spec, catalog):
        t = table(spec, catalog)
        return t._replace(w1=np.full_like(t.w1, np.nan), w0=np.full_like(t.w0, np.nan))

    monkeypatch.setattr(renorm, "_orbit_table", unknown)
    assert renorm._candidate_pairs(spec, cat) == ref_candidate_pairs(spec, cat)


def record(points, kind="repelling"):
    return PeriodicOrbitRecord(
        points=list(points), period=len(points), multiplier=2.0, kind=kind, side_word="0" * len(points)
    )


def test_constructed_catalogs_match_reference(ex1, cat1):
    c, tol = ex1.c, ex1.tolerance
    # dyadic fixed points: many pairs of equal width, so the order of ties
    # shows; repeated records and a 2-cycle through two of those points make
    # repeated (a, b) keys with different periods; points within tol of each
    # other and of c
    fixed = [record([k / 64]) for k in range(1, 64) if k != 32]
    close = [
        record([c - 0.1, c - 0.1 + 0.5 * tol, c + 0.2]),
        record([c - 0.5 * tol, c + 0.3]),
        record([c - 0.2, c + tol]),
    ]
    for cat in ([record([0.25, 0.75]), *fixed, *fixed[:9], *close], [*fixed[::-1], record([0.25, 0.75]), *close]):
        check(ex1, cat, 12)
        pairs = ref_candidate_pairs(ex1, cat)
        assert len({b - a for a, b, _, _ in pairs}) < len(pairs) and len(pairs) > 100
    # super orbits never bound a degenerate half-interval
    deg = renorm.detect_degenerate(ex1, catalog=cat1)
    marked = [record(o.points, "super") if deg.boundary_point in o.points else o for o in cat1]
    assert renorm.detect_degenerate(ex1, catalog=marked) == ref_detect_degenerate(ex1, 12, catalog=marked) != deg


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.floats(2.9, 4.0), st.floats(2.9, 4.0))
def test_random_quadratic_pairs_match_reference(a_left, a_right):
    spec = quadratic_pair(a_left, a_right)
    check(spec, find_periodic_points(spec, 6, 2048), 6)


def same_as_index_then_filter(spec, catalog):
    got = renorm._candidate_pairs(spec, catalog)
    assert pickle.dumps(got) == pickle.dumps(index_then_filter_pairs(spec, catalog))
    return got


@pytest.mark.parametrize("name", BUILTINS)
def test_mask_search_matches_index_then_filter_on_builtins(name, cat1, cat2, cat3):
    cat = {"paper-example": cat1, "logistic4-embed": cat2, "logistic3.4-embed": cat3}[name]
    same_as_index_then_filter(builtin_map(name), cat)


@pytest.mark.parametrize("pair", [tuple(p) for p in np.random.default_rng(3).uniform(3, 4, (12, 2)).tolist()])
def test_mask_search_matches_index_then_filter_on_quadratic_pairs(pair):
    spec = quadratic_pair(*pair)
    same_as_index_then_filter(spec, find_periodic_points(spec, 12))


def test_key_whose_first_pair_fails_the_critical_orbit_is_dropped(ex3):
    # on logistic3.4-embed f^(p-1)(v1) is 0.165 at p = 3 and 0.4685 at p = 4,
    # f^(p-1)(v0) is 0.835 at p = 3 and 0.5315 at p = 4: of orbits with
    # a = 0.3 (rows) or b = 0.6 (columns) the period-3 ones fail the test on
    # [0.3, 0.6] and the period-4 ones pass it. Fixed points have no test.
    a, b = 0.3, 0.6
    rows = {p: record([a, 0.9, 0.95, 0.97][:p]) for p in (3, 4)}
    cols = {p: record([b, 0.1, 0.05, 0.02][:p]) for p in (3, 4)}
    t = renorm._orbit_table(ex3, [rows[3], rows[4], cols[3], cols[4]])
    assert not (a <= t.w1[0] <= b) and a <= t.w1[1] <= b
    assert not (a <= t.w0[2] <= b) and a <= t.w0[3] <= b

    def keys(cat):
        return {(x, y): (p, q) for x, y, p, q in same_as_index_then_filter(ex3, cat)}

    # a shared, then b shared, then both: the row-major first pair of the
    # key fails, a later one passes, and the key is dropped
    for cat in (
        [rows[3], rows[4], record([b])],
        [record([a]), cols[3], cols[4]],
        [rows[4], rows[3], cols[3], cols[4]],
    ):
        assert (a, b) not in keys(cat)
        assert keys(cat) == {k: v for k, v in keys(cat[::-1]).items() if k != (a, b)}
    # the passing pair first, or alone, keeps its key
    assert keys([rows[4], rows[3], record([b])])[a, b] == (4, 1)
    assert keys([record([a]), cols[4], cols[3]])[a, b] == (1, 4)
    assert keys([rows[4], cols[4]])[a, b] == (4, 4)
    assert keys([rows[4], rows[3], cols[4], cols[3]])[a, b] == (4, 4)


def test_mask_search_peak_memory(ex2, cat2):
    # the 198,099 pairs of logistic4-embed that pass the catalog mask are not
    # indexed: that took 13.8 MB and the critical-orbit test then dropped all
    renorm._candidate_pairs(ex2, cat2)  # imports and caches, outside the count
    tracemalloc.start()
    try:
        assert renorm._candidate_pairs(ex2, cat2) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cat2) == 747 and peak < 5e6


def test_map_set_reaches_every_outcome():
    # chains, maximal non-regular intervals, degenerate half-intervals, and
    # pairs that the precheck drops next to pairs that it keeps
    seqs = [renorm.find_renormalizations(m, MAX_PERIOD, 8, catalog=catalog(m)) for m in MAPS]
    assert sum(len(s.intervals) >= 2 for s in seqs) >= 2
    assert sum(s.maximal_nonregular is not None for s in seqs) >= 5
    assert sum(s.degenerate is not None for s in seqs) >= 1
    counts = [(len(ref_candidate_pairs(m, catalog(m))), len(renorm._candidate_pairs(m, catalog(m)))) for m in MAPS]
    assert any(0 < kept < made for made, kept in counts)


# ---------------------------------------------------------------------------
# work


def count_pushes(monkeypatch, spec, catalog):
    calls = []

    def counting(*args):
        calls.append(args[1])
        return push_interval(*args)

    monkeypatch.setattr(renorm, "push_interval", counting)
    rec = renorm.detect_degenerate(spec, catalog=catalog)
    return calls, rec


def test_chaotic_map_pushes_only_the_fixed_points(ex2, cat2, monkeypatch):
    # on logistic4-embed (747 orbits) no pair survives the table, and only
    # the fixed points 0 and 1 reach the push: period 1 has no critical-orbit
    # test. The three scans made 198,099 pairs and 8,032 pushes.
    assert renorm._candidate_pairs(ex2, cat2) == []
    calls, rec = count_pushes(monkeypatch, ex2, cat2)
    assert sorted(calls) == [(0.0, ex2.c), (ex2.c, 1.0)]
    assert rec is None


def test_paper_example_pushes(ex1, cat1, monkeypatch):
    # the old per-point loop made 783 pushes
    calls, rec = count_pushes(monkeypatch, ex1, cat1)
    assert 0 < len(calls) <= 48
    assert rec is not None and rec.I in calls


def test_table_facts(ex1, cat1):
    t = renorm._orbit_table(ex1, cat1)
    c, tol = ex1.c, ex1.tolerance
    v0, v1 = critical_values(ex1)
    for k, o in enumerate(cat1):
        below = [p for p in o.points if p < c - tol]
        above = [p for p in o.points if p > c + tol]
        assert np.isnan(t.a[k]) if not below else t.a[k] == max(below)
        assert np.isnan(t.b[k]) if not above else t.b[k] == min(above)
        for x, orbit, w in ((t.a[k], o.points, t.fa[k]), (t.b[k], o.points, t.fb[k])):
            if not np.isnan(x):
                assert w == orbit[(orbit.index(x) + 1) % o.period]
        for v, w in ((v1, t.w1[k]), (v0, t.w0[k])):
            orb = orbit_list(ex1, v, o.period)
            assert np.isnan(w) if o.period == 1 or len(orb) < o.period else w == orb[-1]
