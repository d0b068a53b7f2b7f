"""The shared orbit walker, interval push and bisection helpers against the
hand-rolled loops they replaced in periodic, renorm, spectral, return_maps
and map_core, kept here verbatim as references."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzlab import builtin_map, embed_unimodal, logistic, periodic, quadratic_pair, renorm, return_maps, spectral
from lorenzlab.map_core import (
    BranchSpec,
    LorenzMapSpec,
    Side,
    _branch_inverse_scalar,
    _kernels,
    apply_raw,
    bisect,
    bisect_array,
    branch_inverse_array,
    branch_value,
    critical_values,
)
from lorenzlab.orbits import WALK_CHUNK, orbit_list
from lorenzlab.renorm import RenormalizationRecord
from test_orbit_table import ref_candidate_pairs  # the unfiltered pair list


def power(c, a_left, a_right, alpha_left, alpha_right, name):
    return LorenzMapSpec(
        c=c,
        left=BranchSpec(kind="power_form", domain_side="left", a=a_left, alpha=alpha_left),
        right=BranchSpec(kind="power_form", domain_side="right", a=a_right, alpha=alpha_right),
        name=name,
    )


MAPS = (
    [builtin_map(n) for n in ("paper-example", "logistic4-embed", "logistic3.4-embed")]
    + [quadratic_pair(float(a), float(b)) for a, b in np.random.default_rng(2024).uniform(3, 4, (6, 2))]
    + [power(0.45, 0.97, 0.9, 2.7, 1.9, "power-a"), power(0.4, 0.85, 0.8, 3.0, 2.2, "power-b")]
)
IDS = [m.name for m in MAPS]

# c is a fixed point of the left branch: (c, minus) is a super-attracting
# fixed point, and every orbit that lands at c closes up one-sided
SUPER = quadratic_pair(2.0, 3.5, name="super")


@pytest.fixture(scope="module", params=MAPS, ids=IDS)
def spec(request):
    return request.param


@functools.cache
def catalog(spec):
    return tuple(periodic.find_periodic_points(spec, 8, 4096))


def landing(spec, steps):
    """A point whose float orbit lands within tolerance of c after exactly
    `steps` steps (checked), or None."""
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


@functools.cache
def starts(spec):
    """(x, steps to a landing at c or None): c itself, landings after 3 and
    7 steps, the endpoints, generic points and points of the catalog (those
    last, with k = -1)."""
    out = [(spec.c, 0), (0.0, None), (1.0, None), (0.3141592653589793, None), (0.7182818284590452, None)]
    out += [(x, k) for k in (3, 7) if (x := landing(spec, k)) is not None]
    out += [(r.points[0], -1) for r in catalog(spec)[:8]]
    return tuple(out)


def lengths(k):
    """Walk lengths around a landing after k steps, and around WALK_CHUNK
    except from catalog points."""
    near = (k - 1, k, k + 1) if k and k > 0 else ()
    chunk = (WALK_CHUNK - 1, WALK_CHUNK, WALK_CHUNK + 1) if k != -1 else ()
    return sorted({n for n in (1, 2, 5, *near, *chunk) if n >= 1})


def test_landings_found():
    for s in MAPS:
        assert sum(k is not None and k >= 0 for _, k in starts(s)) == 3, s.name


# ---------------------------------------------------------------------------
# references: the replaced loops, verbatim


def ref_bisect_array(pred, lo, hi, rounds):
    for _ in range(rounds):
        m = 0.5 * (lo + hi)
        keep = pred(m)
        lo = np.where(keep, m, lo)
        hi = np.where(keep, hi, m)
    return lo, hi


def ref_branch_inverse_scalar(spec, side, y):
    c = spec.c
    lo, hi = (0.0, c) if side == "left" else (c, 1.0)
    ker = _kernels(spec)[side][0][0]
    flo, fhi = ker(lo), ker(hi)
    if not (flo - 1e-15 <= y <= fhi + 1e-15):
        return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ker(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ref_branch_inverse_array(spec, side, y):
    c = spec.c
    lo0, hi0 = (0.0, c) if side == "left" else (c, 1.0)
    ker = _kernels(spec)[side][1][0]
    y = np.asarray(y, dtype=float)
    lo = np.full(y.shape, lo0)
    hi = np.full(y.shape, hi0)
    bad = (y < ker(np.array(lo0)) - 1e-15) | (y > ker(np.array(hi0)) + 1e-15)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = ker(mid) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    return np.where(bad, np.nan, out)


def ref_directed_cycle(spec, x, n):
    tol = spec.tolerance
    for first_side in (Side.NONE, Side.MINUS, Side.PLUS):
        pts = [x]
        good = True
        used_side = False
        for _ in range(n):
            cur = pts[-1]
            if abs(cur - spec.c) <= tol:
                if first_side == Side.NONE or used_side:
                    good = False
                    break
                pts.append(apply_raw(spec, cur, first_side))
                used_side = True
            else:
                pts.append(apply_raw(spec, cur, Side.NONE))
        if good and abs(pts[n] - pts[0]) <= 10 * tol:
            return pts[:n]
        if first_side == Side.NONE and not any(abs(v - spec.c) <= tol for v in pts):
            return None  # undirected orbit complete but not closed
    return None


def ref_closure_gap(spec, v, n):
    # register.closure_gap and ref_polish_root.g
    y = v
    for _ in range(n):
        if abs(y - spec.c) <= spec.tolerance:
            return None
        y = apply_raw(spec, y, Side.NONE)
    return y - v


def ref_residual(spec, r):
    if "*" in r.side_word:
        return 0.0
    y = r.points[0]
    for _ in range(r.period):
        y = apply_raw(spec, y, Side.NONE)
    return abs(y - r.points[0])


def ref_polish_root(spec, x, n, h=2e-5):
    def g(v):
        y = v
        for _ in range(n):
            if abs(y - spec.c) <= spec.tolerance:
                return None
            y = apply_raw(spec, y, Side.NONE)
        return y - v

    a, b = max(x - h, 0.0), min(x + h, 1.0)
    ga, gb = g(a), g(b)
    if ga is None or gb is None:
        return x
    if (ga < 0) != (gb < 0):
        for _ in range(70):
            m = 0.5 * (a + b)
            gm = g(m)
            if gm is None:
                return x
            if (gm < 0) == (ga < 0):
                a = m
            else:
                b = m
        return 0.5 * (a + b)
    for _ in range(90):
        m1 = a + (b - a) / 3
        m2 = b - (b - a) / 3
        g1, g2 = g(m1), g(m2)
        if g1 is None or g2 is None:
            return x
        if abs(g1) < abs(g2):
            b = m2
        else:
            a = m1
    return 0.5 * (a + b)


def ref_roots_for_period(spec, n, resolution):
    _iterate_array = periodic._iterate_array
    grid = np.linspace(0.0, 1.0, resolution + 1)
    fn = _iterate_array(spec, grid, n)
    g = fn - grid
    ok = ~np.isnan(g)
    roots = []
    zero = ok & (np.abs(g) <= 10 * spec.tolerance)
    roots.extend(float(v) for v in grid[zero])
    s = np.sign(g)
    pair = ok[:-1] & ok[1:] & (s[:-1] * s[1:] < 0)
    lo = grid[:-1][pair].copy()
    hi = grid[1:][pair].copy()
    if lo.size:
        lo_neg = g[:-1][pair] < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            gm = _iterate_array(spec, mid, n) - mid
            move_lo = (gm < 0) == lo_neg
            lo = np.where(move_lo, mid, lo)
            hi = np.where(move_lo, hi, mid)
        roots.extend(float(v) for v in 0.5 * (lo + hi))
    absg = np.abs(g)
    cand = np.zeros(absg.shape, dtype=bool)
    cand[1:-1] = (
        ok[1:-1]
        & ok[:-2]
        & ok[2:]
        & (absg[1:-1] <= absg[:-2])
        & (absg[1:-1] <= absg[2:])
        & (absg[1:-1] < 1e-7)
    )
    for i in np.nonzero(cand)[0]:
        a, b = grid[i - 1], grid[i + 1]
        x = ref_tangency(spec, n, a, b)
        fx = float(_iterate_array(spec, np.array([x]), n)[0])
        if abs(fx - x) <= 10 * spec.tolerance:
            roots.append(x)
    return roots


def ref_find_periodic_points(spec, max_period=12, resolution=1 << 14):
    """periodic.find_periodic_points as it was before the registered-point
    index and the incremental grid: every root of f^n - id is registered,
    on f^n iterated from scratch for each n, and a failed Newton step falls
    back to a local root search."""
    from lorenzlab.map_core import derivative
    from lorenzlab.periodic import MAX_PERIOD, NEUTRAL_TOLERANCE, PeriodicOrbitRecord, _merge_radius

    _directed_cycle = ref_directed_cycle
    _closure_gap = ref_closure_gap
    _polish_root = ref_polish_root
    _neutral_probe = ref_neutral_probe
    _roots_for_period = ref_roots_for_period
    if max_period > MAX_PERIOD:
        raise ValueError(f"max_period capped at {MAX_PERIOD}")
    tol = spec.tolerance
    raw: list[PeriodicOrbitRecord] = []
    seen: set[tuple[int, int]] = set()

    def register(x: float, n: int):
        orbit = _directed_cycle(spec, x, n)
        if orbit is None:
            return
        # minimal period divides n
        period = n
        for d in range(1, n):
            if n % d == 0 and abs(orbit[d] - orbit[0]) <= 10 * tol:
                period = d
                break
        cycle = orbit[:period]
        start = int(np.argmin(cycle))
        cycle = cycle[start:] + cycle[:start]
        is_super = any(abs(p - spec.c) <= tol for p in cycle)
        if not is_super:
            # the rotation to the smallest point loses accuracy on strongly
            # repelling cycles (the root error is amplified along the way);
            # a guarded Newton step on f^period - id restores it cheaply
            mult0 = 1.0
            for p in cycle:
                if abs(p - spec.c) > tol:
                    mult0 *= derivative(spec, p)
            gap0 = _closure_gap(spec, cycle[0], period)
            if gap0 is not None and abs(gap0) > 10 * tol and abs(mult0 - 1.0) > 1e-3:
                x0 = cycle[0]
                g = gap0
                for _ in range(5):
                    step = g / (mult0 - 1.0)
                    if abs(step) > 1e-6:
                        break
                    x0 -= step
                    g = _closure_gap(spec, x0, period)
                    if g is None or abs(g) <= tol:
                        break
                if g is not None and abs(g) <= 10 * tol:
                    rebuilt = _directed_cycle(spec, x0, period)
                    if rebuilt is not None:
                        cycle = rebuilt
                else:
                    # the catalog has no such fallback: a catalog equal to
                    # this reference shows that the fallback changed nothing
                    x1 = _polish_root(spec, cycle[0], period)
                    rebuilt = _directed_cycle(spec, x1, period)
                    if rebuilt is not None:
                        cycle = rebuilt
        if is_super:
            mult = 0.0
            kind = "super"
        else:
            mult = 1.0
            for p in cycle:
                mult *= derivative(spec, p)
            if abs(abs(mult) - 1.0) <= NEUTRAL_TOLERANCE:
                kind = "neutral"
            elif abs(mult) < 1.0:
                kind = "attracting"
            else:
                kind = "repelling"
        # key on the sorted cycle: the rotation to the smallest point is
        # ambiguous when two cycle points nearly coincide, so min-point keys
        # would register the same orbit twice
        key = (period,) + tuple(int(round(p / 1e-7)) for p in sorted(cycle))
        if key in seen:
            return
        seen.add(key)
        bits = []
        for p in cycle:
            if abs(p - spec.c) <= tol:
                bits.append("*")
            else:
                bits.append("0" if p < spec.c else "1")
        raw.append(
            PeriodicOrbitRecord(
                points=cycle,
                period=period,
                multiplier=mult,
                kind=kind,
                side_word="".join(bits),
            )
        )

    # endpoint fixed points are part of the map's definition
    register(0.0, 1)
    register(1.0, 1)
    for n in range(1, max_period + 1):
        for x in _roots_for_period(spec, n, resolution):
            if 0.0 < x < 1.0:
                register(x, n)

    # stability-aware cluster merge: a tangential (near-neutral) root passes
    # the closure test over a wide basin, and rotated twins of one orbit can
    # survive the exact key; compare sorted cycles over a small neighbor
    # window in min-point order; a record whose orbit meets c ranks last
    def residual(r: PeriodicOrbitRecord) -> float:
        gap = 0.0 if "*" in r.side_word else _closure_gap(spec, r.points[0], r.period)
        return math.inf if gap is None else abs(gap)

    raw.sort(key=lambda r: (r.period, r.points[0]))
    res_cache = [residual(r) for r in raw]
    sorted_pts = [sorted(r.points) for r in raw]
    keep = [True] * len(raw)
    for i in range(len(raw)):
        if not keep[i]:
            continue
        j = i + 1
        while j < len(raw) and raw[j].period == raw[i].period:
            gap = raw[j].points[0] - raw[i].points[0]
            if gap > 2e-3:  # beyond the widest possible merge radius
                break
            if keep[j]:
                radius = max(_merge_radius(raw[i], tol), _merge_radius(raw[j], tol))
                if gap <= radius and max(
                    abs(a - b) for a, b in zip(sorted_pts[i], sorted_pts[j])
                ) <= radius:
                    if res_cache[j] < res_cache[i]:
                        raw[i], raw[j] = raw[j], raw[i]
                        res_cache[i], res_cache[j] = res_cache[j], res_cache[i]
                        sorted_pts[i], sorted_pts[j] = sorted_pts[j], sorted_pts[i]
                    keep[j] = False
            j += 1
    merged = [r for r, k in zip(raw, keep) if k]
    for rec in merged:
        if rec.kind == "neutral":
            rec.neutral_attracting_probe = _neutral_probe(spec, rec.points, rec.period)
    return merged


def ref_tangency(spec, n, a, b):
    _iterate_array = periodic._iterate_array
    for _ in range(80):
        m1 = a + (b - a) / 3
        m2 = b - (b - a) / 3
        g1 = abs(float(_iterate_array(spec, np.array([m1]), n)[0]) - m1)
        g2 = abs(float(_iterate_array(spec, np.array([m2]), n)[0]) - m2)
        if g1 < g2:
            b = m2
        else:
            a = m1
    return 0.5 * (a + b)


def ref_neutral_probe(spec, cycle, period):
    x = cycle[0] + 1e-6
    if x >= 1.0:
        x = cycle[0] - 1e-6
    tol = spec.tolerance
    for _ in range(4000 * period):
        if abs(x - spec.c) <= tol:
            return False
        x = apply_raw(spec, x, Side.NONE)
    return min(abs(x - p) for p in cycle) < 1e-4


def ref_short_orbit(spec, start, steps):
    # find_renormalizations.short_orbit
    pts = [start]
    x = start
    for _ in range(steps):
        if abs(x - spec.c) <= spec.tolerance:
            break
        x = apply_raw(spec, x, Side.NONE)
        pts.append(x)
    return pts


def ref_one_sided_images(spec, J, la, rb):
    a, b = J
    tol = spec.tolerance
    c = spec.c

    def track(u, v, steps):
        for k in range(steps):
            if u + tol < c < v - tol:
                return None
            if k > 0 and u > a + tol and v < b - tol:
                return None  # early return into J: not a single return branch
            side = "left" if v <= c + tol else "right"
            lo_d, hi_d = (0.0, c) if side == "left" else (c, 1.0)
            u = min(max(branch_value(spec, side, min(max(u, lo_d), hi_d)), 0.0), 1.0)
            v = min(max(branch_value(spec, side, min(max(v, lo_d), hi_d)), 0.0), 1.0)
        return (u, v)

    li = track(a, c, la)
    ri = track(c, b, rb)
    return li, ri, li is not None and ri is not None


def ref_boundary_orbit_avoids(spec, start, J, horizon):
    lo, hi = J
    tol = spec.tolerance
    x = start
    period = None
    for k in range(1, horizon + 1):
        if abs(x - spec.c) <= tol:
            return True, period, True
        x = apply_raw(spec, x, Side.NONE)
        if lo + tol < x < hi - tol:
            return False, None, False
        if abs(x - start) <= 10 * tol:
            return True, k, False
    return True, None, False


def ref_is_nice(spec, J, horizon):
    lo, hi = J
    ok_a, per_a, hit_a = ref_boundary_orbit_avoids(spec, lo, J, horizon)
    ok_b, per_b, hit_b = ref_boundary_orbit_avoids(spec, hi, J, horizon)
    return ok_a and ok_b, (per_a, per_b), hit_a or hit_b


def ref_is_renormalization(spec, J, horizon=10_000, catalog=None, max_period=12):
    a, b = J
    tol = spec.tolerance
    if not (a < spec.c < b):
        return False, None, "c not inside J"
    if a <= tol and b >= 1.0 - tol:
        return False, None, "whole interval is not a proper renormalization"

    def detect_period(x):
        y = x
        for k in range(1, horizon + 1):
            if abs(y - spec.c) <= tol:
                return None
            y = apply_raw(spec, y, Side.NONE)
            if abs(y - x) <= 10 * tol:
                return k
            if k > max(64, 4 * max_period):
                return None
        return None

    la = detect_period(a)
    rb = detect_period(b)
    if la is None or rb is None:
        return False, None, f"boundary not periodic within budget (periods {la}, {rb})"
    if not ref_is_nice(spec, J, horizon)[0]:
        return False, None, "boundary orbit re-enters J"
    li, ri, clean = ref_one_sided_images(spec, J, la, rb)
    if not clean:
        return False, None, "one-sided image split at c or returned early"
    if not (li[0] >= a - 10 * tol and li[1] <= b + 10 * tol):
        return False, None, f"f^{la}([a,c)) = {li} not inside [a,b]"
    if not (ri[0] >= a - 10 * tol and ri[1] <= b + 10 * tol):
        return False, None, f"f^{rb}((c,b]) = {ri} not inside [a,b]"
    regular = (li[1] > spec.c + tol) and (ri[0] < spec.c - tol)
    rec = RenormalizationRecord(
        J=J, period_a=la, period_b=rb, regular=regular, left_image=li, right_image=ri
    )
    return True, rec, "ok"


def ref_certify(spec, a, b, la, rb):
    # the inclusion block of find_renormalizations
    tol = spec.tolerance
    li, ri, clean = ref_one_sided_images(spec, (a, b), la, rb)
    if not clean:
        return None
    if not (li[0] >= a - 10 * tol and li[1] <= b + 10 * tol):
        return None
    if not (ri[0] >= a - 10 * tol and ri[1] <= b + 10 * tol):
        return None
    return RenormalizationRecord(
        J=(a, b),
        period_a=la,
        period_b=rb,
        regular=(li[1] > spec.c + tol) and (ri[0] < spec.c - tol),
        left_image=li,
        right_image=ri,
    )


def ref_invariance_probe(spec, uniq, rng, probe_points, probe_steps):
    c = spec.c
    for _ in range(probe_points):
        k = int(rng.integers(0, len(uniq)))
        lo, hi = uniq[k]
        x = float(rng.uniform(lo, hi))
        for _ in range(probe_steps):
            if abs(x - c) <= spec.tolerance:
                break
            x = apply_raw(spec, x, Side.NONE)
            if not any(u[0] - 1e-9 <= x <= u[1] + 1e-9 for u in uniq):
                raise ValueError(f"invariance probe left the trapping region at x={x}")
    return uniq


def ref_push_interval(spec, interval, steps):
    # return_maps.push_interval
    u, v = interval
    c, tol = spec.c, spec.tolerance
    for _ in range(steps):
        if u + tol < c < v - tol:
            return None
        if v <= c + tol:
            side, lo_d, hi_d = "left", 0.0, c
        else:
            side, lo_d, hi_d = "right", c, 1.0
        u = branch_value(spec, side, min(max(u, lo_d), hi_d))
        v = branch_value(spec, side, min(max(v, lo_d), hi_d))
        u = min(max(u, 0.0), 1.0)
        v = min(max(v, 0.0), 1.0)
    return (u, v)


def ref_renormalization_cycle(spec, rec):
    # renorm.renormalization_cycle
    a, b = rec.J
    c = spec.c
    comps = []
    cur = (a, c)
    for _ in range(rec.period_a):
        comps.append(cur)
        nxt = return_maps.push_interval(spec, cur, 1)
        cur = nxt if nxt is not None else cur
    cur = (c, b)
    for _ in range(rec.period_b):
        comps.append(cur)
        nxt = return_maps.push_interval(spec, cur, 1)
        cur = nxt if nxt is not None else cur
    # pairwise-disjointness audit (shared endpoints allowed)
    tol = max(spec.tolerance * 10, 1e-9)
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            lo = max(comps[i][0], comps[j][0])
            hi = min(comps[i][1], comps[j][1])
            if hi - lo > tol and not (
                abs(comps[i][0] - comps[j][0]) <= tol and abs(comps[i][1] - comps[j][1]) <= tol
            ):
                raise ValueError(
                    f"cycle components {comps[i]} and {comps[j]} overlap beyond tolerance"
                )
    return comps


def ref_entry_sides(spec, x, L, cap):
    tol = spec.tolerance
    sides = []
    y = x
    for _ in range(cap):
        if L[0] + tol < y < L[1] - tol:
            return sides
        if abs(y - spec.c) <= tol:
            return None
        sides.append("left" if y < spec.c else "right")
        y = apply_raw(spec, y, Side.NONE)
    return None


def ref_annulus_end(spec, u, per_lo):
    # one end of the decompose annuli loop
    tol = spec.tolerance
    for _ in range(per_lo - 1):
        u = apply_raw(spec, u, Side.NONE) if abs(u - spec.c) > tol else u
    return u


def ref_order(spec, I, horizon=1000):
    u, v = I
    if not (u < v):
        raise ValueError("empty interval")
    tol = spec.tolerance
    for k in range(horizon + 1):
        if u + tol < spec.c < v - tol:
            return k
        side = "left" if v <= spec.c + tol else "right"
        u = min(max(branch_value(spec, side, max(u, 0.0) if side == "left" else max(u, spec.c)), 0.0), 1.0)
        v = min(max(branch_value(spec, side, min(v, spec.c) if side == "left" else min(v, 1.0)), 0.0), 1.0)
        if v - u <= 2 * tol:
            return None  # collapsed below resolution, cannot cover c
    return None


def ref_branch_path(spec, x, steps):
    path = []
    for _ in range(steps):
        if abs(x - spec.c) <= spec.tolerance:
            return None
        side = "left" if x < spec.c else "right"
        path.append(side)
        x = apply_raw(spec, x, Side.NONE)
    return path


def ref_polish_edge(spec, x_in, x_out, path, target):
    _apply_path = return_maps._apply_path
    v_in = _apply_path(spec, x_in, path)
    v_out = _apply_path(spec, x_out, path)
    if not (min(v_in, v_out) - 1e-12 <= target <= max(v_in, v_out) + 1e-12):
        return x_in
    a, b = x_in, x_out
    for _ in range(70):
        m = 0.5 * (a + b)
        vm = _apply_path(spec, m, path)
        if (vm < target) == (v_in < target):
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def ref_edge_bisection(spec, J, x_in, x_out, bt):
    # the lockstep edge bisection of first_return_map
    for _ in range(60):
        m = 0.5 * (x_in + x_out)
        ok = return_maps._return_times(spec, m, J, bt) == bt
        x_in = np.where(ok, m, x_in)
        x_out = np.where(ok, x_out, m)
    return x_in, x_out


# ---------------------------------------------------------------------------
# bisection


def test_bisect_helpers_both_orientations():
    pred = lambda m: m < math.pi / 4  # noqa: E731
    for a, b in ((0.0, 1.0), (1.0, 0.0)):
        want_a, want_b = a, b
        for _ in range(60):
            m = 0.5 * (want_a + want_b)
            if (m < math.pi / 4) == (a < b):
                want_a = m
            else:
                want_b = m
        keep = pred if a < b else (lambda m: not pred(m))
        assert bisect(keep, a, b, 60) == 0.5 * (want_a + want_b)
        lo, hi = bisect_array(lambda m: np.vectorize(keep)(m), np.array([a]), np.array([b]), 60)
        assert (lo[0], hi[0]) == (want_a, want_b)
    assert bisect(lambda m: None if m > 0.7 else True, 0.0, 1.0, 10) is None
    assert bisect(lambda m: True, 0.0, 1.0, 0) == 0.5


def bisect_cases():
    """(lo, hi, per-bracket threshold) arrays: random brackets in both
    orientations, NaN ends, brackets already collapsed to one float and to
    adjacent floats, and signed zeros."""
    rng = np.random.default_rng(13)
    lo, hi = rng.uniform(0.0, 1.0, (2, 64))
    lo[:4], hi[4:8] = np.nan, np.nan
    lo[8:12] = hi[8:12]
    hi[12:16] = np.nextafter(lo[12:16], 2.0)
    lo[16:20] = np.nextafter(hi[16:20], -1.0)
    lo[20:22], hi[20:22] = -0.0, 0.0
    lo[22], hi[22] = 0.0, 5e-324
    t = rng.uniform(0.0, 1.0, 64)
    t[24:32] = lo[24:32]  # the threshold on a bracket end
    yield lo, hi, t
    yield lo[30], hi[30], t[30]  # 0-d
    yield lo.reshape(8, 8), hi.reshape(8, 8), t.reshape(8, 8)


def test_bisect_array_matches_fixed_rounds():
    def same_bits(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))

    for lo, hi, t in bisect_cases():
        flip = (np.asarray(t) * 1e3).astype(int) % 2 == 0
        lo0, hi0 = np.copy(lo), np.copy(hi)
        preds = [
            (lambda m: m < 0.3, lambda m: m < 0.3, ()),
            (lambda m: np.sin(1e3 * m) > 0, lambda m: np.sin(1e3 * m) > 0, ()),
            (lambda m, t: m < t, lambda m: m < t, (t,)),
            (lambda m, t, f: (m < t) == f, lambda m: (m < t) == flip, (t, flip)),
        ]
        for pred, ref_pred, per_bracket in preds:
            for rounds in (0, 1, 60, 80):
                got = bisect_array(pred, lo, hi, rounds, *per_bracket)
                want = ref_bisect_array(ref_pred, lo, hi, rounds)
                assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert same_bits(lo, lo0) and same_bits(hi, hi0)


def test_branch_inverses_match_reference(spec):
    v0, v1 = critical_values(spec)
    ys = np.concatenate([np.linspace(-0.01, 1.01, 203), [0.0, 1.0, v0, v1, v0 - 1e-16, v1 + 1e-16]])
    for side in ("left", "right"):
        got = branch_inverse_array(spec, side, ys)
        want = ref_branch_inverse_array(spec, side, ys)
        assert np.array_equal(got, want, equal_nan=True)
        assert [_branch_inverse_scalar(spec, side, float(y)) for y in ys] == [
            ref_branch_inverse_scalar(spec, side, float(y)) for y in ys
        ]


def test_ternary_min_matches_tangency_reference(spec):
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        grid = np.linspace(0.0, 1.0, 65)
        for i in rng.integers(1, 64, 4):
            def gap(v):
                return float(periodic._iterate_array(spec, np.array([v]), n)[0]) - v

            got = periodic._ternary_min(gap, grid[i - 1], grid[i + 1], 80)
            assert got == ref_tangency(spec, n, grid[i - 1], grid[i + 1])


# ---------------------------------------------------------------------------
# periodic


def test_roots_for_period_match_reference(spec):
    for n in range(1, 7):
        fn = periodic._iterate_array(spec, np.linspace(0.0, 1.0, 1025), n)
        got = periodic._roots_for_period(spec, n, 1024, fn, lambda x: False)
        assert got == ref_roots_for_period(spec, n, 1024)


def test_directed_cycle_and_closure_gap_match_reference(spec):
    for x, k in starts(spec):
        for n in sorted({1, 2, 3, 5, 8} | ({k - 1, k, k + 1} if k and k > 0 else set())):
            if n < 1:
                continue
            assert periodic._directed_cycle(spec, x, n) == ref_directed_cycle(spec, x, n)
            assert periodic._closure_gap(spec, x, n) == ref_closure_gap(spec, x, n)
    for r in catalog(spec):
        for p in r.points:
            assert periodic._directed_cycle(spec, p, r.period) == ref_directed_cycle(spec, p, r.period)


def test_directed_cycle_through_c_matches_reference():
    spec = SUPER
    for x, k in [(spec.c, 0)] + [(landing(spec, k), k) for k in (2, 4)]:
        for n in (1, 2, 3, 4, 5, 6):
            got = periodic._directed_cycle(spec, x, n)
            assert got == ref_directed_cycle(spec, x, n)
            assert periodic._closure_gap(spec, x, n) == ref_closure_gap(spec, x, n)
    assert periodic._directed_cycle(spec, spec.c, 1) == [spec.c]


def test_residual_and_neutral_probe_match_reference(spec):
    for r in catalog(spec):
        gap = 0.0 if "*" in r.side_word else periodic._closure_gap(spec, r.points[0], r.period)
        assert abs(gap) == ref_residual(spec, r)
        if r.period <= 2:
            assert periodic._neutral_probe(spec, r.points, r.period) == ref_neutral_probe(
                spec, r.points, r.period
            )
    # a perturbed start that lands at c, inside the probe's horizon
    for x, k in starts(spec):
        if k and k > 0:
            cycle = [x - 1e-6]
            assert periodic._neutral_probe(spec, cycle, 1) == ref_neutral_probe(spec, cycle, 1)


def test_catalog_matches_reference(spec):
    got = [r.to_dict() for r in catalog(spec)]
    assert got == [r.to_dict() for r in ref_find_periodic_points(spec, 8, 4096)]


def test_builtin_catalogs_match_reference(ex1, ex2, ex3, cat1, cat2, cat3):
    for s, cat in ((ex1, cat1), (ex2, cat2), (ex3, cat3)):
        assert [r.to_dict() for r in cat] == [r.to_dict() for r in ref_find_periodic_points(s, 12, 1 << 14)]


def test_neutral_catalog_matches_reference():
    # the period-2 orbit of the logistic map at a = 3 has multiplier 1: its
    # closure test passes over a basin about 1e-3 wide, where roots found at
    # later periods register better-closing twins that win the merge
    spec = embed_unimodal(logistic(3.0))
    got = [r.to_dict() for r in periodic.find_periodic_points(spec, 12, 1 << 14)]
    assert got == [r.to_dict() for r in ref_find_periodic_points(spec, 12, 1 << 14)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(2.9, 4.0), st.floats(2.9, 4.0), st.integers(1, 6))
def test_catalog_property(a_left, a_right, max_period):
    spec = quadratic_pair(a_left, a_right)
    tol = spec.tolerance
    cat = periodic.find_periodic_points(spec, max_period, 2048)
    got = [r.to_dict() for r in cat]
    assert got == [r.to_dict() for r in ref_find_periodic_points(spec, max_period, 2048)]
    assert got == [r.to_dict() for r in periodic.find_periodic_points(spec, max_period, 2048)]
    for r in cat:
        if r.kind == "super":
            continue
        orbit = orbit_list(spec, r.points[0], r.period + 1)
        assert len(orbit) == r.period + 1 and abs(orbit[-1] - orbit[0]) <= 10 * tol
        for d in range(1, r.period):
            if r.period % d == 0:
                assert abs(orbit[d] - orbit[0]) > 10 * tol, f"period {r.period} closes at {d}"


# ---------------------------------------------------------------------------
# renorm


def test_one_sided_images_and_certification_match_reference(spec):
    cands = ref_candidate_pairs(spec, list(catalog(spec)))[:40]
    rng = np.random.default_rng(3)
    c = spec.c
    cands += [(c - float(u), c + float(v), int(p), int(q)) for u, v, p, q in zip(
        rng.uniform(0.001, 0.3, 20), rng.uniform(0.001, 0.3, 20), rng.integers(0, 9, 20), rng.integers(0, 9, 20)
    )]
    for a, b, la, rb in cands:
        assert renorm._one_sided_images(spec, (a, b), la, rb) == ref_one_sided_images(spec, (a, b), la, rb)
        got = renorm._certify(spec, (a, b), la, rb)
        want = ref_certify(spec, a, b, la, rb)
        assert (None if isinstance(got, str) else got) == want


def test_is_renormalization_matches_reference(spec):
    c = spec.c
    Js = [(a, b) for a, b, _, _ in ref_candidate_pairs(spec, list(catalog(spec)))[:12]]
    Js += [(c - 0.1, c + 0.1), (0.0, 1.0), (0.2, 0.3), (c - 0.2, c + 0.05)]
    Js += [(x, c + 0.2) for x, k in starts(spec) if k and k > 0 and x < c]
    Js += [(c - 0.2, x) for x, k in starts(spec) if k and k > 0 and x > c]
    for J in Js:
        for horizon, max_period in ((10_000, 12), (10_000, 1), (3, 12), (65, 12), (66, 8)):
            got = renorm.is_renormalization(spec, J, horizon, max_period)
            assert got == ref_is_renormalization(spec, J, horizon, None, max_period)


def test_boundary_period_at_the_cap_matches_reference():
    # a rotation by 1/65 as a two-branch map: every orbit closes up at step
    # 65, one past the boundary-period cap max(64, 4 * max_period) = 64
    w = 1.0 / 65
    spec = LorenzMapSpec(
        c=1.0 - w,
        left=BranchSpec(kind="polynomial", domain_side="left", coefficients=(w, 1.0)),
        right=BranchSpec(kind="polynomial", domain_side="right", coefficients=(w - 1.0, 1.0)),
        name="rotation",
    )
    J = (spec.c - 0.3, spec.c + 0.005)
    for horizon in (64, 65, 66, 10_000):
        for max_period in (12, 16, 17):
            got = renorm.is_renormalization(spec, J, horizon, max_period)
            assert got == ref_is_renormalization(spec, J, horizon, None, max_period)
    assert "not periodic" in renorm.is_renormalization(spec, J, 64, 12)[2]
    assert "not periodic" not in renorm.is_renormalization(spec, J, 65, 12)[2]


def test_short_orbit_matches_reference(spec):
    v0, v1 = critical_values(spec)
    for x, k in [*starts(spec), (v0, None), (v1, None)]:
        for steps in sorted({0, 1, 8, 12} | ({k - 1, k, k + 1} if k and k > 0 else set())):
            if steps >= 0:
                assert orbit_list(spec, x, steps + 1) == ref_short_orbit(spec, x, steps)


def test_trapping_region_probe_matches_reference(spec):
    seq = renorm.find_renormalizations(spec, 8, 8, 10_000, catalog=list(catalog(spec)))
    c = spec.c
    recs = seq.chain() + [
        RenormalizationRecord(J=(c - 0.05, c + 0.07), period_a=2, period_b=3, regular=True,
                              left_image=(0, 0), right_image=(0, 0)),
        RenormalizationRecord(J=(c - 0.2, c + 0.1), period_a=1, period_b=2, regular=True,
                              left_image=(0, 0), right_image=(0, 0)),
    ]  # fmt: skip
    for rec in recs:
        uniq = renorm.trapping_region(spec, rec, probe_points=0)
        for seed, points, steps in ((0, 100, 100), (1, 30, WALK_CHUNK + 1), (2, 50, 1), (3, 50, 2), (4, 50, 3)):
            try:
                got = renorm.trapping_region(spec, rec, points, steps, np.random.default_rng(seed))
            except ValueError as e:
                got = str(e)
            try:
                want = ref_invariance_probe(spec, uniq, np.random.default_rng(seed), points, steps)
            except ValueError as e:
                want = str(e)
            assert got == want


def made_record(J, period_a, period_b):
    return RenormalizationRecord(J=J, period_a=period_a, period_b=period_b, regular=True,
                                 left_image=(0, 0), right_image=(0, 0))  # fmt: skip


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


def test_renormalization_cycle_matches_reference(spec):
    c = spec.c
    chain = renorm.find_renormalizations(spec, 8, 8, 10_000, catalog=list(catalog(spec))).chain()
    made = [((c - 0.05, c + 0.07), 2, 3), ((c - 0.2, c + 0.1), 1, 2), ((c - 0.03, c + 0.04), 5, 4)]
    made += [((c - 0.1, c + 0.02), 3, 6), ((c - 0.05, c + 0.05), 0, 1)]
    # images that straddle c on several maps
    made += [((c - 0.2, c + 0.2), 4, 4), ((c - 0.3, c + 0.25), 4, 2)]
    for rec in chain + [made_record(*m) for m in made]:
        got = outcome(renorm.renormalization_cycle, spec, rec)
        assert got == outcome(ref_renormalization_cycle, spec, rec)
        assert isinstance(got, str) or len(got) == rec.period_a + rec.period_b


def test_renormalization_cycle_through_a_straddle_matches_reference():
    # f^2((0.3, c)) = (0.4624, 1) straddles c: both versions repeat it and
    # then find it overlapping f((0.3, c)) = (0.84, 1)
    spec = builtin_map("logistic4-embed")
    rec = made_record((0.3, 0.6), 4, 2)
    images = return_maps.push_orbit(spec, (0.3, spec.c), 3)
    assert len(images) == 3 and return_maps.interval_side(spec, images[-1]) is None
    with pytest.raises(ValueError, match="overlap") as got:
        renorm.renormalization_cycle(spec, rec)
    with pytest.raises(ValueError, match="overlap") as want:
        ref_renormalization_cycle(spec, rec)
    assert str(got.value) == str(want.value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.floats(2.9, 4.0), st.floats(2.9, 4.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 12)
)  # fmt: skip
def test_push_orbit_property(a_left, a_right, x, y, n):
    spec = quadratic_pair(a_left, a_right)
    I = (min(x, y), max(x, y))
    orbit = return_maps.push_orbit(spec, I, n)
    assert 1 <= len(orbit) <= n + 1
    # only the last image may straddle c, and it does when the push ended early
    assert all(return_maps.interval_side(spec, iv) is not None for iv in orbit[:-1])
    assert len(orbit) == n + 1 or return_maps.interval_side(spec, orbit[-1]) is None
    for k in range(n + 1):
        want = orbit[k] if k < len(orbit) else None
        assert return_maps.push_interval(spec, I, k) == want == ref_push_interval(spec, I, k)


# ---------------------------------------------------------------------------
# spectral


def test_entry_sides_match_reference(spec):
    c = spec.c
    Ls = [(c - 0.05, c + 0.05), (c - 0.2, c + 0.01), (c - 1e-3, c + 2e-3)]
    for L in Ls:
        for x, k in starts(spec):
            for cap in lengths(k) + [64]:
                assert spectral._entry_sides(spec, x, L, cap) == ref_entry_sides(spec, x, L, cap)


def test_annulus_ends_match_reference(spec):
    v0, v1 = critical_values(spec)
    for x, k in [*starts(spec), (v0, None), (v1, None)]:
        for per in sorted({1, 2, 3, 8} | ({k, k + 1, k + 2} if k and k > 0 else set())):
            assert orbit_list(spec, x, per)[-1] == ref_annulus_end(spec, x, per)


# ---------------------------------------------------------------------------
# return_maps


def test_order_matches_reference(spec):
    rng = np.random.default_rng(9)
    c, tol = spec.c, spec.tolerance
    Is = [(0.0, 0.01), (0.99, 1.0), (c - 0.01, c + 0.01), (c, c + 0.01), (c - 0.01, c), (c - tol, c + tol / 2)]
    Is += [(c + tol / 4, c + tol / 2), (0.3, 0.3 + 3 * tol)]
    Is += [tuple(sorted(p)) for p in rng.uniform(0, 1, (30, 2))]
    Is += [(float(x), float(x) + float(w)) for x, w in zip(rng.uniform(0, 0.99, 30), 10.0 ** -rng.uniform(2, 9, 30))]
    for I in Is:
        for horizon in (0, 1, 5, 1000):
            try:
                want = ref_order(spec, I, horizon)
            except TypeError:
                # the loop evaluated a power-form left branch right of c (a
                # complex power); push_interval clamps to c, and the
                # interval collapses
                assert spec.left.kind == "power_form" and spec.c < I[0] < I[1] <= spec.c + tol
                want = None
            assert return_maps.order(spec, I, horizon) == want
    with pytest.raises(ValueError):
        return_maps.order(spec, (0.4, 0.4))


def test_boundary_orbit_avoids_matches_reference(spec):
    c = spec.c
    Js = [(c - 0.1, c + 0.1), (c - 1e-9, c + 1e-9), (0.5 * c, c + 0.3)]
    for J in Js:
        for x, k in starts(spec):
            for horizon in [0] + lengths(k):
                got = return_maps._boundary_orbit_avoids(spec, x, J, horizon)
                assert got == ref_boundary_orbit_avoids(spec, x, J, horizon)


def test_branch_path_matches_reference(spec):
    for x, k in starts(spec):
        for steps in [0] + lengths(k):
            assert return_maps._branch_path(spec, x, steps) == ref_branch_path(spec, x, steps)


def test_polish_edge_matches_reference(spec):
    rng = np.random.default_rng(4)
    for x in rng.uniform(0, 1, 12):
        path = return_maps._branch_path(spec, float(x), 3)
        if path is None:
            continue
        for dx in (1e-7, -1e-7, 1e-3, -1e-3):
            x_in, x_out = float(x), float(x) + dx
            v_in = return_maps._apply_path(spec, x_in, path)
            v_out = return_maps._apply_path(spec, x_out, path)
            for target in (0.5 * (v_in + v_out), v_in, v_out + 2 * (v_out - v_in)):
                got = return_maps._polish_edge(spec, x_in, x_out, path, target)
                assert got == ref_polish_edge(spec, x_in, x_out, path, target)


def test_edge_bisection_matches_reference(spec):
    c = spec.c
    J = (c - 0.12, c + 0.09)
    xs = np.linspace(0.0, 1.0, 257)
    times = return_maps._return_times(spec, xs, J, 200)
    edge = np.flatnonzero((times[1:] != times[:-1]) & (times[:-1] > 0))
    # (x_in, x_out) brackets on both sides of each time change
    x_in = np.concatenate([xs[edge], xs[edge + 1]])
    x_out = np.concatenate([xs[edge + 1], xs[edge]])
    bt = np.concatenate([times[edge], times[edge + 1]])
    assert x_in.size
    got = bisect_array(lambda m, t: return_maps._return_times(spec, m, J, t) == t, x_in, x_out, 60, bt)
    want = ref_edge_bisection(spec, J, x_in, x_out, bt)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
