"""Periodic orbit search and classification on monotone laps.

The search scans a fine grid of sign changes of f^n(x) - x, bisects each
bracket in a batch, and adds a minima fallback for tangential (saddle-node)
roots that produce no sign change. Every accepted orbit is re-verified
against |f^period(x) - x| <= 10 * tolerance, which also discards brackets
that converged onto a discontinuity of f^n. A root of f^n - id within that
same width of a point of an orbit already registered, whose period d divides
n, and that closes up at d within that width too, is not registered again.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .map_core import (
    LorenzMapSpec,
    Side,
    bisect,
    bisect_array,
    branch_inverse_array,
    derivative,
    eval_array,
)
from .orbits import itinerary, orbit_list


class PeriodicSearchError(ValueError):
    pass


class NoPeriodicOrbitFound(PeriodicSearchError):
    pass


class VariationalPrincipleViolated(PeriodicSearchError):
    pass


NEUTRAL_TOLERANCE = 1e-4
# the longest period the catalog searches
MAX_PERIOD = 20
# the most lap boundaries `laps` collects
LAP_BUDGET = 1 << 16
# half-width of the bracket _polish_root searches around its start
POLISH_HALF_WIDTH = 2e-5


@dataclass
class Lap:
    interval: tuple[float, float]
    n: int
    itinerary_prefix: str


@dataclass
class PeriodicOrbitRecord:
    points: list[float]  # one cycle in orbit order, starting at the smallest point
    period: int
    multiplier: float
    kind: str  # attracting | repelling | neutral | super
    side_word: str
    neutral_attracting_probe: bool | None = None

    def intersects(self, lo: float, hi: float, tol: float = 0.0) -> bool:
        return any(lo - tol <= p <= hi + tol for p in self.points)

    def to_dict(self) -> dict:
        d = {
            "points": list(self.points),
            "period": self.period,
            "multiplier": self.multiplier,
            "kind": self.kind,
            "side_word": self.side_word,
        }
        if self.neutral_attracting_probe is not None:
            d["neutral_attracting_probe"] = self.neutral_attracting_probe
        return d


def laps(spec: LorenzMapSpec, n: int) -> list[Lap]:
    """Maximal intervals on which f^n is continuous and monotone.

    Boundaries are the preimages of c up to depth n-1, found by pulling c
    back through the branch inverses.
    """
    if n > 30:
        raise ValueError("n capped at 30 (lap count grows like 2^n)")
    boundaries = {0.0, 1.0, spec.c}
    level = np.array([spec.c])
    for _ in range(n - 1):
        pre_l = branch_inverse_array(spec, "left", level)
        pre_r = branch_inverse_array(spec, "right", level)
        level = np.concatenate([pre_l, pre_r])
        level = level[~np.isnan(level)]
        level = np.unique(np.round(level, 14))
        boundaries.update(float(v) for v in level)
        if len(boundaries) > LAP_BUDGET:
            raise PeriodicSearchError(
                f"lap budget {LAP_BUDGET} exceeded at pullback depth with {len(boundaries)} boundaries"
            )
    pts = sorted(boundaries)
    out = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi - lo <= 2 * spec.tolerance:
            continue
        mid = 0.5 * (lo + hi)
        word = itinerary(spec, mid, Side.NONE, n).word
        out.append(Lap(interval=(lo, hi), n=n, itinerary_prefix=word))
    return out


def _iterate_array(spec: LorenzMapSpec, x: np.ndarray, n: int) -> np.ndarray:
    y = np.asarray(x, dtype=float).copy()
    for _ in range(n):
        y = eval_array(spec, y)
    return y


def _directed_cycle(spec: LorenzMapSpec, x: float, n: int) -> list[float] | None:
    """Orbit of length n that closes up to x within 10 * tolerance, or None.

    An orbit through the break point is accepted only if a one-sided
    continuation closes up (a super-attractor cycle); everything else that
    lands on c is a bisection artifact on a discontinuity of f^n.
    """
    pts = orbit_list(spec, x, n + 1)
    if len(pts) <= n:
        # landed at c before step n: continue from there on each side, and
        # only an orbit that lands there once can close up
        k = len(pts) - 1
        tries = (
            pts[:k] + orbit_list(spec, pts[k], n + 1 - k, side) for side in (Side.MINUS, Side.PLUS)
        )
    else:
        tries = (pts,)
    for orbit in tries:
        if len(orbit) == n + 1 and abs(orbit[n] - orbit[0]) <= 10 * spec.tolerance:
            return orbit[:n]
    return None


def _closure_gap(spec: LorenzMapSpec, x: float, n: int) -> float | None:
    """f^n(x) - x, or None when the orbit meets c before step n."""
    pts = orbit_list(spec, x, n + 1)
    return pts[n] - x if len(pts) == n + 1 else None


def _ternary_min(h, a: float, b: float, rounds: int) -> float | None:
    """Ternary search for a minimum of |h| on [a, b]: the midpoint of the
    bracket left after `rounds` rounds, or None as soon as h returns None."""
    for _ in range(rounds):
        m1 = a + (b - a) / 3
        m2 = b - (b - a) / 3
        h1, h2 = h(m1), h(m2)
        if h1 is None or h2 is None:
            return None
        if abs(h1) < abs(h2):
            b = m2
        else:
            a = m1
    return 0.5 * (a + b)


def _roots_for_period(
    spec: LorenzMapSpec,
    n: int,
    resolution: int,
    fn: np.ndarray,
    known,
) -> list[float]:
    """Roots of f^n - id found on the grid of `resolution` cells, given f^n
    on that grid as `fn`. A tangential candidate that is itself an exact
    grid hit is not refined when known(x) says that it is a point of an
    orbit already registered."""
    grid = np.linspace(0.0, 1.0, resolution + 1)
    g = fn - grid
    ok = ~np.isnan(g)
    roots: list[float] = []

    # exact hits on the grid
    zero = ok & (np.abs(g) <= 10 * spec.tolerance)
    roots.extend(float(v) for v in grid[zero])

    s = np.sign(g)
    pair = ok[:-1] & ok[1:] & (s[:-1] * s[1:] < 0)
    lo = grid[:-1][pair].copy()
    hi = grid[1:][pair].copy()
    if lo.size:

        def same_sign_as_lo(m: np.ndarray, lo_neg: np.ndarray) -> np.ndarray:
            return ((_iterate_array(spec, m, n) - m) < 0) == lo_neg

        lo, hi = bisect_array(same_sign_as_lo, lo, hi, 60, g[:-1][pair] < 0)
        roots.extend(float(v) for v in 0.5 * (lo + hi))

    # tangential roots: local minima of |g| that nearly touch zero
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

    def gap(v: float) -> float:
        return float(_iterate_array(spec, np.array([v]), n)[0]) - v

    for i in np.nonzero(cand)[0]:
        if zero[i] and known(grid[i]):
            continue
        x = _ternary_min(gap, grid[i - 1], grid[i + 1], 80)
        if abs(gap(x)) <= 10 * spec.tolerance:
            # the grid ends make x an np.float64; the catalog holds floats
            roots.append(float(x))
    return roots


def _neutral_probe(spec: LorenzMapSpec, cycle: list[float], period: int) -> bool:
    """Does a one-sided perturbation fall back onto the cycle?"""
    x = cycle[0] + 1e-6
    if x >= 1.0:
        x = cycle[0] - 1e-6
    n = 4000 * period
    pts = orbit_list(spec, x, n + 1)
    return len(pts) == n + 1 and min(abs(pts[n] - p) for p in cycle) < 1e-4


def _polish_root(spec: LorenzMapSpec, x: float, n: int) -> float:
    """Refine a fixed point of f^n near x; handles tangential roots by
    minimizing |f^n - id| when there is no sign change."""

    def g(v: float) -> float | None:
        return _closure_gap(spec, v, n)

    a, b = max(x - POLISH_HALF_WIDTH, 0.0), min(x + POLISH_HALF_WIDTH, 1.0)
    ga, gb = g(a), g(b)
    if ga is None or gb is None:
        return x
    if (ga < 0) != (gb < 0):

        def same_sign(m: float) -> bool | None:
            gm = g(m)
            return None if gm is None else (gm < 0) == (ga < 0)

        root = bisect(same_sign, a, b, 70)
    else:
        root = _ternary_min(g, a, b, 90)
    return x if root is None else root


def _merge_radius(rec: PeriodicOrbitRecord, tol: float) -> float:
    """Roots of f^n - id are isolated at scale |g| ~ |mult - 1| * dx, but a
    tangential root (multiplier near 1) passes the closure test throughout a
    basin of width ~ (tol / g''')^(1/3); near-neutral records therefore
    merge over a much wider radius."""
    gap = abs(abs(rec.multiplier) - 1.0)
    if gap <= 10 * NEUTRAL_TOLERANCE:
        return 2e-3
    return min(2e-3, max(1e-7, 30.0 * tol / gap))


def find_periodic_points(
    spec: LorenzMapSpec, max_period: int = 12, resolution: int = 1 << 14
) -> list[PeriodicOrbitRecord]:
    """All periodic orbits of period <= max_period found at the grid scale."""
    if max_period > MAX_PERIOD:
        raise ValueError(f"max_period capped at {MAX_PERIOD}")
    tol = spec.tolerance
    raw: list[PeriodicOrbitRecord] = []
    seen: set[tuple[int, int]] = set()
    # (point, period) of every registered orbit, sorted by point
    index: list[tuple[float, int]] = []

    def known(x: float, n: int) -> bool:
        """Does x lie within 10 * tol of a registered point whose period d
        divides n, and close up at d within 10 * tol? The closure test
        then takes x for a point of that orbit."""
        i = bisect_left(index, (x - 10 * tol,))
        while i < len(index) and index[i][0] <= x + 10 * tol:
            d = index[i][1]
            if n % d == 0:
                gap = _closure_gap(spec, x, d)
                if gap is not None and abs(gap) <= 10 * tol:
                    return True
            i += 1
        return False

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
        # a near-neutral orbit passes the closure test over a wide basin, where
        # a later root can register a better-closing twin that wins the merge
        # below: only the other orbits are indexed
        if abs(abs(mult) - 1.0) > 10 * NEUTRAL_TOLERANCE:
            for p in cycle:
                insort(index, (p, period))

    # endpoint fixed points are part of the map's definition
    register(0.0, 1)
    register(1.0, 1)
    # f^n on the grid, one step per period
    fn = np.linspace(0.0, 1.0, resolution + 1)
    for n in range(1, max_period + 1):
        fn = eval_array(spec, fn)
        for x in _roots_for_period(spec, n, resolution, fn, lambda v: known(v, n)):
            if 0.0 < x < 1.0 and not known(x, n):
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


def count_nonrepelling(catalog: list[PeriodicOrbitRecord]) -> int:
    """Number of non-repelling orbits (attracting, neutral or super) in the catalog."""
    return sum(1 for r in catalog if r.kind in ("attracting", "neutral", "super"))


def minimal_period_orbit_in(
    spec: LorenzMapSpec,
    J: tuple[float, float],
    max_period: int = 12,
    *,
    catalog: list[PeriodicOrbitRecord],
) -> PeriodicOrbitRecord:
    """The unique minimal-period orbit of the catalog meeting J (closure, at
    tolerance); max_period names the catalog's period cap in the error.

    Raises VariationalPrincipleViolated when two distinct orbits tie: either
    the no-attractor hypothesis of the underlying uniqueness statement fails
    for this map, or the catalog holds a numerical duplicate.
    """
    lo, hi = J
    tol = spec.tolerance
    hits = [r for r in catalog if r.intersects(lo, hi, tol)]
    if not hits:
        raise NoPeriodicOrbitFound(f"none found (budget): no orbit of period <= {max_period} meets {J}")
    best = min(r.period for r in hits)
    winners = [r for r in hits if r.period == best]
    if len(winners) > 1:
        raise VariationalPrincipleViolated(
            f"variational principle violated: {len(winners)} orbits of period {best} meet {J} "
            "(hypothesis violation or numeric duplicate)"
        )
    return winners[0]
