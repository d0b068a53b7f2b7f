"""Periodic orbit search and classification.

The search steps f^n on a fine grid once per period and keeps, for each
period, the sign changes of f^n(x) - x and the local minima of its modulus
that nearly touch zero (tangential, saddle-node roots, which make no sign
change). Then every period's sign changes are bisected in one lockstep call
and every period's minima are refined by one lockstep ternary search,
longest period first, so that each step is one array call on the brackets
still stepping. A family of maps (`PeriodicFamily`, as `scan` builds per
block of cells) shares those two calls: each map steps its own grid, and
each bracket steps by its own map. A minimum that sits on an exact grid
root is refined only after the shorter periods registered, once it is
known not to be a point of an orbit already held. Every accepted orbit is
re-verified against |f^period(x) - x| <= 10 * tolerance, which also
discards brackets that converged onto a discontinuity of f^n. A root of
f^n - id within that same width of a point of an orbit already
registered, whose period d divides n, and that closes up at d within that
width too, is not registered again.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import partial

import numpy as np

from .map_core import (
    LorenzMapSpec,
    Side,
    Stepper,
    bisect_array,
    branch_inverse_array,
    derivative,
    eval_array,
)
from .orbits import critical_orbit, itinerary, orbit_list


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
# the ternary-search rounds that refine a tangential root candidate
TANGENTIAL_ROUNDS = 80
# the most brackets one lockstep call of the root stage steps
LOCKSTEP_BRACKETS = 1 << 13


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


def _iterate_by_period(step, x: np.ndarray, periods: np.ndarray, columns=()) -> np.ndarray:
    """f^p(x) entry by entry, p the entry's period and f its map (`step`
    with the entry's `columns`). The periods are sorted longest first, so
    the entries still stepping at step k are a prefix and each step is one
    call on it."""
    y = np.array(x, dtype=float)
    if y.size:
        # how many periods exceed k, for k = 0 .. the longest period - 1
        for live in np.searchsorted(-periods, -np.arange(periods[0]), side="left").tolist():
            y[:live] = step(y[:live], *(col[:live] for col in columns))
    return y


def _directed_cycle(spec: LorenzMapSpec, x: float, n: int) -> list[float] | None:
    """Orbit of length n that closes up to x within 10 * tolerance, or None.

    An orbit through the break point is accepted only if a one-sided
    continuation closes up (a super-attractor cycle); everything else that
    lands on c is a bisection artifact on a discontinuity of f^n.
    """
    pts = orbit_list(spec, x, n + 1)
    if len(pts) <= n:
        # landed at c at step k < n: on the side minus the orbit goes on as
        # the critical orbit of v1 = f(c-), on the side plus as that of
        # v0 = f(c+), and only an orbit that lands there once can close up
        k = len(pts) - 1
        tries = (pts + critical_orbit(spec, i, n - k).tolist() for i in (1, 0))
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


def _tangential_roots(
    step, tol: float, a: np.ndarray, b: np.ndarray, periods: np.ndarray, *columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ternary search for a minimum of |f^p - id| on each bracket [a, b] in
    lockstep, p the bracket's period (sorted longest first) and f its map
    (`step` with the bracket's `columns`): the midpoints x of the brackets
    left after TANGENTIAL_ROUNDS rounds, and whether |f^p(x) - x| <= 10 * tol
    there.

    Each round steps only the brackets that the round before moved: a
    bracket that a round left as it was meets the same thirds in every
    later round, so the result keeps every bit of the fixed-round loop."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    live = np.arange(a.size)
    for _ in range(TANGENTIAL_ROUNDS):
        if not live.size:
            break
        lo, hi = a[live], b[live]
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        # interleaved, the pairs keep the longest-first order
        m = np.column_stack([m1, m2]).ravel()
        pairs = [np.repeat(v[live], 2) for v in (periods, *columns)]
        g = np.abs(_iterate_by_period(step, m, pairs[0], pairs[1:]) - m)
        nearer = g[0::2] < g[1::2]
        a[live], b[live] = np.where(nearer, lo, m1), np.where(nearer, m2, hi)
        live = live[np.where(nearer, m2 != hi, m1 != lo)]
    x = 0.5 * (a + b)
    return x, np.abs(_iterate_by_period(step, x, periods, columns) - x) <= 10 * tol


@dataclass
class _GridRoots:
    """The roots of f^n - id that the grid gives for one period n."""

    n: int
    hits: list[float]  # grid points where |f^n - id| <= 10 * tolerance
    bisected: np.ndarray  # roots of the sign changes, in grid order
    # tangential candidates in grid order: their brackets, their grid point
    # when it is a hit (else None), and their root when it closes up (else
    # None; not yet refined on a hit)
    a: np.ndarray
    b: np.ndarray
    on_hit: list[float | None]
    roots: list[float | None]

    def tangential(self, spec: LorenzMapSpec, held) -> list[float]:
        """The tangential roots in grid order. A candidate on a hit whose
        grid point held(p) says is a point of an orbit already registered is
        dropped; the other candidates on a hit are refined now, in one call,
        since held can only be asked once the shorter periods registered."""
        todo = [k for k, p in enumerate(self.on_hit) if p is not None and not held(p)]
        if todo:
            periods = np.full(len(todo), self.n)
            x, closes = _tangential_roots(Stepper([spec]), spec.tolerance, self.a[todo], self.b[todo], periods)
            for k, v, ok in zip(todo, x.tolist(), closes.tolist()):
                self.roots[k] = v if ok else None
        return [x for x in self.roots if x is not None]


def _grid_brackets(spec: LorenzMapSpec, max_period: int, resolution: int):
    """The grid stage of one map: for n = 1 .. max_period, its _GridRoots
    with the grid hits and the tangential candidates (local minima of
    |f^n - id| below 1e-7, which make no sign change), and its sign-change
    brackets (lo, hi, whether f^n - id < 0 at lo). f^n is stepped on the
    grid once per period, from the previous period's grid."""
    tol = spec.tolerance
    grid = np.linspace(0.0, 1.0, resolution + 1)
    fn = grid
    out, signs = [], []
    for n in range(1, max_period + 1):
        fn = eval_array(spec, fn)
        g = fn - grid
        # a NaN of g (an orbit that met c) fails every comparison below
        absg = np.abs(g)
        zero = absg <= 10 * tol
        neg, pos = g < 0, g > 0
        j = np.flatnonzero((neg[:-1] & pos[1:]) | (pos[:-1] & neg[1:]))
        signs.append((grid[j], grid[j + 1], neg[j]))
        # the interior local minima of |g| below 1e-7, tested where it is small
        i = np.flatnonzero(absg[1:-1] < 1e-7) + 1
        i = i[(absg[i] <= absg[i - 1]) & (absg[i] <= absg[i + 1])]
        out.append(
            _GridRoots(
                n=n,
                hits=grid[zero].tolist(),
                bisected=np.zeros(0),
                a=grid[i - 1],
                b=grid[i + 1],
                on_hit=[grid[k] if zero[k] else None for k in i],
                roots=[None] * i.size,
            )
        )
    return out, signs


def _grid_roots(specs: list[LorenzMapSpec], max_period: int, resolution: int) -> list[list[_GridRoots]]:
    """The roots of f^n - id on the grid of `resolution` cells, for
    n = 1 .. max_period, of each map f of the family `specs`.

    Each map runs its own grid stage (`_grid_brackets`). Then the sign
    changes of every map and period are bisected in one lockstep call and
    the minima off a grid hit in another, longest period first, each call
    in slices of at most LOCKSTEP_BRACKETS brackets. Each step is
    elementwise, so a root gets the same operations whichever brackets
    share its arrays."""
    if max_period < 1:
        return [[] for _ in specs]
    # the brackets step with the coefficient columns of each bracket's map
    # (columns(who), who the map of each bracket; none for one map), so
    # every bracket gets its own map's eval_array bits
    step = Stepper(specs)
    columns = step.columns
    tol = specs[0].tolerance
    out, signs = zip(*(_grid_brackets(spec, max_period, resolution) for spec in specs))
    # longest period first, then map by map, each in grid order
    order = [(i, n) for n in range(max_period, 0, -1) for i in range(len(specs))]

    def longest_first(parts):
        """parts[i][n - 1], a tuple of arrays of map i and period n, joined
        in `order`; the period and the map of each entry; and the inverse:
        such an array as one list per map and period."""
        counts = [len(parts[i][n - 1][0]) for i, n in order]
        joined = [np.concatenate([parts[i][n - 1][k] for i, n in order]) for k in range(len(parts[0][0]))]
        periods = np.repeat([n for _, n in order], counts)
        who = np.repeat([i for i, _ in order], counts)

        def split(v: np.ndarray) -> list[list[np.ndarray]]:
            lists = [[None] * max_period for _ in specs]
            for (i, n), piece in zip(order, np.split(v, np.cumsum(counts)[:-1])):
                lists[i][n - 1] = piece
            return lists

        return joined, periods, who, split

    def in_slices(fn, who: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
        """fn(*slices, *columns) on consecutive slices of at most
        LOCKSTEP_BRACKETS entries of the arrays, with the coefficient
        columns of each entry's map; its two outputs joined."""
        size = LOCKSTEP_BRACKETS
        parts = [
            fn(*(v[k : k + size] for v in arrays), *columns(who[k : k + size]))
            for k in range(0, max(who.size, 1), size)
        ]
        return [np.concatenate(p) for p in zip(*parts)]

    def same_sign_as_lo(m: np.ndarray, lo_neg: np.ndarray, periods: np.ndarray, *columns) -> np.ndarray:
        return ((_iterate_by_period(step, m, periods, columns) - m) < 0) == lo_neg

    def bisect(lo, hi, *per_bracket):
        return bisect_array(same_sign_as_lo, lo, hi, 60, *per_bracket)

    (lo, hi, lo_neg), periods, who, split = longest_first(signs)
    lo, hi = in_slices(bisect, who, lo, hi, lo_neg, periods)
    for found, roots in zip(out, split(0.5 * (lo + hi))):
        for f, r in zip(found, roots):
            f.bisected = r

    off_hit = [[[k for k, p in enumerate(f.on_hit) if p is None] for f in found] for found in out]
    (a, b), periods, who, split = longest_first(
        [[(f.a[k], f.b[k]) for f, k in zip(found, todo)] for found, todo in zip(out, off_hit)]
    )
    x, closes = in_slices(partial(_tangential_roots, step, tol), who, a, b, periods)
    for found, todo, xs, oks in zip(out, off_hit, split(x), split(closes)):
        for f, ks, vs, good in zip(found, todo, xs, oks):
            for k, v, ok in zip(ks, vs.tolist(), good.tolist()):
                f.roots[k] = v if ok else None
    return list(out)


def _neutral_probe(spec: LorenzMapSpec, cycle: list[float], period: int) -> bool:
    """Does a one-sided perturbation fall back onto the cycle?"""
    x = cycle[0] + 1e-6
    if x >= 1.0:
        x = cycle[0] - 1e-6
    n = 4000 * period
    pts = orbit_list(spec, x, n + 1)
    return len(pts) == n + 1 and min(abs(pts[n] - p) for p in cycle) < 1e-4


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
    """All periodic orbits of period <= max_period found at the grid scale:
    the catalog of a family of one map."""
    return PeriodicFamily([spec], max_period, resolution).catalog(spec)


class PeriodicFamily:
    """The periodic catalogs of a family of maps at one max_period and
    resolution (see `map_core.Stepper` for the maps that can share one).

    The root stage (`_grid_roots`) runs once for the whole family, when the
    first catalog is read. Each map's registration runs when its catalog
    is read, so an error there is that map's alone. A catalog is read once:
    the family then lets go of the map and its roots, and with them of
    whatever later stages keep on the map."""

    def __init__(self, specs: list[LorenzMapSpec], max_period: int, resolution: int):
        if max_period > MAX_PERIOD:
            raise ValueError(f"max_period capped at {MAX_PERIOD}")
        self.specs: list[LorenzMapSpec | None] = list(specs)
        self.max_period, self.resolution = max_period, resolution
        self._roots: list[list[_GridRoots] | None] | None = None

    def catalog(self, spec: LorenzMapSpec) -> list[PeriodicOrbitRecord]:
        i = next((i for i, s in enumerate(self.specs) if s is spec), None)
        if i is None:
            raise ValueError(f"{spec.name} is not a map of this family, or its catalog was read")
        if self._roots is None:
            self._roots = _grid_roots(self.specs, self.max_period, self.resolution)
        found, self._roots[i], self.specs[i] = self._roots[i], None, None
        return _catalog(spec, found)


def _catalog(spec: LorenzMapSpec, grid_roots: list[_GridRoots]) -> list[PeriodicOrbitRecord]:
    """The catalog from the map's grid roots: the endpoint fixed points and
    the roots register period by period, then the cluster merge and the
    neutral probe."""
    tol = spec.tolerance
    raw: list[PeriodicOrbitRecord] = []
    # the closure residual |f^period(x) - x| of each record at its first
    # point x, which ranks it in the cluster merge: 0.0 when its orbit meets
    # c, inf when the orbit lands at c before it closes
    residuals: list[float] = []
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
        if any(abs(p - spec.c) <= tol for p in cycle):
            mult, gap, kind = 0.0, 0.0, "super"
        else:
            # the rotation to the smallest point loses accuracy on strongly
            # repelling cycles (the root error is amplified along the way);
            # a guarded Newton step on f^period - id restores it cheaply
            mult = math.prod(derivative(spec, p) for p in cycle)
            gap = _closure_gap(spec, cycle[0], period)
            if gap is not None and abs(gap) > 10 * tol and abs(mult - 1.0) > 1e-3:
                x0 = cycle[0]
                g = gap
                for _ in range(5):
                    step = g / (mult - 1.0)
                    if abs(step) > 1e-6:
                        break
                    x0 -= step
                    g = _closure_gap(spec, x0, period)
                    if g is None or abs(g) <= tol:
                        break
                if g is not None and abs(g) <= 10 * tol:
                    rebuilt = _directed_cycle(spec, x0, period)
                    if rebuilt is not None:
                        # the rebuilt cycle starts at x0, where f^period
                        # misses by g
                        cycle, gap = rebuilt, g
                        mult = math.prod(derivative(spec, p) for p in cycle)
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
        residuals.append(0.0 if "*" in bits else math.inf if gap is None else abs(gap))
        # a near-neutral orbit passes the closure test over a wide basin, where
        # a later root can register a better-closing twin that wins the merge
        # below: only the other orbits are indexed
        if abs(abs(mult) - 1.0) > 10 * NEUTRAL_TOLERANCE:
            for p in cycle:
                insort(index, (p, period))

    # endpoint fixed points are part of the map's definition
    register(0.0, 1)
    register(1.0, 1)
    for n, found in enumerate(grid_roots, 1):
        # a tangential root whose grid point is a point of an orbit held
        # before period n is dropped, and the roots then register in order
        tangential = found.tangential(spec, lambda p: known(p, n))
        for x in found.hits + found.bisected.tolist() + tangential:
            if 0.0 < x < 1.0 and not known(x, n):
                register(x, n)

    # stability-aware cluster merge: a tangential (near-neutral) root passes
    # the closure test over a wide basin, and rotated twins of one orbit can
    # survive the exact key; compare sorted cycles over a small neighbor
    # window in min-point order; the smaller residual wins
    order = sorted(range(len(raw)), key=lambda k: (raw[k].period, raw[k].points[0]))
    raw, res_cache = [raw[k] for k in order], [residuals[k] for k in order]
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


def minimal_period_orbit(
    catalog: list[PeriodicOrbitRecord], meets, none: str, tie
) -> PeriodicOrbitRecord:
    """The unique orbit of least period among the catalog orbits r with
    meets(r).

    Raises NoPeriodicOrbitFound(none) when no orbit meets, and
    VariationalPrincipleViolated(tie(count, period)) when `count` distinct
    orbits of the least period tie: either the no-attractor hypothesis of
    the underlying uniqueness statement fails for this map, or the catalog
    holds a numerical duplicate.
    """
    hits = [r for r in catalog if meets(r)]
    if not hits:
        raise NoPeriodicOrbitFound(none)
    best = min(r.period for r in hits)
    winners = [r for r in hits if r.period == best]
    if len(winners) > 1:
        raise VariationalPrincipleViolated(tie(len(winners), best))
    return winners[0]


def minimal_period_orbit_in(
    spec: LorenzMapSpec, J: tuple[float, float], *, catalog: list[PeriodicOrbitRecord]
) -> PeriodicOrbitRecord:
    """The unique minimal-period orbit of the catalog meeting J (closure, at
    tolerance); see `minimal_period_orbit`."""
    lo, hi = J
    return minimal_period_orbit(
        catalog,
        lambda r: r.intersects(lo, hi, spec.tolerance),
        f"none found (budget): no catalog orbit meets {J}",
        lambda count, period: f"variational principle violated: {count} orbits of period {period} "
        f"meet {J} (hypothesis violation or numeric duplicate)",
    )
