"""Renormalization intervals: detection, classification, cycles and traps.

A renormalization interval is a nice interval (a, b) around c with periodic
endpoints whose one-sided boundary-period returns map each side back into
[a, b]; equivalently the first-return map is again a two-branch map of the
same kind. Regular means both one-sided returns cover c. When a proper
renormalization is absent but a periodic attractor pulls one side of c into
itself, the structure degenerates to a half-interval (a, c) or (c, a) that
self-maps with the complementary critical orbit staying clear.

Candidate boundaries come exclusively from the periodic-orbit catalog, so
renormalizations with boundary periods beyond the search budget are
invisible; every certification records the budgets it ran under.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .map_core import LorenzMapSpec, branch_value, pull_back
from .orbits import critical_orbit, orbit_list
from .periodic import PeriodicOrbitRecord
from .return_maps import interval_side, is_nice, push_interval, push_orbit

# trapping_region's invariance probe walks this many random points of the
# region (seeded 0), this many steps each
TRAP_PROBE_POINTS = 100
TRAP_PROBE_STEPS = 100


@dataclass
class RenormalizationRecord:
    J: tuple[float, float]
    period_a: int
    period_b: int
    regular: bool
    left_image: tuple[float, float]
    right_image: tuple[float, float]

    @property
    def width(self) -> float:
        return self.J[1] - self.J[0]

    def to_dict(self) -> dict:
        return {
            "a": self.J[0],
            "b": self.J[1],
            "period_a": self.period_a,
            "period_b": self.period_b,
            "regular": self.regular,
            "left_image": list(self.left_image),
            "right_image": list(self.right_image),
        }


@dataclass
class DegenerateRecord:
    I: tuple[float, float]  # half interval with c as one endpoint
    n: int
    avoidance_horizon: int
    boundary_point: float

    def to_dict(self) -> dict:
        return {
            "interval": list(self.I),
            "n": self.n,
            "avoidance_horizon": self.avoidance_horizon,
            "boundary_point": self.boundary_point,
        }


@dataclass
class NestedSequence:
    intervals: list[RenormalizationRecord]
    maximal_nonregular: RenormalizationRecord | None = None
    degenerate: DegenerateRecord | None = None
    depth_cap_hit: bool = False
    notes: list[str] = field(default_factory=list)

    def chain(self) -> list[RenormalizationRecord]:
        """Regular chain followed by the maximal non-regular interval, if any."""
        out = list(self.intervals)
        if self.maximal_nonregular is not None:
            out.append(self.maximal_nonregular)
        return out

    def to_dict(self) -> dict:
        return {
            "chain": [r.to_dict() for r in self.intervals],
            "j_max": self.maximal_nonregular.to_dict() if self.maximal_nonregular else None,
            "degenerate": self.degenerate.to_dict() if self.degenerate else None,
            "depth_cap_hit": self.depth_cap_hit,
            "notes": self.notes,
        }


def _certify(
    spec: LorenzMapSpec, J: tuple[float, float], la: int, rb: int
) -> RenormalizationRecord | str:
    """The record of J = (a, b) when its one-sided returns at the boundary
    periods map [a, c) and (c, b] into [a, b], else the reason they do not.

    Each side is pushed monotonically for its period; an image that
    straddles c mid-way or re-enters J before the period disqualifies the
    candidate (the side would not be a single branch)."""
    a, b = J
    tol = spec.tolerance

    def track(iv: tuple[float, float], steps: int) -> tuple[float, float] | None:
        images = push_orbit(spec, iv, steps)
        if len(images) <= steps:
            return None
        if any(u > a + tol and v < b - tol for u, v in images[1:steps]):
            return None  # early return into J: not a single return branch
        return images[-1]

    li = track((a, spec.c), la)
    ri = track((spec.c, b), rb)
    if li is None or ri is None:
        return "one-sided image split at c or returned early"
    if not (li[0] >= a - 10 * tol and li[1] <= b + 10 * tol):
        return f"f^{la}([a,c)) = {li} not inside [a,b]"
    if not (ri[0] >= a - 10 * tol and ri[1] <= b + 10 * tol):
        return f"f^{rb}((c,b]) = {ri} not inside [a,b]"
    regular = (li[1] > spec.c + tol) and (ri[0] < spec.c - tol)
    return RenormalizationRecord(
        J=J, period_a=la, period_b=rb, regular=regular, left_image=li, right_image=ri
    )


def is_renormalization(
    spec: LorenzMapSpec,
    J: tuple[float, float],
    horizon: int = 10_000,
    max_period: int = 12,
) -> tuple[bool, RenormalizationRecord | None, str]:
    """Certify J = (a, b): periodic boundaries, niceness, one-sided return
    inclusions at the boundary periods, and regularity (both one-sided
    returns cover c)."""
    a, b = J
    tol = spec.tolerance
    if not (a < spec.c < b):
        return False, None, "c not inside J"
    if a <= tol and b >= 1.0 - tol:
        return False, None, "whole interval is not a proper renormalization"

    def detect_period(x: float) -> int | None:
        # the first k <= horizon, and at most one past the cap, at which the
        # orbit closes up; an orbit that lands at c ends the search
        pts = orbit_list(spec, x, min(horizon, max(64, 4 * max_period) + 1) + 1)
        return next((k for k in range(1, len(pts)) if abs(pts[k] - x) <= 10 * tol), None)

    la = detect_period(a)
    rb = detect_period(b)
    if la is None or rb is None:
        return False, None, f"boundary not periodic within budget (periods {la}, {rb})"
    nice = is_nice(spec, J, horizon)
    if not nice.is_nice:
        return False, None, "boundary orbit re-enters J"
    rec = _certify(spec, J, la, rb)
    if isinstance(rec, str):
        return False, None, rec
    return True, rec, "ok"


class _OrbitTable(NamedTuple):
    """Per-orbit facts of a catalog, one entry per orbit."""
    points: np.ndarray  # the orbit's points in catalog order, NaN-padded
    period: np.ndarray
    a: np.ndarray  # greatest point below c - tol, NaN when there is none
    b: np.ndarray  # least point above c + tol, NaN when there is none
    fa: np.ndarray  # orbit successors of a and b
    fb: np.ndarray
    w1: np.ndarray  # f^(p-1)(v1), NaN for p = 1 or once the walk of v1 landed at c
    w0: np.ndarray  # f^(p-1)(v0), likewise


def _orbit_table(spec: LorenzMapSpec, catalog: list[PeriodicOrbitRecord]) -> _OrbitTable:
    c, tol = spec.c, spec.tolerance
    period = np.array([o.period for o in catalog], dtype=int)
    width = int(period.max()) if catalog else 1
    pts = np.full((len(catalog), width), np.nan)
    for i, o in enumerate(catalog):
        pts[i, : o.period] = o.points
    rows = np.arange(len(catalog))

    def adjacent(side: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the point at k of each orbit and its successor, NaN without a point on the side
        has = side.any(axis=1)
        return np.where(has, pts[rows, k], np.nan), np.where(has, pts[rows, (k + 1) % period], np.nan)

    def at_period(i: int) -> np.ndarray:
        # the critical orbit of v_i, up to a landing at c
        orb = np.array(critical_orbit(spec, i, width + 1))
        return np.where((period > 1) & (period <= orb.size), orb[np.minimum(period, orb.size) - 1], np.nan)

    below, above = pts < c - tol, pts > c + tol
    # argmax and argmin give the first of equal extremes, as list.index does
    a, fa = adjacent(below, np.argmax(np.where(below, pts, -np.inf), axis=1))
    b, fb = adjacent(above, np.argmin(np.where(above, pts, np.inf), axis=1))
    return _OrbitTable(pts, period, a, b, fa, fb, at_period(1), at_period(0))


def _candidate_pairs(
    spec: LorenzMapSpec, catalog: list[PeriodicOrbitRecord]
) -> list[tuple[float, float, int, int]]:
    """Boundary candidates (a, b, period_a, period_b) from orbit pairs that
    pass every necessary condition the catalog decides, widest first.

    a is an orbit's point adjacent to c from below, b another orbit's point
    adjacent from above; both orbits must stay clear of (a, b), which is an
    exact finite-set check on catalog orbits (no iteration needed). The
    orbit of a entering (a, b) at its first step already disqualifies any
    boundary period above 1, which prunes most pairs of expanding maps.
    """
    tol = spec.tolerance
    t = _orbit_table(spec, catalog)
    # rows: the orbit of a; columns: the orbit of b
    a, b = t.a[:, None], t.b[None, :]
    ok = ~np.isnan(a) & ~np.isnan(b)
    ok &= ~((a <= tol) & (b >= 1.0 - tol))
    # orbit of a must not enter (a, b): its least point above c is >= b
    ok &= ~(t.b[:, None] < b - tol)
    # orbit of b must not enter (a, b): its greatest point below c is <= a
    ok &= ~(t.a[None, :] > a + tol)
    # unless a is fixed, f((a,c)) = (f(a), v1) must clear (a, b) at once
    ok &= ~((t.period[:, None] > 1) & (t.fa[:, None] < b - tol))
    ok &= ~((t.period[None, :] > 1) & (t.fb[None, :] > a + tol))
    # one-sided critical orbits: f^period(a)([a,c)) = (a, f^(period(a)-1)(v1))
    # when the side certifies, so the critical orbit must re-enter [a,b] at
    # exactly that time (NaN: no test); w1 and a are the row's, w0 and b the
    # column's
    w1, w0 = t.w1[:, None], t.w0[None, :]
    keep = ~(w1 > b + tol)
    keep &= ~(w0 < a - tol)
    keep &= ~(t.w1 < t.a - tol)[:, None]
    keep &= ~(t.w0 > t.b + tol)[None, :]
    keep &= ok
    i, j = np.nonzero(keep)
    # a pair stays if it is the first of its (a, b) key in row-major order
    # among all pairs that pass ok, as a dict of those pairs keeps it, so a
    # key whose first pair fails w is dropped; only a pair whose a or b
    # value recurs in another orbit can have an earlier pair of its key
    ka, kb = (np.unique(x, return_inverse=True)[1] for x in (t.a, t.b))
    recurs = (np.bincount(ka)[ka[i]] > 1) | (np.bincount(kb)[kb[j]] > 1)
    first = np.ones(len(i), dtype=bool)
    for s in np.flatnonzero(recurs):
        rows, cols = np.flatnonzero(ka == ka[i[s]]), np.flatnonzero(kb == kb[j[s]])
        r, q = np.unravel_index(np.argmax(ok[np.ix_(rows, cols)]), (rows.size, cols.size))
        first[s] = rows[r] == i[s] and cols[q] == j[s]
    i, j = i[first], j[first]
    order = np.argsort(t.a[i] - t.b[j], kind="stable")  # widest first
    i, j = i[order], j[order]
    return list(zip(t.a[i].tolist(), t.b[j].tolist(), t.period[i].tolist(), t.period[j].tolist()))


def detect_degenerate(
    spec: LorenzMapSpec,
    *,
    catalog: list[PeriodicOrbitRecord],
    horizon: int = 10_000,
) -> DegenerateRecord | None:
    """Widest half-interval (alpha, c) or (c, alpha), alpha a catalog point,
    with f^period(alpha) mapping it into itself while both the orbit of
    alpha and the opposite one-sided critical orbit stay clear of it."""
    c, tol = spec.c, spec.tolerance
    t = _orbit_table(spec, catalog)
    pts = t.points
    # only a point within tol of its orbit's a (left of c) or b (right) has no
    # orbit point inside its half-interval; a clean push of (p, c) ends at
    # f^(p-1)(v1), one of (c, p) starts at f^(p-1)(v0): neither may pass c
    left = (pts < c) & ~(pts + tol < t.a[:, None]) & ~(t.w1[:, None] > c + 10 * tol)
    right = (pts > c) & ~(t.b[:, None] < pts - tol) & ~(t.w0[:, None] < c - 10 * tol)
    live = np.array([o.kind != "super" for o in catalog], dtype=bool)[:, None]
    best: DegenerateRecord | None = None
    opps: dict[int, np.ndarray] = {}  # the horizon prefix of each critical orbit, once read
    for i, k in zip(*np.nonzero((left | right) & live & (np.abs(pts - c) > tol))):
        o = catalog[i]
        p = o.points[k]
        lo, hi = I = (p, c) if p < c else (c, p)
        img = push_interval(spec, I, o.period)
        if img is None or not (img[0] >= lo - 10 * tol and img[1] <= hi + 10 * tol):
            continue
        # the first horizon points of the opposite one-sided critical orbit
        # (of f(c+) for (p, c)) and the orbit of p stay clear
        if (j := 0 if p < c else 1) not in opps:
            opps[j] = np.array(critical_orbit(spec, j, horizon))
        if np.any((opps[j] > lo + tol) & (opps[j] < hi - tol)):
            continue
        if any(lo + tol < q < hi - tol for q in o.points):
            continue
        if best is None or hi - lo > best.I[1] - best.I[0]:
            best = DegenerateRecord(I=I, n=o.period, avoidance_horizon=horizon, boundary_point=p)
    return best


def find_renormalizations(
    spec: LorenzMapSpec,
    max_period: int = 12,
    max_depth: int = 8,
    horizon: int = 10_000,
    *,
    catalog: list[PeriodicOrbitRecord],
) -> NestedSequence:
    """Nested sequence of certified renormalization intervals with catalog
    boundaries.

    Regular intervals are sorted by strict inclusion; if any non-regular
    interval certifies, their union re-certifies as the maximal non-regular
    interval and ends the chain. Otherwise a degenerate half-interval is
    searched for. depth_cap_hit marks a chain that filled max_depth with
    still-shrinking diameters (an infinitely-renormalizable candidate at
    these budgets).
    """
    notes: list[str] = [f"budgets: max_period={max_period}, max_depth={max_depth}, horizon={horizon}"]
    regular: list[RenormalizationRecord] = []
    nonregular: list[RenormalizationRecord] = []
    for (a, b, la, rb) in _candidate_pairs(spec, catalog):
        # the catalog decided all but the one-sided return inclusions
        rec = _certify(spec, (a, b), la, rb)
        if not isinstance(rec, str):
            (regular if rec.regular else nonregular).append(rec)

    regular.sort(key=lambda r: -r.width)
    chain: list[RenormalizationRecord] = []
    for rec in regular:
        if not chain:
            chain.append(rec)
            continue
        prev = chain[-1]
        a0, b0 = prev.J
        a1, b1 = rec.J
        if a1 > a0 + spec.tolerance and b1 < b0 - spec.tolerance:
            chain.append(rec)
        elif abs(a1 - a0) <= spec.tolerance and abs(b1 - b0) <= spec.tolerance:
            continue  # numerical duplicate
        else:
            notes.append(f"dropped non-nested regular interval {rec.J} against {prev.J}")

    depth_cap = len(chain) >= max_depth
    chain = chain[:max_depth]
    diameters = [r.width for r in chain]
    if depth_cap and all(d2 < d1 for d1, d2 in zip(diameters, diameters[1:])):
        notes.append("solenoid candidate (depth-capped, diameters shrinking)")

    j_max: RenormalizationRecord | None = None
    degenerate: DegenerateRecord | None = None
    if nonregular:
        a = min(r.J[0] for r in nonregular)
        b = max(r.J[1] for r in nonregular)
        ok, rec, why = is_renormalization(spec, (a, b), horizon, max_period)
        if ok and not rec.regular:
            j_max = rec
        else:
            j_max = max(nonregular, key=lambda r: r.width)
            notes.append(f"union of non-regular intervals failed re-certification ({why})")
        if chain and not (chain[-1].J[0] < a and b < chain[-1].J[1]):
            notes.append("maximal non-regular interval not nested inside the deepest regular one")
    else:
        degenerate = detect_degenerate(spec, catalog=catalog, horizon=horizon)
    return NestedSequence(
        intervals=chain,
        maximal_nonregular=j_max,
        degenerate=degenerate,
        depth_cap_hit=depth_cap,
        notes=notes,
    )


def renormalization_cycle(spec: LorenzMapSpec, rec: RenormalizationRecord) -> list[tuple[float, float]]:
    """The period(a) forward images of (a,c) and period(b) images of (c,b);
    past an image that straddles c, that image stands for the rest."""
    a, b = rec.J
    comps: list[tuple[float, float]] = []
    for start, period in (((a, spec.c), rec.period_a), ((spec.c, b), rec.period_b)):
        images = push_orbit(spec, start, period - 1)
        comps += [images[min(k, len(images) - 1)] for k in range(period)]
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


def trapping_region(spec: LorenzMapSpec, rec: RenormalizationRecord) -> list[tuple[float, float]]:
    """Union of gaps enclosing the renormalization cycle components.

    The gap around the cycle component at age i is the monotone pullback of
    J along the branches the component still has to traverse before landing
    in J; a forward-invariance spot check walks TRAP_PROBE_POINTS random
    points of the union TRAP_PROBE_STEPS steps each.
    """
    a, b = rec.J
    c = spec.c
    comps: list[tuple[float, float]] = []

    def walk(start: tuple[float, float], period: int):
        # forward pass: the side of each cycle component up to the first that
        # straddles c, which (its upper end right of c) is pulled back as right
        sides = [interval_side(spec, iv) or "right" for iv in push_orbit(spec, start, period - 1)]
        comps.append(rec.J)
        # component i maps into J through sides[i:]. One backward pass: its
        # gap is the gap of component i + 1 (J for the last) clipped into
        # the range of sides[i] and pulled back along it
        tail: list[tuple[float, float]] = []
        gap = rec.J
        for side in reversed(sides[1:]):
            vr_lo, vr_hi = (branch_value(spec, side, x) for x in ((0.0, c) if side == "left" else (c, 1.0)))
            gap = pull_back(spec, tuple(min(max(e, vr_lo), vr_hi) for e in gap), [side])
            if gap is None:
                break
            tail.append(gap)
        # longest tail first: the dedupe keeps the first of two near-equal gaps
        comps.extend(g for g in reversed(tail) if g[1] - g[0] > spec.tolerance)

    walk((a, c), rec.period_a)
    walk((c, b), rec.period_b)
    # deduplicate by interval
    uniq: list[tuple[float, float]] = []
    for iv in comps:
        if not any(abs(iv[0] - u[0]) <= 1e-9 and abs(iv[1] - u[1]) <= 1e-9 for u in uniq):
            uniq.append(iv)
    uniq.sort()

    rng = np.random.default_rng(0)
    for _ in range(TRAP_PROBE_POINTS):
        k = int(rng.integers(0, len(uniq)))
        lo, hi = uniq[k]
        # the orbit up to a landing at c, that point included
        for x in orbit_list(spec, float(rng.uniform(lo, hi)), TRAP_PROBE_STEPS + 1)[1:]:
            if not any(u[0] - 1e-9 <= x <= u[1] + 1e-9 for u in uniq):
                raise ValueError(f"invariance probe left the trapping region at x={x}")
    return uniq
