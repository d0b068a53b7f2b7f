"""Nice intervals, first-return maps, gap transport and avoidance measures.

A nice interval is an open interval around the break point whose boundary
orbits never re-enter it; first-return maps to nice intervals decompose into
monotone branches of constant return time, and the complement of the points
that never visit the interval is exhausted by gaps that map onto it.
All orbit-avoidance claims here are horizon-bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .map_core import (
    LorenzMapSpec,
    Side,
    apply_raw,
    bisect_array,
    branch_inverse_array,
    branch_value,
    deriv_array,
    eval_array,
)
from .orbits import orbit_chunks
from .periodic import PeriodicOrbitRecord

FULL_TOLERANCE = 1e-6
MAX_HORIZON = 10**6
MAX_RESOLUTION = 1 << 22


@dataclass
class NiceInterval:
    interval: tuple[float, float]
    horizon: int
    is_nice: bool
    boundary_periodic: tuple[int | None, int | None]
    undetermined: bool = False  # a boundary orbit hit the break point


@dataclass
class ReturnMapBranch:
    domain: tuple[float, float]
    return_time: int
    image: tuple[float, float]
    is_full: bool
    touches_c: bool


@dataclass
class ReturnMapRec:
    J: tuple[float, float]
    branches: list[ReturnMapBranch]
    uncovered_measure: float


@dataclass
class GapRecord:
    gap: tuple[float, float]
    order: int
    image_is_J: bool
    # a gap sharing an endpoint with J marks a non-perfect avoiding set
    # (isolated boundary points); reported, not acted on
    touches_boundary: bool = False


@dataclass
class PhobicEstimate:
    J: tuple[float, float]
    n: int
    surviving_measure: float
    surviving_cells: tuple[int, ...]
    grid: int


@dataclass
class ExpansionFit:
    lam: float
    prefactor: float
    survivors: int
    n: int
    passed: bool


@dataclass
class RootIntervalResult:
    interval: tuple[float, float]
    candidates: int
    notes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------


def _boundary_orbit_avoids(
    spec: LorenzMapSpec, start: float, J: tuple[float, float], horizon: int
) -> tuple[bool, int | None, bool]:
    """(avoids J, period if the orbit closes up, hit_critical flag).

    Detects periodic closure early so periodic boundaries cost one chunk
    of the walk instead of the whole horizon.
    """
    lo, hi = J
    tol = spec.tolerance
    k = -1
    for pts, _ in orbit_chunks(spec, start, horizon + 1):
        for x in pts:
            k += 1
            if k == 0:
                continue
            if lo + tol < x < hi - tol:
                return False, None, False
            if abs(x - start) <= 10 * tol:
                return True, k, False
    # the walk stops early only at a landing at c before step horizon
    return True, None, k < horizon


def is_nice(spec: LorenzMapSpec, J: tuple[float, float], horizon: int = 10_000) -> NiceInterval:
    """Do the forward orbits of both endpoints avoid the open interval?
    Raises ValueError for a horizon outside [1, 10**6]."""
    lo, hi = J
    if not (lo < spec.c < hi):
        raise ValueError("nice-interval test needs c inside J")
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValueError(f"horizon must lie in [1, {MAX_HORIZON}], got {horizon}")
    ok_a, per_a, hit_a = _boundary_orbit_avoids(spec, lo, J, horizon)
    ok_b, per_b, hit_b = _boundary_orbit_avoids(spec, hi, J, horizon)
    return NiceInterval(
        interval=J,
        horizon=horizon,
        is_nice=ok_a and ok_b,
        boundary_periodic=(per_a, per_b),
        undetermined=hit_a or hit_b,
    )


def interval_side(spec: LorenzMapSpec, interval: tuple[float, float]) -> str | None:
    """The branch an interval lies on: "left", "right", or None when it
    straddles the break point (f is not monotone on it). An interval that
    ends within tolerance of c lies on the branch of its other end."""
    u, v = interval
    c, tol = spec.c, spec.tolerance
    if u + tol < c < v - tol:
        return None
    return "left" if v <= c + tol else "right"


def push_orbit(
    spec: LorenzMapSpec, interval: tuple[float, float], steps: int
) -> list[tuple[float, float]]:
    """The forward images [I, f(I), ..., f^steps(I)] of an interval, tracked
    while monotone: the list ends early at the first image that straddles
    the break point, which is its last entry."""
    u, v = interval
    out = [(u, v)]
    for _ in range(steps):
        side = interval_side(spec, (u, v))
        if side is None:
            break
        lo_d, hi_d = (0.0, spec.c) if side == "left" else (spec.c, 1.0)
        u = branch_value(spec, side, min(max(u, lo_d), hi_d))
        v = branch_value(spec, side, min(max(v, lo_d), hi_d))
        u = min(max(u, 0.0), 1.0)
        v = min(max(v, 0.0), 1.0)
        out.append((u, v))
    return out


def push_interval(
    spec: LorenzMapSpec, interval: tuple[float, float], steps: int
) -> tuple[float, float] | None:
    """f^steps(I), the last image of `push_orbit`; None when an earlier
    image straddles the break point."""
    images = push_orbit(spec, interval, steps)
    return images[-1] if len(images) > steps else None


def order(spec: LorenzMapSpec, I: tuple[float, float], horizon: int = 1000) -> int | None:
    """Smallest k with c in the interior of f^k(I); None if not found within
    the horizon ("infinite up to horizon")."""
    if not (I[0] < I[1]):
        raise ValueError("empty interval")
    for k in range(horizon + 1):
        I = push_interval(spec, I, 1)
        if I is None:
            return k  # f^k(I) straddles c
        if I[1] - I[0] <= 2 * spec.tolerance:
            return None  # collapsed below resolution, cannot cover c
    return None


def _first_return_time(spec: LorenzMapSpec, x: float, J: tuple[float, float], horizon: int) -> int:
    """First return time of x to J: -1 when the orbit meets c first, 0 when
    it has not returned within the horizon. Scalar reference of
    `_return_times`."""
    lo, hi = J
    tol = spec.tolerance
    y = x
    for k in range(1, horizon + 1):
        if abs(y - spec.c) <= tol:
            return -1
        y = apply_raw(spec, y, Side.NONE)
        if lo + tol < y < hi - tol:
            return k
    return 0


def _return_times(spec: LorenzMapSpec, xs: np.ndarray, J: tuple[float, float], limits) -> np.ndarray:
    """`_first_return_time` of each point of the 1-d array xs, with horizon
    limits: one int for all points, or one per point.

    Each point is iterated only up to its own limit, so
    `_return_times(spec, xs, J, ts) == ts` asks whether each point first
    returns at exactly its own t without walking on to a common horizon.
    """
    lo, hi = J
    tol = spec.tolerance
    xs = np.asarray(xs, dtype=float)
    lim = np.broadcast_to(np.asarray(limits, dtype=np.int64), xs.shape)
    out = np.zeros(xs.shape, dtype=np.int64)
    idx = np.flatnonzero(lim >= 1)
    y, lim = xs[idx], lim[idx]
    k = 0
    while idx.size:
        k += 1
        y = eval_array(spec, y)  # NaN where the orbit met c
        back = (y > lo + tol) & (y < hi - tol)
        dead = np.isnan(y)
        out[idx[back]] = k
        out[idx[dead]] = -1
        keep = ~(back | dead) & (lim > k)
        idx, y, lim = idx[keep], y[keep], lim[keep]
    return out


def first_return_map(
    spec: LorenzMapSpec,
    J: tuple[float, float],
    horizon: int = 1000,
    resolution: int = 1 << 12,
) -> ReturnMapRec:
    """Branch decomposition of the first-return map to J.

    Branch domains are grid runs of constant return time. Runs thinner than
    the grid can resolve are dropped into uncovered_measure rather than
    guessed at; a run is dropped before refinement when its grid neighbours
    already bound it below that width. The edges of the other runs are
    refined by bisection, all edges in lockstep on arrays. Each refined
    run is then certified by `push_interval` of its domain over its return
    time: a run the push refuses (an earlier image straddles c) is dropped
    as uncovered, and the push of any other run is its branch image.
    Raises ValueError for a resolution outside [2, 2**22] or a horizon
    outside [1, 10**6].
    """
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must lie in [2, {MAX_RESOLUTION}], got {resolution}")
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValueError(f"horizon must lie in [1, {MAX_HORIZON}], got {horizon}")
    lo, hi = J
    tol = spec.tolerance
    xs = np.linspace(lo, hi, resolution + 2)[1:-1]
    times = _return_times(spec, xs, J, horizon)
    if not (times > 0).any():
        raise ValueError("no returns observed within the horizon")

    # maximal runs of equal positive return time, split at the break point
    # (the two sides of c can share a return time yet belong to different
    # monotone branches): a run ends wherever the time changes or c falls
    # between two grid points
    n = len(xs)
    cut = (times[1:] != times[:-1]) | ((xs[:-1] < spec.c) & (spec.c <= xs[1:]))
    first = np.concatenate(([0], np.flatnonzero(cut) + 1))
    last = np.append(first[1:] - 1, n - 1)

    # drop unresolvably thin runs: within a branch of width w the tolerance
    # ball around c smears images by about |J|/w * tolerance, so image
    # claims at FULL_TOLERANCE are only decidable above this width; the
    # remainder is measured, not guessed at. A run's edges lie between its
    # outer grid neighbours, so a run they already bound below the width is
    # dropped without refining it.
    thin = max(2 * tol, (hi - lo) * 10 * tol / FULL_TOLERANCE)
    outer = np.append(xs[1:], hi)[last] - np.append(lo, xs[:-1])[first]
    keep = (times[first] > 0) & (outer > thin)
    runs = list(zip(first[keep].tolist(), last[keep].tolist(), times[first[keep]].tolist()))

    # each edge is the break point, an end of J claimed by a probe just
    # inside it, or the x_in of a bisection bracket (x_in, x_out) whose x_in
    # returns at the run's time and whose x_out does not
    eps = (xs[1] - xs[0]) * 1e-6
    edges: list[list] = [[None, None] for _ in runs]
    probes: list[tuple[int, int, float, float, float]] = []  # (run, side, probe, end, x_in)
    brackets: list[tuple[int, int, float, float]] = []  # (run, side, x_in, x_out)
    for r, (i, j, _) in enumerate(runs):
        if i == 0:
            probes.append((r, 0, lo + eps, lo, xs[0]))
        elif xs[i - 1] < spec.c <= xs[i]:
            edges[r][0] = spec.c  # run begins at the break point
        else:
            brackets.append((r, 0, xs[i], xs[i - 1]))
        if j == n - 1:
            probes.append((r, 1, hi - eps, hi, xs[j]))
        elif xs[j] < spec.c <= xs[j + 1]:
            edges[r][1] = spec.c  # run ends at the break point
        else:
            brackets.append((r, 1, xs[j], xs[j + 1]))
    pt = np.array([runs[p[0]][2] for p in probes], dtype=np.int64)
    hit = _return_times(spec, np.array([p[2] for p in probes], dtype=float), J, pt) == pt
    for (r, e, _, end, x_in), ok in zip(probes, hit):
        if ok:
            edges[r][e] = end
        else:
            brackets.append((r, e, x_in, end))

    # the boundaries between return-time regimes, bisected all at once
    x_in = np.array([b[2] for b in brackets], dtype=float)
    x_out = np.array([b[3] for b in brackets], dtype=float)
    bt = np.array([runs[b[0]][2] for b in brackets], dtype=np.int64)
    x_in, _ = bisect_array(lambda m, t: _return_times(spec, m, J, t) == t, x_in, x_out, 60, bt)
    for (r, e, _, _), a in zip(brackets, x_in.tolist()):
        edges[r][e] = a

    # each run wider than the thin width is certified by one monotone push
    # of its domain. The push is None when some f^k(domain), k < t,
    # straddles c: the run still holds branch structure below grid
    # resolution (plateaus accumulating at c) and is dropped into
    # uncovered_measure. Otherwise f^t is one monotone composition on the
    # domain; both ends return at t, so every earlier image misses J,
    # every interior point returns at exactly t, and f^t(domain) is the
    # branch image (an end at c is pushed one-sidedly, as f(c-) or f(c+)).
    branches: list[ReturnMapBranch] = []
    covered = 0.0
    for (left, right), (_, _, t) in zip(edges, runs):
        if right - left <= thin:
            continue
        image = push_interval(spec, (left, right), t)
        if image is None:
            continue
        touches = abs(left - spec.c) <= 10 * tol or abs(right - spec.c) <= 10 * tol
        full = abs(image[0] - lo) <= FULL_TOLERANCE and abs(image[1] - hi) <= FULL_TOLERANCE
        branches.append(
            ReturnMapBranch(
                domain=(left, right),
                return_time=t,
                image=image,
                is_full=full,
                touches_c=touches,
            )
        )
        covered += right - left
    return ReturnMapRec(J=J, branches=branches, uncovered_measure=max((hi - lo) - covered, 0.0))


# ---------------------------------------------------------------------------
# gaps and avoidance


def gaps(
    spec: LorenzMapSpec,
    J: tuple[float, float],
    max_order: int = 25,
    budget: int = 100_000,
) -> list[GapRecord]:
    """Backward enumeration of the intervals that reach J monotonically.

    J itself has order 0; each further gap is a one-branch preimage of a
    known gap that stays clear of J until it lands on it. Gaps are verified
    to map onto J at their order. Each level inverts the ends of its whole
    frontier with one branch_inverse_array call per branch; the candidates
    are then taken gap by gap, left branch first.
    """
    lo, hi = J
    tol = spec.tolerance
    out: list[GapRecord] = [GapRecord(gap=J, order=0, image_is_J=True)]
    seen = {(round(lo, 12), round(hi, 12))}
    frontier = [(lo, hi)]
    depth = 0
    while frontier and depth < max_order:
        depth += 1
        nxt: list[tuple[float, float]] = []
        ends = np.array(frontier, dtype=float)
        pre = np.stack([branch_inverse_array(spec, side, ends) for side in ("left", "right")], axis=1)
        for uu, vv in pre.reshape(-1, 2).tolist():
            # "not wider" so that a NaN end (outside the branch range) is dropped too
            if not vv - uu > 2 * tol:
                continue
            if uu < hi and vv > lo:
                continue  # meets J: those points belong to the gap J itself
            key = (round(uu, 12), round(vv, 12))
            if key in seen:
                continue
            seen.add(key)
            if len(out) >= budget:
                return out
            img = push_interval(spec, (uu, vv), depth)
            ok = img is not None and abs(img[0] - lo) <= FULL_TOLERANCE and abs(img[1] - hi) <= FULL_TOLERANCE
            shares = min(abs(uu - lo), abs(uu - hi), abs(vv - lo), abs(vv - hi)) <= 10 * tol
            out.append(GapRecord(gap=(uu, vv), order=depth, image_is_J=bool(ok), touches_boundary=shares))
            nxt.append((uu, vv))
        frontier = nxt
    return out


def _stay_outside(spec: LorenzMapSpec, xs: np.ndarray, J: tuple[float, float], n: int) -> np.ndarray:
    """Mask of the points of xs whose first n iterates (time 0 included)
    stay outside the open interval J; an orbit that meets c does not."""
    lo, hi = J
    alive = ~((xs > lo) & (xs < hi))
    y = xs.copy()
    for _ in range(n):
        y[alive] = eval_array(spec, y[alive])
        alive &= ~np.isnan(y)
        alive &= ~((y > lo) & (y < hi))
    return alive


def phobic_measure(
    spec: LorenzMapSpec,
    J: tuple[float, float],
    n: int = 50,
    grid: int = 100_000,
) -> PhobicEstimate:
    """Fraction of a uniform grid whose first n iterates (time 0 included)
    stay outside J."""
    if not (J[0] < spec.c < J[1]):
        raise ValueError("J must contain c")
    alive = _stay_outside(spec, (np.arange(grid) + 0.5) / grid, J, n)
    cells = tuple(int(i) for i in np.nonzero(alive)[0])
    return PhobicEstimate(
        J=J,
        n=n,
        surviving_measure=float(alive.sum()) / grid,
        surviving_cells=cells,
        grid=grid,
    )


def mane_expansion_check(
    spec: LorenzMapSpec,
    J: tuple[float, float],
    samples: int = 100_000,
    n: int = 40,
    rng: np.random.Generator | None = None,
) -> ExpansionFit:
    """Fit |Df^k| ~ C lambda^k over orbits avoiding J for n steps.

    Caller contract: the map should have no neutral orbits outside J up to
    moderate period, else the expansion statement does not apply.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    xs = rng.uniform(0.0, 1.0, samples)
    survivors = xs[_stay_outside(spec, xs, J, n)]
    if survivors.size < 10:
        raise ValueError(f"insufficient survivors: {survivors.size} < 10")
    # pooled regression of cumulative log-derivative against step count
    y = survivors.copy()
    cum = np.zeros(survivors.shape)
    ks: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    mins = np.full(survivors.shape, np.inf)
    for k in range(1, n + 1):
        d = np.abs(deriv_array(spec, y))
        cum = cum + np.log(d)
        y = eval_array(spec, y)
        ks.append(np.full(survivors.shape, float(k)))
        vals.append(cum.copy())
        mins = np.minimum(mins, cum)
    K = np.concatenate(ks)
    V = np.concatenate(vals)
    kbar, vbar = K.mean(), V.mean()
    slope = float(((K - kbar) * (V - vbar)).sum() / ((K - kbar) ** 2).sum())
    lam = math.exp(slope)
    prefactor = float(np.exp(mins.min()))
    return ExpansionFit(lam=lam, prefactor=prefactor, survivors=int(survivors.size), n=n, passed=lam > 1.0)


# ---------------------------------------------------------------------------
# root of a periodic nice interval


def root_interval(
    spec: LorenzMapSpec,
    J: tuple[float, float],
    max_period: int = 12,
    *,
    catalog: list[PeriodicOrbitRecord],
    horizon: int = 10_000,
) -> RootIntervalResult:
    """Smallest periodic nice interval strictly containing closure(J) with
    boundary periods bounded by J's own; (0,1) when no candidate exists."""
    lo, hi = J
    tol = spec.tolerance
    nice = is_nice(spec, J, horizon)
    notes = []
    if not nice.is_nice:
        notes.append("input interval failed the niceness probe")
    per_a, per_b = nice.boundary_periodic
    per_a = per_a or max_period
    per_b = per_b or max_period

    # per orbit: a, its greatest point <= lo - tol; b, its least point
    # >= hi + tol; n1, its least point > a + tol; p2, its greatest point
    # < b - tol. A pair (o1, o2) bounds a candidate (a[o1], b[o2]) when no
    # point of o1 or o2 lies strictly inside it: n1[o1] and p2[o2] decide
    # that for the whole pair matrix at once.
    k = len(catalog)
    a, b = np.full(k, np.nan), np.full(k, np.nan)
    n1, p2 = np.full(k, np.inf), np.full(k, -np.inf)
    for i, o in enumerate(catalog):
        left = [p for p in o.points if p <= lo - tol]
        if left:
            a[i] = a_i = max(left)
            n1[i] = min((p for p in o.points if p > a_i + tol), default=math.inf)
        right = [q for q in o.points if q >= hi + tol]
        if right:
            b[i] = b_i = min(right)
            p2[i] = max((q for q in o.points if q < b_i - tol), default=-math.inf)
    period = np.array([o.period for o in catalog], dtype=np.int64)
    rows = (period <= per_a) & ~np.isnan(a)
    cols = (period <= per_b) & ~np.isnan(b)
    pairs = (
        rows[:, None]
        & cols[None, :]
        & ~(n1[:, None] < (b - tol)[None, :])
        & ~(p2[None, :] > (a + tol)[:, None])
    )
    count = int(np.count_nonzero(pairs))
    if not count:
        return RootIntervalResult(
            interval=(0.0, 1.0),
            candidates=0,
            notes=notes + ["no periodic nice candidate found; using the whole interval"],
        )
    best = (float(a[pairs.any(axis=1)].max()), float(b[pairs.any(axis=0)].min()))
    # consistency spot check: the root boundary orbit must avoid the root interval
    chk = is_nice(spec, best, min(horizon, 10_000))
    if not chk.is_nice:
        notes.append("intersection of candidates failed the niceness probe")
    # breadth-first order: the first four records are the same at any budget
    for g in gaps(spec, J, max_order=6, budget=4)[1:4]:
        if not g.image_is_J:
            notes.append(f"gap {g.gap} at order {g.order} failed to map onto J")
    return RootIntervalResult(interval=best, candidates=count, notes=notes)
