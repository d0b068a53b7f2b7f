"""Orbit iteration with directed semantics, itineraries, limit-set estimates,
Lyapunov exponents and rotation numbers.

Orbits that land within tolerance of the break point without a side are
truncated and flagged instead of silently choosing a branch: the two sides
of c are distinct points for this dynamics.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .map_core import (
    DirectedPoint,
    LorenzMapSpec,
    Side,
    _kernels,
    apply_raw,
    branch_inverse_array,
    critical_values,
)

# the most points orbit_chunks hands back at once
WALK_CHUNK = 4096
# the cell grid, the preimage depth and the node cap of estimate_alpha_limit
ALPHA_LIMIT_RESOLUTION = 1024
ALPHA_LIMIT_DEPTH = 25
ALPHA_LIMIT_CAP = 10**6
# lyapunov takes the min over this many trailing running averages
LYAPUNOV_TAIL_WINDOWS = 10
# estimate_omega_limit drops this many orbit points before it samples
OMEGA_BURN_IN = 1000


@dataclass
class OrbitSegment:
    points: list[DirectedPoint]
    hit_critical_at: int | None = None

    @property
    def length(self) -> int:
        return len(self.points)


@dataclass
class Itinerary:
    word: str


@dataclass
class LimitSetEstimate:
    cells: tuple[int, ...]
    resolution: int
    sample_len: int
    contains_c: bool
    truncated: bool = False


@dataclass
class AlphaLimitEstimate:
    cells: tuple[int, ...]
    resolution: int
    node_count: int
    j_x_est: tuple[float, float] | None
    complete: bool


@dataclass
class LyapunovEstimate:
    value: float
    window_averages: list[float]
    steps: int
    hit_critical: bool = False


def iterate_orbit(spec: LorenzMapSpec, x0: float, side: Side = Side.NONE, n: int = 100) -> OrbitSegment:
    """Forward orbit of up to n steps starting at (x0, side).

    The side applies to x0 only; later iterates landing within tolerance of c
    stop the orbit with hit_critical_at set.
    """
    if not (0.0 <= x0 <= 1.0):
        raise ValueError("x0 outside [0,1]")
    xs: list[float] = []
    hit = None
    for pts, landed in orbit_chunks(spec, x0, max(n, 0) + 1, side):
        xs += pts
        # a landing at c stops the orbit; the n-th iterate is kept but not
        # examined
        if landed and len(xs) - 1 < max(n, 1):
            hit = len(xs) - 1
    points = [DirectedPoint(x0, side)] + [DirectedPoint(x) for x in xs[1:]]
    return OrbitSegment(points, hit_critical_at=hit)


def symbols(spec: LorenzMapSpec, points: list[DirectedPoint]) -> str:
    """The itinerary bits of points, one per point up to the first
    undirected landing within tolerance of c, which ends the word: 0 left of
    c or at c with side minus, 1 right of c or at c with side plus."""
    bits = []
    for p in points:
        if abs(p.x - spec.c) <= spec.tolerance:
            if p.side == Side.NONE:
                break
            bits.append("0" if p.side == Side.MINUS else "1")
        else:
            bits.append("0" if p.x < spec.c else "1")
    return "".join(bits)


def itinerary(spec: LorenzMapSpec, x0: float, side: Side = Side.NONE, n: int = 100) -> Itinerary:
    """The word of symbols() on the first n points of the orbit of (x0, side)."""
    return Itinerary(word=symbols(spec, iterate_orbit(spec, x0, side, n).points[:n]))


def orbit_chunks(spec: LorenzMapSpec, x0: float, n: int, side: Side = Side.NONE):
    """The float orbit x_0, x_1, ... of (x0, side), at most n points, as
    (points, landed) pairs with at most WALK_CHUNK points in each list.

    The side applies to x0 only. The orbit stops at the first undirected
    landing within tolerance of c (x_k with k >= 1, or x_0 without a side):
    that point is the last one handed back, with landed True. A step is
    apply_raw's expression with the branch kernels resolved once, so the
    points are those of repeated apply_raw calls bit for bit.
    """
    if n < 1:
        return
    c, tol = spec.c, spec.tolerance
    if abs(x0 - c) <= tol and side == Side.NONE:
        yield [x0], True
        return
    ker = _kernels(spec)
    left, right = ker["left"][0][0], ker["right"][0][0]
    pts = [x0]
    # the one step that may use the side
    x = apply_raw(spec, x0, side) if n > 1 else x0
    made = 1
    while made < n:
        todo = min(WALK_CHUNK - len(pts), n - made)
        for _ in range(todo):
            pts.append(x)
            if abs(x - c) <= tol:
                yield pts, True
                return
            y = left(x) if x < c else right(x)
            x = 0.0 if y < 0.0 else (1.0 if y > 1.0 else y)
        made += todo
        if len(pts) == WALK_CHUNK:
            yield pts, False
            pts = []
    if pts:
        yield pts, False


def orbit_list(spec: LorenzMapSpec, x0: float, n: int) -> list[float]:
    """The points of orbit_chunks(spec, x0, n) in one list: n points, or
    fewer when the orbit lands at c before its n-th point, which is then the
    last one."""
    pts: list[float] = []
    for chunk, _ in orbit_chunks(spec, x0, n):
        pts += chunk
    return pts


def critical_orbit(spec: LorenzMapSpec, i: int, n: int) -> array:
    """The first n points of the orbit of the critical value v_i, where
    (v0, v1) = (f(c+), f(c-)), as a float array: orbit_list(spec, v_i, n).

    Each walk is kept, 8 bytes a point, in the spec's __dict__ beside the
    kernel cache (see map_core._kernels) and extended from its last point
    when a longer prefix is asked, so no point is stepped twice; a walk that
    landed at c ends there and is never extended."""
    walks = spec.__dict__.setdefault("_critical_orbits", {})
    pts, landed = walks.get(i) or (array("d"), False)
    if len(pts) < n and not landed:
        # an extension starts again at the last point, which it hands back first
        start = pts.pop() if pts else critical_values(spec)[i]
        for chunk, landed in orbit_chunks(spec, start, n - len(pts)):
            pts.fromlist(chunk)
        walks[i] = (pts, landed)
    return pts[:n]


def lyapunov(spec: LorenzMapSpec, orbit: Iterable[float], n: int) -> LyapunovEstimate:
    """Lower Lyapunov exponent estimate over orbit, read once in order: the
    first n points of an orbit, or fewer when it landed at c. The estimate is
    the minimum of the running averages of log|Df| at the checkpoints
    n - j * (n // 100), 0 <= j < LYAPUNOV_TAIL_WINDOWS, that the orbit reaches
    (the liminf is approximated by a min over windows). A point within
    tolerance of c ends the sum with hit_critical."""
    if n < 1000:
        raise ValueError("n must be at least 1000")
    c, tol = spec.c, spec.tolerance
    ker = _kernels(spec)
    d_left, d_right = ker["left"][0][1], ker["right"][0][1]
    stride = n // 100
    checkpoints = {n - j * stride for j in range(LYAPUNOV_TAIL_WINDOWS)}
    averages: list[float] = []
    total = 0.0
    k = 0
    hit = False
    for x in orbit:
        d = 0.0 if abs(x - c) <= tol else abs(d_left(x) if x < c else d_right(x))
        if d <= 0:
            hit = True
            break
        total += math.log(d)
        k += 1
        if k in checkpoints:
            averages.append(total / k)
    if not averages:
        averages = [total / max(k, 1)]
    return LyapunovEstimate(
        value=min(averages),
        window_averages=averages,
        steps=k,
        hit_critical=hit,
    )


def mark_omega_cells(spec: LorenzMapSpec, x0: float, sample_len: int, visited: np.ndarray):
    """Walk the orbit of x0 for OMEGA_BURN_IN + sample_len points, one
    orbit_chunks chunk at a time, and set in visited, one flag per cell of a
    dyadic grid of visited.size cells, the cell of each point after the
    burn-in: a point x marks cell min(int(x * visited.size), visited.size - 1).

    After each chunk it yields the chunk's sampled points (an array, empty
    while the burn-in lasts) and whether the orbit landed at c there, so a
    caller may stop the walk between chunks. Every sampled point is an image
    of the map step, so it lies in [0, 1].
    """
    if OMEGA_BURN_IN + sample_len > 10**8:
        raise ValueError("sample_len too large")
    resolution = visited.size
    k = 0
    for pts, landed in orbit_chunks(spec, x0, OMEGA_BURN_IN + sample_len):
        xs = np.array(pts[max(OMEGA_BURN_IN - k, 0) :])
        k += len(pts)
        if xs.size:
            if not np.isfinite(xs).all():
                raise ValueError("orbit point is not finite")
            visited[np.minimum(xs * resolution, resolution - 1).astype(np.int64)] = True
        yield xs, landed


def estimate_omega_limit(
    spec: LorenzMapSpec, x0: float, sample_len: int = 10_000, resolution: int = 1024
) -> LimitSetEstimate:
    """Cells visited by the orbit after OMEGA_BURN_IN steps, on a dyadic
    grid (mark_omega_cells)."""
    truncated = False
    visited = np.zeros(resolution, dtype=bool)
    contains_c = False
    cw = 1.0 / resolution
    for xs, landed in mark_omega_cells(spec, x0, sample_len, visited):
        truncated = landed
        if xs.size:
            # a landing at c after burn-in counts as c in the limit set
            contains_c = contains_c or landed or bool(np.any(np.abs(xs - spec.c) <= cw))
    return LimitSetEstimate(
        cells=tuple(np.flatnonzero(visited).tolist()),
        resolution=resolution,
        sample_len=sample_len,
        contains_c=contains_c,
        truncated=truncated,
    )


def estimate_alpha_limit(spec: LorenzMapSpec, x: float) -> AlphaLimitEstimate:
    """Breadth-first preimage tree of x, ALPHA_LIMIT_DEPTH levels deep and at
    most ALPHA_LIMIT_CAP nodes, one array per depth; each level is one
    branch_inverse_array call per branch.

    Cells of nodes in the deeper half approximate the alpha-limit set; the
    connected uncovered region around c (from all nodes) estimates the
    critical gap of the backward dynamics.
    """
    tol = spec.tolerance
    levels = [np.array([x])]
    count = 1
    complete = True
    for _ in range(ALPHA_LIMIT_DEPTH):
        nxt = np.concatenate([branch_inverse_array(spec, side, levels[-1]) for side in ("left", "right")])
        nxt = nxt[~np.isnan(nxt)]
        nxt = np.unique(np.round(nxt, 13))
        if count + nxt.size > ALPHA_LIMIT_CAP:
            complete = False
            break
        count += nxt.size
        levels.append(nxt)
        if nxt.size == 0:
            break
    nodes = np.concatenate(levels)
    deep = nodes[sum(level.size for level in levels[: math.ceil(ALPHA_LIMIT_DEPTH / 2)]) :]
    cells = np.minimum((deep * ALPHA_LIMIT_RESOLUTION).astype(int), ALPHA_LIMIT_RESOLUTION - 1)
    below = nodes[nodes <= spec.c - tol]
    above = nodes[nodes >= spec.c + tol]
    lo = below.max().item() if below.size else 0.0
    hi = above.min().item() if above.size else 1.0
    j_x: tuple[float, float] | None = (lo, hi)
    if hi - lo <= 2.0 / ALPHA_LIMIT_RESOLUTION:
        j_x = None
    return AlphaLimitEstimate(
        cells=tuple(np.unique(cells).tolist()),
        resolution=ALPHA_LIMIT_RESOLUTION,
        node_count=count,
        j_x_est=j_x,
        complete=complete,
    )


def rotation_number(
    spec: LorenzMapSpec, J: tuple[float, float], return_times: tuple[int, int], x0: float, n: int = 10_000
) -> float:
    """Frequency of left-component visits of the two-branch return map to
    J whose branches left and right of c return at return_times.

    For the glued circle map of a renormalization return this is the
    classical rotation number. Periodic return orbits give the exact
    rational visits/period.
    """
    lo, hi = J
    tol = spec.tolerance
    t_left, t_right = return_times
    x = x0
    visits = 0
    for k in range(n):
        if not (lo - tol <= x <= hi + tol):
            raise ValueError("not forward invariant: return orbit escaped the interval")
        if abs(x - spec.c) <= tol:
            n = k
            break
        if x < spec.c:
            visits += 1
            t = t_left
        else:
            t = t_right
        for _ in range(t):
            x = apply_raw(spec, x, Side.NONE)
        if abs(x - x0) <= 10 * tol:
            return visits / (k + 1)
    if n == 0:
        raise ValueError("no return steps taken")
    return visits / n
