"""Orbit iteration with directed semantics, itineraries, limit-set estimates,
Lyapunov exponents and rotation numbers.

Orbits that land within tolerance of the break point without a side are
truncated and flagged instead of silently choosing a branch: the two sides
of c are distinct points for this dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .map_core import (
    DirectedPoint,
    LorenzMapSpec,
    Side,
    _kernels,
    apply_raw,
    branch_inverse_array,
)

# the most points orbit_chunks hands back at once
WALK_CHUNK = 4096
# the cell grid, the preimage depth and the node cap of estimate_alpha_limit
ALPHA_LIMIT_RESOLUTION = 1024
ALPHA_LIMIT_DEPTH = 25
ALPHA_LIMIT_CAP = 10**6


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
    burn_in: int
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
    tail_windows: int
    hit_critical: bool = False

    def __float__(self):
        return self.value


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


def recurrence_tail(
    spec: LorenzMapSpec,
    starts: list[float],
    xs: list[float],
    far: list[bool],
    steps: int,
    cw: float,
    core: tuple[float, float],
    cycle_every: int,
) -> list[bool]:
    """Whether each point comes back: True when one of the next `steps`
    iterates of xs[i] lies within cw of starts[i].

    The sparse tail of the recurrence probe (spectral._recurrent_cells),
    with every exact exit of its block loop tested at each step:
    - an iterate within cw of the start: the point comes back;
    - the current point within tolerance of c: its next iterate is the
      NaN of eval_array, which never comes back;
    - an iterate equal, bit for bit, to the value saved every
      `cycle_every` steps: the float orbit is periodic and each later
      iterate repeats one already tested;
    - far[i] and an iterate inside core = [lo, hi], the certified core:
      every later iterate stays in the core, which the start window misses.
    Each exit only ends a walk whose verdict is already known, so the
    verdict is the one the full `steps` give. A step is the step of
    orbit_chunks, apply_raw's expression with the kernels resolved once; on
    polynomial branches it is eval_array's step bit for bit, up to the sign
    of a zero (numpy's maximum may turn -0.0 into 0.0), which no exit can
    tell apart.

    This is a loop of its own and not a walk on orbit_chunks: a chunk holds
    up to WALK_CHUNK points, so the exits could be tested only once per
    chunk, and a point that comes back early would still step to the end of
    its chunk.
    """
    c, tol = spec.c, spec.tolerance
    ker = _kernels(spec)
    left, right = ker["left"][0][0], ker["right"][0][0]
    lo, hi = core

    def comes_back(s: float, x: float, trapped: bool) -> bool:
        todo = steps
        while todo > 0:
            saved = x
            block = min(cycle_every, todo)
            for _ in range(block):
                if abs(x - c) <= tol:
                    return False
                y = left(x) if x < c else right(x)
                x = 0.0 if y < 0.0 else (1.0 if y > 1.0 else y)
                if abs(x - s) <= cw:
                    return True
                if x == saved or (trapped and lo <= x <= hi):
                    return False
            todo -= block
        return False

    return [comes_back(s, x, t) for s, x, t in zip(starts, xs, far)]


def orbit_list(spec: LorenzMapSpec, x0: float, n: int, side: Side = Side.NONE) -> list[float]:
    """The points of orbit_chunks(spec, x0, n, side) in one list: n points,
    or fewer when the orbit lands at c before its n-th point, which is then
    the last one."""
    pts: list[float] = []
    for chunk, _ in orbit_chunks(spec, x0, n, side):
        pts += chunk
    return pts


def lyapunov(
    spec: LorenzMapSpec,
    x0: float,
    n: int = 10_000,
    tail_windows: int = 10,
    side: Side = Side.NONE,
) -> LyapunovEstimate:
    """Lower Lyapunov exponent estimate: minimum of the trailing running
    averages of log|Df| (the liminf is approximated by a min over windows)."""
    if n < 1000:
        raise ValueError("n must be at least 1000")
    c, tol = spec.c, spec.tolerance
    ker = _kernels(spec)
    d_left, d_right = ker["left"][0][1], ker["right"][0][1]
    stride = max(1, n // 100)
    checkpoints = sorted({n - j * stride for j in range(tail_windows)} | {n})
    averages: list[float] = []
    total = 0.0
    k = 0
    hit = False
    nxt = 0
    for pts, _ in orbit_chunks(spec, x0, n, side):
        for x in pts:
            if abs(x - c) <= tol:
                # only a directed start may sit at c; it adds no log term
                if k or side == Side.NONE:
                    hit = True
                    break
            else:
                d = abs(d_left(x) if x < c else d_right(x))
                if d <= 0:
                    hit = True
                    break
                total += math.log(d)
            k += 1
            if nxt < len(checkpoints) and k == checkpoints[nxt]:
                averages.append(total / k)
                nxt += 1
        if hit:
            break
    if not averages:
        averages = [total / max(k, 1)]
    return LyapunovEstimate(
        value=min(averages),
        window_averages=averages,
        steps=k,
        tail_windows=tail_windows,
        hit_critical=hit,
    )


def estimate_omega_limit(
    spec: LorenzMapSpec,
    x0: float,
    burn_in: int = 1000,
    sample_len: int = 10_000,
    resolution: int = 1024,
    side: Side = Side.NONE,
) -> LimitSetEstimate:
    """Cells visited by the orbit after burn-in, on a dyadic grid."""
    if burn_in + sample_len > 10**8:
        raise ValueError("burn_in + sample_len too large")
    truncated = False
    k = 0
    cells: set[int] = set()
    contains_c = False
    cw = 1.0 / resolution
    for pts, landed in orbit_chunks(spec, x0, burn_in + sample_len, side):
        truncated = landed
        xs = np.array(pts[max(burn_in - k, 0) :])
        k += len(pts)
        if xs.size:
            if not np.isfinite(xs).all():
                raise ValueError("orbit point is not finite")
            # min(int(x * resolution), resolution - 1) on the whole chunk
            idx = np.minimum(xs * resolution, resolution - 1).astype(np.int64)
            cells.update(np.unique(idx).tolist())
            # a landing at c after burn-in counts as c in the limit set
            contains_c = contains_c or landed or bool(np.any(np.abs(xs - spec.c) <= cw))
    return LimitSetEstimate(
        cells=tuple(sorted(cells)),
        resolution=resolution,
        burn_in=burn_in,
        sample_len=sample_len,
        contains_c=contains_c,
        truncated=truncated,
    )


def estimate_alpha_limit(spec: LorenzMapSpec, x: float) -> AlphaLimitEstimate:
    """Breadth-first preimage tree of x, ALPHA_LIMIT_DEPTH levels deep and at
    most ALPHA_LIMIT_CAP nodes.

    Cells of nodes in the deeper half approximate the alpha-limit set; the
    connected uncovered region around c (from all nodes) estimates the
    critical gap of the backward dynamics.
    """
    tol = spec.tolerance
    level = np.array([x])
    all_nodes: list[tuple[int, float]] = [(0, x)]
    complete = True
    for d in range(1, ALPHA_LIMIT_DEPTH + 1):
        pre_l = branch_inverse_array(spec, "left", level)
        pre_r = branch_inverse_array(spec, "right", level)
        nxt = np.concatenate([pre_l, pre_r])
        nxt = nxt[~np.isnan(nxt)]
        nxt = np.unique(np.round(nxt, 13))
        if len(all_nodes) + nxt.size > ALPHA_LIMIT_CAP:
            complete = False
            break
        all_nodes.extend((d, float(v)) for v in nxt)
        level = nxt
        if level.size == 0:
            break
    deep = [v for (d, v) in all_nodes if d >= ALPHA_LIMIT_DEPTH / 2]
    cells = tuple(sorted({min(int(v * ALPHA_LIMIT_RESOLUTION), ALPHA_LIMIT_RESOLUTION - 1) for v in deep}))
    below = [v for (_, v) in all_nodes if v <= spec.c - tol]
    above = [v for (_, v) in all_nodes if v >= spec.c + tol]
    lo = max(below) if below else 0.0
    hi = min(above) if above else 1.0
    j_x: tuple[float, float] | None = (lo, hi)
    if hi - lo <= 2.0 / ALPHA_LIMIT_RESOLUTION:
        j_x = None
    return AlphaLimitEstimate(
        cells=cells,
        resolution=ALPHA_LIMIT_RESOLUTION,
        node_count=len(all_nodes),
        j_x_est=j_x,
        complete=complete,
    )


def rotation_number(spec: LorenzMapSpec, returnmap, x0: float, n: int = 10_000) -> float:
    """Frequency of left-component visits of a two-branch return map.

    For the glued circle map of a renormalization return this is the
    classical rotation number. Periodic return orbits give the exact
    rational visits/period.
    """
    branches = list(returnmap.branches)
    if len(branches) != 2:
        raise ValueError("rotation number needs a return map with exactly 2 branches")
    if not all(b.touches_c for b in branches):
        raise ValueError("rotation number needs both branches adjacent to c")
    lo, hi = returnmap.J
    tol = spec.tolerance
    left = min(branches, key=lambda b: b.domain[0])
    right = max(branches, key=lambda b: b.domain[0])
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
            t = left.return_time
        else:
            t = right.return_time
        for _ in range(t):
            x = apply_raw(spec, x, Side.NONE)
        if abs(x - x0) <= 10 * tol:
            return visits / (k + 1)
    if n == 0:
        raise ValueError("no return steps taken")
    return visits / n
