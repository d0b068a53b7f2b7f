"""Non-wandering strata, attractor classification and entropy estimates.

The non-wandering set is stratified by the nested trapping regions of the
renormalization chain: stratum s collects the grid cells of the s-th
trapping annulus whose orbits return to within one cell of themselves. The
final stratum is classified into a periodic / super attractor, a depth-capped
solenoid candidate, a Cherry candidate (irrational return rotation), a cycle
of intervals, or a Cantor-like remainder. Every verdict is a budgeted
numerical probe, and the report says which budgets it ran under.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .map_core import LorenzMapSpec, MapValidationError, critical_values, eval_array, pull_back
from .orbits import (
    estimate_omega_limit,
    orbit_chunks,
    orbit_list,
    recurrence_tail,
    rotation_number,
)
from .periodic import (
    MAX_PERIOD,
    NoPeriodicOrbitFound,
    PeriodicOrbitRecord,
    VariationalPrincipleViolated,
    find_periodic_points,
)
from .renorm import (
    NestedSequence,
    RenormalizationRecord,
    find_renormalizations,
    renormalization_cycle,
    trapping_region,
)
from .return_maps import FULL_TOLERANCE, MAX_HORIZON, first_return_map, interval_side, push_interval

CRITICAL_VALUE_TOL = 1e-9

# the recurrence probe's trajectory buffer: at most this many steps per
# block and this many floats in all (steps x live points)
RECURRENCE_BLOCK_STEPS = 256
RECURRENCE_BLOCK_FLOATS = 1 << 16
# on polynomial maps, at most this many live points finish on the scalar
# step (about 0.2 us a point-step) instead of the array step (about 18 us a
# call, whatever its size)
RECURRENCE_TAIL_POINTS = 64
# margin of the core's invariance certificate, far above the kernel's rounding
CORE_MARGIN = 1e-9
# entropy_estimate merges bit-equal float orbits every this many burn-in steps
ENTROPY_MERGE_STEPS = 64
# the coverage probe keeps at most this many merged image components and
# stops once this share of its target cells is covered, the share a
# transitivity probe must reach
COVERAGE_COMPONENT_CAP = 4096
COVERAGE_STOP_FRACTION = 0.9

OMEGA0_FULL = "full_interval"
OMEGA0_ZERO = "{0}"
OMEGA0_ONE = "{1}"
OMEGA0_BOTH = "{0,1}"


# upper caps of the budgets: the catalog's period cap, the return-time cap,
# and sizes tied to memory (the entropy word array holds 256 B per sample,
# and the grids one float or flag per cell)
BUDGET_CAPS = {
    "max_period": MAX_PERIOD,
    "horizon": MAX_HORIZON,
    "grid_resolution": 1 << 22,
    "samples": 10**6,
    "recurrence_resolution": 1 << 16,
    "probe_resolution": 1 << 16,
}


@dataclass
class Budgets:
    max_period: int = 12
    max_depth: int = 8
    horizon: int = 10_000
    grid_resolution: int = 1 << 14
    samples: int = 100_000
    seed: int = 0
    recurrence_resolution: int = 1 << 10
    probe_resolution: int = 1 << 8

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "Budgets":
        if not isinstance(d, dict):
            raise MapValidationError(f"budgets must be a JSON object, got {d!r}")
        b = Budgets()
        for k, v in d.items():
            if not hasattr(b, k):
                raise KeyError(f"unknown budget field {k!r}")
            if isinstance(v, bool) or not isinstance(v, int):
                raise MapValidationError(f"budget {k} must be an integer, got {v!r}")
            setattr(b, k, v)
        for k, v in vars(b).items():
            if k != "seed" and v <= 0:
                raise MapValidationError(f"budget {k} must be positive")
            if v > BUDGET_CAPS.get(k, v):
                raise MapValidationError(f"budget {k} must be at most {BUDGET_CAPS[k]}, got {v}")
        if b.seed < 0:
            raise MapValidationError("seed must be non-negative")
        return b


@dataclass(eq=False)
class Analysis:
    """One map under one set of budgets, and the objects every stage of a
    report reads, each computed on first use and then kept: the periodic
    catalog, the renormalization sequence, the number of strata n_f and the
    trapping regions of its chain."""

    spec: LorenzMapSpec
    budgets: Budgets

    @cached_property
    def catalog(self) -> list[PeriodicOrbitRecord]:
        return find_periodic_points(self.spec, self.budgets.max_period, self.budgets.grid_resolution)

    @cached_property
    def seq(self) -> NestedSequence:
        b = self.budgets
        return find_renormalizations(self.spec, b.max_period, b.max_depth, b.horizon, catalog=self.catalog)

    @cached_property
    def n_f(self) -> int:
        """The number of strata: one per chain level plus the outer one, and
        0 when the critical values reach both ends (omega_0 is the full
        interval)."""
        return 0 if omega0(self.spec) == OMEGA0_FULL else len(self.seq.chain()) + 1

    @cached_property
    def trapping(self) -> tuple[list[list[tuple[float, float]]], list[str]]:
        """K_0 = [0, 1] and the trapping region K_n of each chain level, and
        a note for each level whose invariance probe failed (its K_n is its
        interval J)."""
        K: list[list[tuple[float, float]]] = [[(0.0, 1.0)]]
        notes: list[str] = []
        for rec in self.seq.chain():
            try:
                K.append(trapping_region(self.spec, rec))
            except ValueError as e:
                notes.append(f"trapping region of {rec.J} failed its invariance probe: {e}")
                K.append([rec.J])
        return K, notes


@dataclass
class AttractorClass:
    kind: str  # periodic_attractor | super_attractor | cherry | solenoid |
    #            interval_cycle | cantor_chaotic_heuristic | wild_candidate
    evidence: dict = field(default_factory=dict)
    confidence: str = "normal"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "confidence": self.confidence, "evidence": self.evidence}


@dataclass
class Stratum:
    n: int
    K_n: list[tuple[float, float]]
    recurrent_cells: tuple[int, ...]
    resolution: int
    transitive_probe: bool | None = None
    block_decomposition: list[tuple[float, float]] | None = None
    block_return_steps: list[int] | None = None
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "K_n": [list(iv) for iv in self.K_n],
            "recurrent_cells": list(self.recurrent_cells),
            "resolution": self.resolution,
            "transitive_probe": self.transitive_probe,
            "block_decomposition": [list(iv) for iv in self.block_decomposition]
            if self.block_decomposition
            else None,
            "block_return_steps": self.block_return_steps,
            "notes": self.notes,
        }


@dataclass
class DecompositionRecord:
    n_f: int
    omega0: str
    strata: list[Stratum]
    final_class: AttractorClass
    depth_cap_hit: bool
    notes: list[str] = field(default_factory=list)
    # experimental: critical-value annuli between consecutive regular levels;
    # the subtraction convention for the inner interval is not settled, so
    # this field is reported but nothing downstream depends on it
    experimental_annuli: list[list[tuple[float, float]]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_f": self.n_f,
            "omega0": self.omega0,
            "strata": [s.to_dict() for s in self.strata],
            "final_class": self.final_class.to_dict(),
            "depth_cap_hit": self.depth_cap_hit,
            "notes": self.notes,
            "experimental_p_n": [[list(iv) for iv in level] for level in self.experimental_annuli],
        }


def omega0(spec: LorenzMapSpec) -> str:
    """Endpoint stratum by the four-case table on the critical values."""
    v0, v1 = critical_values(spec)
    hits_zero = v0 <= CRITICAL_VALUE_TOL
    hits_one = v1 >= 1.0 - CRITICAL_VALUE_TOL
    if hits_zero and hits_one:
        return OMEGA0_FULL
    if not hits_zero and hits_one:
        return OMEGA0_ZERO
    if hits_zero and not hits_one:
        return OMEGA0_ONE
    return OMEGA0_BOTH


# ---------------------------------------------------------------------------
# cell machinery


def _cells_of_intervals(intervals: list[tuple[float, float]], resolution: int) -> np.ndarray:
    mask = np.zeros(resolution, dtype=bool)
    for (lo, hi) in intervals:
        i0 = max(int(math.floor(lo * resolution)), 0)
        i1 = min(int(math.ceil(hi * resolution)), resolution)
        mask[i0:i1] = True
    return mask


def _in_any(x: np.ndarray, intervals: list[tuple[float, float]]) -> np.ndarray:
    out = np.zeros(x.shape, dtype=bool)
    for (lo, hi) in intervals:
        out |= (x >= lo) & (x <= hi)
    return out


def _certified_core(spec: LorenzMapSpec) -> tuple[float, float] | None:
    """V = [v0 - m, v1 + m] clipped to [0, 1], m = CORE_MARGIN, when
    v0 = f(c+) < c < v1 = f(c-) and the end images certify f(V) inside V
    with margin m; else None.

    Both branches are increasing, so f maps [lo, c) into [f(lo), v1] and
    (c, hi] into [v0, f(hi)]; f(lo) >= lo + m and f(hi) <= hi - m (an end
    at 0 or 1 is fixed and needs no check) put both inside V with margin m.
    """
    v0, v1 = critical_values(spec)
    if not v0 < spec.c < v1:
        return None
    lo, hi = max(v0 - CORE_MARGIN, 0.0), min(v1 + CORE_MARGIN, 1.0)
    flo, fhi = eval_array(spec, np.array([lo, hi])).tolist()
    # written so that a NaN image fails the certificate
    if (lo > 0.0 and not flo >= lo + CORE_MARGIN) or (hi < 1.0 and not fhi <= hi - CORE_MARGIN):
        return None
    return lo, hi


def _recurrent_cells(
    spec: LorenzMapSpec,
    region: list[tuple[float, float]],
    holes: list[tuple[float, float]],
    resolution: int,
    horizon: int,
) -> tuple[int, ...]:
    """Cells with center in region and not entirely inside a hole whose
    orbit comes back to within one cell of the start within the horizon.

    Cells straddling a hole boundary stay in play: the boundary points of a
    trapping region belong to the outer stratum.
    """
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
    start = centers[idx]
    x = start
    cw = 1.0 / resolution
    # exact core exit: an iterate inside the certified core V stays there, so
    # a start whose window [start - cw, start + cw] misses V by the margin
    # never comes back (with no core, V = [0, 1] drops nothing)
    lo, hi = _certified_core(spec) or (0.0, 1.0)
    far = (start + cw < lo - CORE_MARGIN) | (start - cw > hi + CORE_MARGIN)
    found: list[np.ndarray] = []
    done = 0
    # the live points are stepped a block at a time into one bounded buffer
    # (the live set only shrinks, so the first block is the largest); a cell
    # is recurrent iff some iterate x_k, k <= horizon, lies within cw of its
    # start, and an orbit that met c stays NaN (never within cw)
    buf = np.empty(min(idx.size * RECURRENCE_BLOCK_STEPS, max(idx.size, RECURRENCE_BLOCK_FLOATS)))
    # the scalar tail finishes the last few points on polynomial branches
    # only, where the scalar and array steps agree; on power_form branches
    # they differ in the last bit, so those maps keep the blocks
    polynomial = all(br.poly_coefficients() is not None for br in (spec.left, spec.right))
    while idx.size and done < horizon:
        if polynomial and idx.size <= RECURRENCE_TAIL_POINTS:
            back = recurrence_tail(
                spec, start.tolist(), x.tolist(), far.tolist(),
                horizon - done, cw, (lo, hi), RECURRENCE_BLOCK_STEPS,
            )
            found.append(idx[np.array(back, dtype=bool)])
            break
        k = min(RECURRENCE_BLOCK_STEPS, max(1, RECURRENCE_BLOCK_FLOATS // idx.size), horizon - done)
        traj = buf[: k * idx.size].reshape(k, idx.size)
        y = x
        for j in range(k):
            y = traj[j] = eval_array(spec, y)
        # exact float-cycle exit: an iterate equal to the block's first
        # value makes the float orbit periodic, so every later iterate is
        # one already tested in this block
        cycled = (traj == x).any(axis=0)
        # |x_k - start| in place: the buffer is the only (k, n) float array
        traj -= start
        back = (np.abs(traj, out=traj) <= cw).any(axis=0)
        found.append(idx[back])
        trapped = far & (y >= lo) & (y <= hi)
        live = ~(back | cycled | trapped | np.isnan(y))
        idx, start, x, far = idx[live], start[live], y[live], far[live]
        done += k
    return tuple(int(i) for i in np.sort(np.concatenate(found))) if found else ()


def _coverage_probe(
    spec: LorenzMapSpec,
    seed_interval: tuple[float, float],
    target_cells: set[int],
    resolution: int,
    horizon: int,
) -> float:
    """Fraction of target cells covered by forward images of seed_interval,
    pushing intervals with splitting at c (budgeted)."""
    if not target_cells:
        return 1.0
    covered: set[int] = set()
    comps = [seed_interval]
    tol = spec.tolerance

    def mark(iv: tuple[float, float]):
        i0 = max(int(iv[0] * resolution), 0)
        i1 = min(int(iv[1] * resolution), resolution - 1)
        covered.update(target_cells.intersection(range(i0, i1 + 1)))

    mark(seed_interval)
    for _ in range(horizon):
        if len(covered) / len(target_cells) >= COVERAGE_STOP_FRACTION:
            break
        nxt: list[tuple[float, float]] = []
        for (u, v) in comps:
            pieces = [(u, v)] if interval_side(spec, (u, v)) else [(u, spec.c), (spec.c, v)]
            for (a, b) in pieces:
                img = push_interval(spec, (a, b), 1)
                if img is not None and img[1] - img[0] > tol:
                    nxt.append(img)
                    mark(img)
        # merge overlapping components to keep the list bounded
        nxt.sort()
        merged: list[tuple[float, float]] = []
        for iv in nxt:
            if merged and iv[0] <= merged[-1][1] + tol:
                merged[-1] = (merged[-1][0], max(merged[-1][1], iv[1]))
            else:
                merged.append(iv)
        comps = merged[:COVERAGE_COMPONENT_CAP]
        if not comps:
            break
    return len(covered) / len(target_cells)


# ---------------------------------------------------------------------------
# classification


def _late_points(spec: LorenzMapSpec, x0: float, horizon: int) -> np.ndarray:
    """The late points of the forward orbit of x0: x_j for
    horizon - tail < j <= horizon, tail = max(horizon // 10, 10), or else
    the point where the orbit lands at c and ends. From a critical value,
    such a landing makes c periodic: a superattracting cycle."""
    first = max(horizon - max(horizon // 10, 10) + 1, 1)
    late: list[float] = []
    k = 0
    for pts, landed in orbit_chunks(spec, x0, horizon + 1):
        late += pts[max(first - k, 0) :]
        k += len(pts)
        if landed and not late:
            late = pts[-1:]
    return np.array(late)


def _absorbed_by_cycle(late: np.ndarray, cycle: list[float]) -> bool:
    """Does an orbit with these late points end up at the cycle (late-time
    distance below 1e-3)?"""
    return late.size > 0 and float(np.abs(late[:, None] - np.array(cycle)).min()) < 1e-3


def classify_attractor(a: Analysis) -> AttractorClass:
    """Decision procedure over budgeted probes, in order: absorbing periodic
    or super attractor, depth-capped solenoid candidate, irrational-rotation
    (Cherry) candidate, interval-cycle coverage, Cantor-like remainder with
    a wild-candidate note."""
    spec, budgets, catalog, seq = a.spec, a.budgets, a.catalog, a.seq
    chain = seq.chain()
    evidence: dict = {"budgets": budgets.to_dict(), "renorm_depth": len(chain)}
    v0, v1 = critical_values(spec)
    deepest: tuple[float, float] = chain[-1].J if chain else (0.0, 1.0)

    # (1) attracting or super orbit absorbing the critical orbits
    nonrep = [
        r
        for r in catalog
        if r.kind in ("attracting", "super")
        or (r.kind == "neutral" and r.neutral_attracting_probe)
    ]
    # each critical orbit is walked once, and every candidate is tested
    # against the same late points
    late = [_late_points(spec, v, budgets.horizon) for v in (v0, v1)] if nonrep else []
    for rec in nonrep:
        absorbed0, absorbed1 = (_absorbed_by_cycle(pts, rec.points) for pts in late)
        both = absorbed0 and absorbed1
        one_with_degenerate = (absorbed0 or absorbed1) and (
            seq.degenerate is not None or seq.maximal_nonregular is not None
        )
        if both or one_with_degenerate:
            evidence["orbit"] = rec.to_dict()
            evidence["critical_orbits_absorbed"] = [absorbed0, absorbed1]
            kind = "super_attractor" if rec.kind == "super" else "periodic_attractor"
            return AttractorClass(kind=kind, evidence=evidence)

    # (2) depth-capped chain with shrinking diameters
    if seq.depth_cap_hit:
        widths = [r.width for r in chain]
        if all(b < a for a, b in zip(widths, widths[1:])):
            evidence["chain_widths"] = widths
            return AttractorClass(kind="solenoid", evidence=evidence, confidence="depth-capped")

    # (3) no periodic points strictly inside the deepest interval: rotation probe
    tol = spec.tolerance
    interior_orbits = [
        r
        for r in catalog
        if any(deepest[0] + tol < p < deepest[1] - tol for p in r.points)
    ]
    if not interior_orbits:
        try:
            frm = first_return_map(spec, deepest, budgets.horizon, 1 << 10)
            two = [b for b in frm.branches if b.touches_c]
            if len(two) == 2:
                probe_rec = type(frm)(J=frm.J, branches=two, uncovered_measure=0.0)
                x0 = spec.c - (deepest[1] - deepest[0]) / 1000.0
                rot = rotation_number(spec, probe_rec, x0, min(budgets.horizon, 10_000))
                evidence["rotation_estimate"] = rot
                far = all(
                    abs(rot - p / q) > 1e-4
                    for q in range(1, 51)
                    for p in range(0, q + 1)
                )
                if far:
                    return AttractorClass(kind="cherry", evidence=evidence)
        except ValueError as e:
            evidence["rotation_probe_error"] = str(e)

    # (4) do the near-critical orbits cover the deepest trapping region, or
    # with no chain the certified core, where every orbit ends up?
    res = budgets.probe_resolution
    trap = a.trapping[0][-1] if chain else [_certified_core(spec) or (0.0, 1.0)]
    trap_cells = set(int(i) for i in np.nonzero(_cells_of_intervals(trap, res))[0])
    h = 1.0 / res
    cover: set[int] = set()
    truncated = False
    for x0 in (spec.c - h, spec.c + h):
        est = estimate_omega_limit(
            spec, x0, burn_in=1000, sample_len=budgets.samples // 2, resolution=res
        )
        truncated |= est.truncated
        cover.update(est.cells)
    coverage = len(cover & trap_cells) / max(len(trap_cells), 1)
    evidence["critical_cover_fraction"] = coverage
    if coverage >= 0.9:
        evidence["interval_cycle_support"] = trap
        return AttractorClass(kind="interval_cycle", evidence=evidence)

    # (5) Cantor-like remainder; flag a wild candidate when the critical
    # cover misses much of the recurrent set
    rec_cells = set(
        _recurrent_cells(spec, trap, [], res, budgets.horizon)
    )
    missing = rec_cells - cover
    evidence["recurrent_cells"] = len(rec_cells)
    evidence["critical_cover_misses"] = len(missing)
    kind = "cantor_chaotic_heuristic"
    if rec_cells and len(missing) > 0.1 * len(rec_cells):
        evidence["wild_candidate"] = True
    confidence = "low" if truncated else "normal"
    return AttractorClass(kind=kind, evidence=evidence, confidence=confidence)


# ---------------------------------------------------------------------------
# stratum blocks


@dataclass
class StratumBlocks:
    x0: tuple[float, float]
    blocks: list[tuple[float, float]]
    return_steps: list[int]
    overlaps_ok: bool
    minimal_orbit: PeriodicOrbitRecord


def _entry_sides(
    spec: LorenzMapSpec, x: float, L: tuple[float, float], cap: int
) -> list[str] | None:
    """The branches the orbit of x takes before the first of its cap points
    inside L, or None; an orbit that lands at c outside L never enters it."""
    pts = orbit_list(spec, x, cap)
    for k, y in enumerate(pts):
        if L[0] + spec.tolerance < y < L[1] - spec.tolerance:
            return ["left" if p < spec.c else "right" for p in pts[:k]]
    return None


def stratum_blocks(a: Analysis, stratum_index: int) -> StratumBlocks:
    """Block decomposition of a middle stratum: the central component of the
    complement of the minimal-period orbit, plus the finitely many gaps of
    its avoiding set met by the enclosing renormalization cycle."""
    spec, catalog, chain = a.spec, a.catalog, a.seq.chain()
    # a middle stratum lies between two chain levels, whatever omega_0 is
    if not (0 < stratum_index <= len(chain)):
        raise ValueError("blocks are defined for middle strata only")
    tol = spec.tolerance
    chain_ext: list[tuple[float, float]] = [(0.0, 1.0)] + [r.J for r in chain]
    I_prev = chain_ext[stratum_index - 1]
    I_next = chain_ext[stratum_index]

    def in_region(p: float) -> bool:
        inside_prev = I_prev[0] + tol < p < I_prev[1] - tol
        inside_next = I_next[0] + tol < p < I_next[1] - tol
        return inside_prev and not inside_next

    candidates = [r for r in catalog if any(in_region(p) for p in r.points)]
    if not candidates:
        raise NoPeriodicOrbitFound(
            f"none found (budget): no orbit meets stratum {stratum_index} region"
        )
    best = min(r.period for r in candidates)
    winners = [r for r in candidates if r.period == best]
    if len(winners) > 1:
        raise VariationalPrincipleViolated(
            f"variational principle violated on stratum {stratum_index}: "
            f"{len(winners)} orbits of period {best}"
        )
    orbit = winners[0]
    below = [p for p in orbit.points if p < spec.c]
    above = [p for p in orbit.points if p > spec.c]
    if not below or not above:
        raise ValueError("minimal orbit does not straddle c")
    L = (max(below), min(above))

    # intervals whose enclosing gaps form the blocks: the previous-level
    # renormalization cycle (or the two sides of the whole interval)
    if stratum_index == 1:
        sources = [(0.0, spec.c), (spec.c, 1.0)]
    else:
        prev_rec = chain[stratum_index - 2]
        sources = renormalization_cycle(spec, prev_rec)

    blocks: list[tuple[float, float]] = [L]
    steps: list[int] = [0]
    cap = max(64, 8 * a.budgets.max_period)
    for (u, v) in sources:
        for frac in (0.5, 0.25, 0.75, 0.125, 0.875):
            w = u + frac * (v - u)
            sides = _entry_sides(spec, w, L, cap)
            if sides is None:
                continue
            block = pull_back(spec, L, sides)
            if block is None:
                continue
            lo, hi = block
            if not any(abs(lo - b[0]) <= 1e-9 and abs(hi - b[1]) <= 1e-9 for b in blocks):
                img = push_interval(spec, (lo, hi), len(sides))
                if img is None or abs(img[0] - L[0]) > FULL_TOLERANCE or abs(img[1] - L[1]) > FULL_TOLERANCE:
                    continue
                blocks.append((lo, hi))
                steps.append(len(sides))

    overlaps_ok = True
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            lo = max(blocks[i][0], blocks[j][0])
            hi = min(blocks[i][1], blocks[j][1])
            if hi - lo > 10 * tol:
                overlaps_ok = False
    return StratumBlocks(
        x0=L, blocks=blocks, return_steps=steps, overlaps_ok=overlaps_ok, minimal_orbit=orbit
    )


# ---------------------------------------------------------------------------
# decomposition


def decompose(a: Analysis) -> DecompositionRecord:
    """Full stratification: trapping chain, per-stratum recurrence cells,
    transitivity probes, middle-stratum blocks and final classification."""
    spec, budgets, catalog, seq = a.spec, a.budgets, a.catalog, a.seq
    chain = seq.chain()
    om0 = omega0(spec)
    K, trap_notes = a.trapping
    notes = list(seq.notes) + trap_notes

    n_f = a.n_f
    res = budgets.recurrence_resolution
    v0, v1 = critical_values(spec)
    tol = spec.tolerance
    strata: list[Stratum] = []
    # experimental annuli between consecutive regular levels: the interval
    # spanned by the one-sided critical values at the minimal-orbit boundary
    # periods, minus the next chain interval
    annuli: list[list[tuple[float, float]]] = []
    count = max(n_f, 1)
    for s in range(1, count + 1):
        region = K[s - 1]
        holes = K[s] if s < len(K) else []
        probed = set(_recurrent_cells(spec, region, holes, res, budgets.horizon))
        # certified periodic points are exact non-wandering members; add
        # their cells when they sit in this annulus (typically on a trapping
        # region boundary, where a center-seeded probe drifts away)
        for r in catalog:
            for p in r.points:
                in_region = any(lo + tol < p < hi - tol for (lo, hi) in region)
                in_hole = any(lo + tol < p < hi - tol for (lo, hi) in holes)
                if in_region and not in_hole:
                    probed.add(min(int(p * res), res - 1))
        cells = tuple(sorted(probed))
        stratum = Stratum(
            n=s if n_f > 0 else 0,
            K_n=region,
            recurrent_cells=cells,
            resolution=res,
        )
        # transitivity probe: forward images of one recurrent cell should
        # cover most of the stratum's recurrent cells
        if cells:
            targets = set(cells)
            probes = cells if len(cells) <= 16 else [cells[i] for i in
                np.linspace(0, len(cells) - 1, 16).astype(int)]
            results = []
            for ci in probes:
                seed = (ci / res, (ci + 1) / res)
                results.append(
                    _coverage_probe(spec, seed, targets, res, budgets.horizon) >= COVERAGE_STOP_FRACTION
                )
            stratum.transitive_probe = all(results)
        # the blocks of level s serve the stratum when the outer interval is
        # regular and the annulus when the inner one is
        outer_regular = 0 < s < n_f and (v0 < spec.c < v1 if s == 1 else chain[s - 2].regular)
        inner_regular = 0 < s < n_f and chain[s - 1].regular
        if outer_regular or inner_regular:
            try:
                sb = stratum_blocks(a, s)
            except (NoPeriodicOrbitFound, VariationalPrincipleViolated, ValueError) as e:
                sb = None
                if outer_regular:
                    stratum.notes.append(f"block decomposition unavailable: {e}")
            if sb is not None and outer_regular:
                stratum.block_decomposition = sb.blocks
                stratum.block_return_steps = sb.return_steps
                if not sb.overlaps_ok:
                    stratum.notes.append("block overlap exceeded a point")
            if sb is not None and inner_regular:
                # a critical orbit that lands at c stays there
                u = orbit_list(spec, v0, sb.minimal_orbit.period)[-1]
                v = orbit_list(spec, v1, sb.minimal_orbit.period)[-1]
                if u < v:
                    inner = chain[s].J if s < len(chain) else None
                    if inner and inner[0] > u and inner[1] < v:
                        annuli.append([(u, inner[0]), (inner[1], v)])
                    else:
                        annuli.append([(u, v)])
        strata.append(stratum)

    # strata disjointness audit, exempting certified periodic-orbit cells
    periodic_cells = set()
    for r in catalog:
        for p in r.points:
            periodic_cells.add(min(int(p * res), res - 1))
    for i in range(len(strata)):
        for j in range(i + 1, len(strata)):
            overlap = set(strata[i].recurrent_cells) & set(strata[j].recurrent_cells)
            hard = overlap - periodic_cells
            if hard:
                notes.append(
                    f"strata {strata[i].n} and {strata[j].n} share non-periodic cells: {sorted(hard)[:8]}"
                )
            elif overlap:
                notes.append(
                    f"strata {strata[i].n} and {strata[j].n} share periodic-orbit cells (exempted)"
                )

    final = classify_attractor(a)
    return DecompositionRecord(
        n_f=n_f,
        omega0=om0,
        strata=strata,
        final_class=final,
        depth_cap_hit=seq.depth_cap_hit,
        notes=notes,
        experimental_annuli=annuli,
    )


# ---------------------------------------------------------------------------
# entropy


def entropy_estimate(
    spec: LorenzMapSpec,
    n: int = 20,
    samples: int = 100_000,
    rng: np.random.Generator | None = None,
    burn_in: int = 512,
    windows_per_orbit: int = 32,
) -> float:
    """Word-count entropy: (1/n) log of the number of distinct length-n
    itinerary words observed along sampled orbits after a burn-in.

    An orbit that meets c up to one step past its last window is dropped.
    Bit-equal float iterates share all later ones, so the burn-in merges
    them (every ENTROPY_MERGE_STEPS steps and at its end) without changing
    the set of words. The count is capped by 2^n, so the estimate never
    exceeds log 2.
    """
    if not 1 <= n <= 30:
        raise ValueError("word length must lie in [1, 30]")
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    if windows_per_orbit < 1:
        raise ValueError("need at least one window per orbit")
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")
    if rng is None:
        rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, samples)
    for k in range(burn_in):
        if k and k % ENTROPY_MERGE_STEPS == 0:
            x = _merge_equal_orbits(x)
        x = eval_array(spec, x)
    # no merging from here on: orbits that meet later had different words
    x = _merge_equal_orbits(x)
    # rolling n-bit codes; NaN (an orbit that met c) propagates to the end
    mask = np.uint64((1 << n) - 1)
    code = np.zeros(x.size, dtype=np.uint64)
    words = np.empty((windows_per_orbit, x.size), dtype=np.uint64)
    for j in range(n + windows_per_orbit - 1):
        code <<= np.uint64(1)
        code |= x >= spec.c
        code &= mask
        if j >= n - 1:
            words[j - n + 1] = code
        x = eval_array(spec, x)
    alive = ~np.isnan(eval_array(spec, x))
    if not alive.any():
        return 0.0
    # dead orbits take a live orbit's words, which leaves the set unchanged
    words[:, ~alive] = words[:, alive.argmax(), None]
    return math.log(_distinct_count(words.ravel())) / n


def _first_of_runs(codes: np.ndarray) -> np.ndarray:
    """Sort in place and mark the first of each run of equal values
    (np.unique hashes large integer arrays: slower, and a table as big)."""
    codes.sort()
    first = np.empty(codes.size, dtype=bool)
    first[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return first


def _distinct_count(codes: np.ndarray) -> int:
    """Number of distinct values; sorts `codes` in place."""
    return int(np.count_nonzero(_first_of_runs(codes)))


def _merge_equal_orbits(x: np.ndarray) -> np.ndarray:
    """The distinct bit patterns of x, NaN (a dead orbit) dropped. The map
    step is a function of the bits, so equal bits mean one orbit."""
    u = x[~np.isnan(x)].view(np.uint64)
    return u[_first_of_runs(u)].view(np.float64)


def solenoid_entropy_bound(chain: list[RenormalizationRecord]) -> float | None:
    """log 2 / (min boundary period at the deepest certified level)."""
    if not chain:
        return None
    gamma = min(chain[-1].period_a, chain[-1].period_b)
    return math.log(2.0) / gamma
