"""Piecewise-monotone interval maps with one discontinuity (contracting Lorenz maps).

A map here is two increasing branches on [0, c] and [c, 1] with fixed endpoints
f(0) = 0, f(1) = 1 and one-sided derivatives vanishing at the break point c.
Evaluation at c is directed: the two one-sided limits are distinct points for
the dynamics, so points within tolerance of c must carry an approach side.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class Side(str, Enum):
    MINUS = "minus"
    PLUS = "plus"
    NONE = "none"


class UndirectedCriticalEvaluation(ValueError):
    """Raised when evaluating at the break point without an approach side."""


class CriticalPointError(ValueError):
    """Raised when a derivative-based quantity is requested at the break point."""


class MapValidationError(ValueError):
    pass


# each branch kind and the config keys it reads besides kind and domain_side
BRANCH_PARAMETERS = {
    "polynomial": ("coefficients",),
    "quadratic_logistic": ("a",),
    "power_form": ("a", "alpha"),
}
# embed_unimodal checks u(x) = u(1 - x) on this many grid points, and
# u(0) = 0, to this tolerance
EMBED_CHECK_GRID = 1024
EMBED_CHECK_TOLERANCE = 1e-9
# validate_map samples each branch on this many grid points
VALIDATION_GRID = 512
# a Stepper selects the side of c by np.where below this many elements and
# by a bit blend at or above it, the faster of the two on each side
BLEND_SIZE = 8192


def _real(name: str, v) -> float:
    """v as a float when it is a finite real number: a string, a bool, NaN
    and the infinities (which json.load accepts) are not."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise MapValidationError(f"{name} must be a finite real number, got {v!r}")
    return float(v)


def _known_keys(what: str, d: dict, keys) -> None:
    """Reject a config key that nothing reads, such as a misspelled one."""
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise MapValidationError(f"unknown {what} key(s) {unknown}; expected some of {sorted(keys)}")


@dataclass(frozen=True)
class BranchSpec:
    """One monotone branch formula plus the side of c it lives on.

    kinds:
      polynomial          coefficients ascending, f(x) = sum c_k x^k
      quadratic_logistic  f(x) = a x (1 - x)
      power_form          left:  f(x) = a (1 - ((c-x)/c)^alpha)
                          right: f(x) = (1-a) + a ((x-c)/(1-c))^alpha
                          (alpha > 1 so the derivative vanishes at c)
    """

    kind: str
    domain_side: str  # "left" or "right"
    coefficients: tuple[float, ...] | None = None
    a: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in BRANCH_PARAMETERS:
            raise MapValidationError(f"unknown branch kind {self.kind!r}")
        if self.domain_side not in ("left", "right"):
            raise MapValidationError(f"domain_side must be left/right, got {self.domain_side!r}")
        for name in ("a", "alpha"):
            v = getattr(self, name)
            if v is not None:
                _real(f"branch parameter {name}", v)
        if self.kind == "polynomial":
            if not self.coefficients:
                raise MapValidationError("polynomial branch needs coefficients")
            object.__setattr__(self, "coefficients", tuple(_real("coefficient", v) for v in self.coefficients))
        elif self.kind == "quadratic_logistic":
            if self.a is None:
                raise MapValidationError("quadratic_logistic branch needs parameter a")
        elif self.kind == "power_form":
            if self.a is None or self.alpha is None:
                raise MapValidationError("power_form branch needs a and alpha")
            if self.alpha <= 1.0:
                raise MapValidationError("power_form needs alpha > 1 (non-flat exponent)")

    def poly_coefficients(self) -> tuple[float, ...] | None:
        """Ascending coefficients when the branch is polynomial, else None."""
        if self.kind == "polynomial":
            return self.coefficients
        if self.kind == "quadratic_logistic":
            return (0.0, float(self.a), -float(self.a))
        return None

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind, "domain_side": self.domain_side}
        if self.kind == "polynomial":
            d["coefficients"] = list(self.coefficients)
        else:
            d["a"] = self.a
            if self.kind == "power_form":
                d["alpha"] = self.alpha
        return d

    @staticmethod
    def from_dict(d: dict, domain_side: str) -> "BranchSpec":
        spec = BranchSpec(
            kind=d["kind"],
            domain_side=d.get("domain_side", domain_side),
            coefficients=tuple(d["coefficients"]) if "coefficients" in d else None,
            a=d.get("a"),
            alpha=d.get("alpha"),
        )
        _known_keys(f"{spec.kind} branch", d, ("kind", "domain_side", *BRANCH_PARAMETERS[spec.kind]))
        return spec


@dataclass(frozen=True)
class LorenzMapSpec:
    """An interval map with one break point c and two increasing branches."""

    c: float
    left: BranchSpec
    right: BranchSpec
    name: str = ""
    tolerance: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "c", _real("break point c", self.c))
        object.__setattr__(self, "tolerance", _real("tolerance", self.tolerance))
        if not (0.0 < self.c < 1.0):
            raise MapValidationError("break point c must lie in (0,1)")
        if self.left.domain_side != "left" or self.right.domain_side != "right":
            raise MapValidationError("branch domain sides must be (left, right)")
        if not self.tolerance > 0.0:
            raise MapValidationError(f"tolerance must be positive, got {self.tolerance!r}")
        if not isinstance(self.name, str):
            raise MapValidationError(f"map name must be a string, got {self.name!r}")

    def __getstate__(self) -> dict:
        # the kernel cache (see _kernels) and eval_array's Stepper hold
        # closures, which do not pickle, and the critical-orbit walks
        # (orbits.critical_orbit) are remade on use
        state = self.__dict__.copy()
        state.pop("_kernels", None)
        state.pop("_step", None)
        state.pop("_critical_orbits", None)
        return state

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "c": self.c,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
            "tolerance": self.tolerance,
        }

    @staticmethod
    def from_dict(d: dict) -> "LorenzMapSpec":
        spec = LorenzMapSpec(
            c=d["c"],
            left=BranchSpec.from_dict(d["left"], "left"),
            right=BranchSpec.from_dict(d["right"], "right"),
            name=d.get("name", ""),
            tolerance=d.get("tolerance", 1e-10),
        )
        _known_keys("map config", d, ("name", "c", "left", "right", "tolerance"))
        return spec


@dataclass(frozen=True)
class DirectedPoint:
    """A point of [0,1] tagged with an approach side.

    The side matters only at the break point and its preimages; elsewhere
    side NONE is the normal state.
    """

    x: float
    side: Side = Side.NONE


@dataclass
class ValidationReport:
    is_lorenz: bool
    is_contracting: bool
    schwarzian_negative_sampled: bool
    critical_values: tuple[float, float]  # (v0, v1) = (f(c+), f(c-))
    fixed_endpoint_multipliers: tuple[float, float]
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.is_lorenz and self.is_contracting

    def to_dict(self) -> dict:
        return {
            "is_lorenz": self.is_lorenz,
            "is_contracting": self.is_contracting,
            "schwarzian_negative_sampled": self.schwarzian_negative_sampled,
            "critical_values": {"v0": self.critical_values[0], "v1": self.critical_values[1]},
            "fixed_endpoint_multipliers": list(self.fixed_endpoint_multipliers),
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# evaluation kernels


def _horner(x: np.ndarray, rev, out: np.ndarray | None = None) -> np.ndarray:
    """The array kernel of a polynomial with coefficients `rev`, highest
    first: floats, or arrays of one coefficient per entry of x. The scalar
    Horner order, in place (x * c_n is c_n * x bit for bit): NaN in gives
    NaN out. With `out` (shaped like x, not x itself) every operation
    writes there and no array is allocated."""
    if len(rev) == 1:
        return np.add(rev[0], np.multiply(x, 0.0, out=out), out=out)
    acc = np.multiply(x, rev[0], out=out)
    acc += rev[1]
    for coef in rev[2:]:
        acc *= x
        acc += coef
    return acc


def _poly_funcs(coefs: tuple[float, ...]):
    """Scalar + array evaluators for value and first three derivatives, and
    the Horner tuple of the value (its coefficients highest first) that both
    value evaluators are built from."""
    cs = np.asarray(coefs, dtype=float)

    def make(c):
        rev = tuple(reversed(c.tolist())) if len(c) else (0.0,)
        # the scalar Horner expression ((r0 * x + r1) * x + r2) ... in the
        # array kernel's order (a constant is 0.0 * x + r0 there too),
        # compiled once over the coefficients bound as closure names
        terms = rev if len(rev) > 1 else (0.0,) + rev
        names = [f"r{k}" for k in range(len(terms))]
        body = names[0]
        for name in names[1:]:
            body = f"({body}) * x + {name}"
        f = eval(f"lambda {', '.join(names)}: lambda x: {body}")(*terms)
        return f, functools.partial(_horner, rev=rev), rev

    scalars, arrays, revs = zip(*(make(np.polynomial.polynomial.polyder(cs, k)) for k in range(4)))
    return scalars, arrays, revs[0]


def _power_funcs(a: float, alpha: float, c: float, side: str):
    # chain rule: du/dx = -1/c on the left, +1/(1-c) on the right, so each
    # extra derivative flips the sign on the left branch
    if side == "left":
        scale = c

        def u(x):
            return (c - x) / c

        def f0(x):
            return a * (1.0 - u(x) ** alpha)

        s2, s3 = -1.0, 1.0
    else:
        scale = 1.0 - c

        def u(x):
            return (x - c) / (1.0 - c)

        def f0(x):
            return (1.0 - a) + a * u(x) ** alpha

        s2, s3 = 1.0, 1.0

    # divide by scale once per order: a power of a tiny scale underflows to 0
    k1 = a * alpha / scale
    k2 = k1 * (alpha - 1.0) / scale
    k3 = k2 * (alpha - 2.0) / scale

    def f1(x):
        return k1 * u(x) ** (alpha - 1.0)

    def f2(x):
        return s2 * k2 * u(x) ** (alpha - 2.0)

    def f3(x):
        return s3 * k3 * u(x) ** (alpha - 3.0)

    def quiet(fn):
        # array callers evaluate both branches everywhere and keep one; the
        # other branch's negative radicand gives a NaN that is thrown away
        def g(x):
            with np.errstate(invalid="ignore"):
                return fn(x)

        return g

    return (f0, f1, f2, f3), tuple(quiet(fn) for fn in (f0, f1, f2, f3))


def _kernels(spec: LorenzMapSpec):
    """Per-spec kernels of the left and the right branch: the scalar
    (f, f', f'', f'''), the array (f, f', f'', f''') and the Horner tuple of
    f, highest first, that the polynomial kernels of f are built from (None
    for power_form). Every Horner step of a branch, scalar or vector, reads
    that one tuple.

    Built once per spec instance and kept in its __dict__, so a call costs a
    dict lookup instead of hashing the frozen dataclass. The entry is not a
    field: ==, hash, repr and to_dict do not see it, and __getstate__ keeps
    it out of pickles."""
    out = spec.__dict__.get("_kernels")
    if out is None:
        out = {}
        for name, br in (("left", spec.left), ("right", spec.right)):
            coefs = br.poly_coefficients()
            if coefs is not None:
                out[name] = _poly_funcs(coefs)
            else:
                out[name] = (*_power_funcs(br.a, br.alpha, spec.c, name), None)
        spec.__dict__["_kernels"] = out
    return out


def branch_value(spec: LorenzMapSpec, side: str, x: float) -> float:
    return _kernels(spec)[side][0][0](x)


def branch_derivative(spec: LorenzMapSpec, side: str, x: float, order: int = 1) -> float:
    return _kernels(spec)[side][0][order](x)


def apply_raw(spec: LorenzMapSpec, x: float, side: Side = Side.NONE) -> float:
    """One step of the map, resolving the branch at c by the given side."""
    c, tol = spec.c, spec.tolerance
    ker = _kernels(spec)
    if abs(x - c) <= tol:
        if side not in (Side.MINUS, Side.PLUS):
            raise UndirectedCriticalEvaluation(f"undirected critical evaluation at x={x!r} (c={c!r})")
        # the side's branch at c itself, clamped below to its critical value
        y = ker["left" if side == Side.MINUS else "right"][0][0](c)
    else:
        y = ker["left"][0][0](x) if x < c else ker["right"][0][0](x)
    # min(max(y, 0.0), 1.0) bit for bit (NaN and -0.0 pass through)
    return 0.0 if y < 0.0 else (1.0 if y > 1.0 else y)


def evaluate(spec: LorenzMapSpec, p: DirectedPoint) -> DirectedPoint:
    """Directed evaluation. Output side is NONE; if the output lands within
    tolerance of c the caller must attach a side before evaluating again."""
    if not (0.0 <= p.x <= 1.0):
        raise ValueError(f"point {p.x} outside [0,1]")
    y = apply_raw(spec, p.x, p.side)
    return DirectedPoint(y, Side.NONE)


def eval_array(spec: LorenzMapSpec, x: np.ndarray) -> np.ndarray:
    """Vectorized map step, into a fresh array. Entries within tolerance of
    c become NaN (undirected critical evaluation); NaN propagates. The map's
    Stepper is kept on the spec, as the kernel cache is (see _kernels)."""
    step = spec.__dict__.get("_step")
    if step is None:
        step = spec.__dict__["_step"] = Stepper([spec])
    x = np.asarray(x, dtype=float)
    # a Stepper steps arrays of one or more dimensions
    return step(x) if x.ndim else step(x.reshape(1)).reshape(())


class Stepper:
    """The vector step of a family of maps, each entry of an array by its
    own map: the branch on the entry's side of c, clamped to [0, 1], and NaN
    within tolerance of c.

    A branch's coefficients are the Horner tuple of its map's kernel table
    (see _kernels), the one its scalar kernel is built from. A family of
    one is one map: a polynomial branch runs Horner on its tuple, a
    power_form branch is its array kernel, and `columns(who)` is empty. A
    family of several shares c and tolerance, and its branches on each side are
    polynomials with one coefficient count (every `quadratic_pair` map):
    `columns(who)` gives one array per Horner coefficient (the left tuple,
    then the right) holding the coefficient of map who[k] at entry k, and
    `step(x, *columns)` runs the Horner operations of each entry's map.
    Either way every entry gets the bits of its own map's scalar step.

    Given a `size`, the step owns its work arrays of that many elements: two
    output arrays that alternate, a scratch array for the right branch and
    one for x - c, an int64 mask and a bool array. Polynomial branches then
    run Horner in place, and `step(x)` takes x with at most `size` elements,
    which may be the previous result, and may return a view of the output
    array x does not live in, valid until the step after next. Without a
    size every step returns a fresh array.

    Below BLEND_SIZE elements the side of c is chosen by np.where. At or
    above it, by a bit blend: with m = (x - c).view(int64) >> 63, all ones
    exactly where x < c (in IEEE arithmetic x - c < 0 exactly when x < c),
    y = R ^ ((L ^ R) & m) on the uint64 views. Both give the same bits (a
    NaN x with its sign bit set goes left by the blend, but either branch
    carries it through).
    np.where mispredicts on the random side mask of a chaotic orbit, and
    the blend has no branch but makes more numpy calls, so np.where wins on
    small arrays (the return maps' steps) and the blend on large ones with
    random sides (entropy_estimate's tiles of 2^14 points)."""

    def __init__(self, specs, size: int | None = None):
        first = specs[0]
        self.c, self.tolerance = first.c, first.tolerance
        # each map's (left, right) branch kernels, and their Horner tuples
        kers = [(ker["left"], ker["right"]) for ker in map(_kernels, specs)]
        revs = [(left[2], right[2]) for left, right in kers]
        if len(specs) == 1:
            # each branch as its Horner tuple, or else (power_form) its array kernel
            self._branches = [ker[2] or ker[1][0] for ker in kers[0]]
            self.table = ()
        else:
            for spec, rev in zip(specs, revs):
                if None in rev or (spec.c, spec.tolerance) != (first.c, first.tolerance):
                    raise ValueError(f"{spec.name} cannot step with {first.name}: a family shares c, "
                                     "tolerance and polynomial branches")
            shapes = {tuple(map(len, rev)) for rev in revs}
            if len(shapes) > 1:
                raise ValueError(f"a family shares coefficient counts per side, got {sorted(shapes)}")
            self._branches = (None, None)
            self._split = len(revs[0][0])
            # one row per coefficient, one entry per map
            self.table = np.array([left + right for left, right in revs], dtype=float).T.copy()
        self._out = None
        if size is not None:
            self._out = (np.empty(size), np.empty(size))
            # the right branch, x - c, the side mask and the dead mask
            self._work = (np.empty(size), np.empty(size), np.empty(size, dtype=np.int64), np.empty(size, dtype=bool))

    def columns(self, who: np.ndarray) -> list[np.ndarray]:
        return [row[who] for row in self.table]

    def __call__(self, x: np.ndarray, *columns: np.ndarray) -> np.ndarray:
        k = x.size
        if self._out is None:
            y = right = gap = mask = dead = None
        else:
            y = self._out[1 if x.base is self._out[0] else 0][:k]
            right, gap, mask, dead = (a[:k] for a in self._work)
        al, ar = self._branches
        if columns:
            al, ar = columns[: self._split], columns[self._split :]
        left = al(x) if callable(al) else _horner(x, al, y)
        right = ar(x) if callable(ar) else _horner(x, ar, right)
        gap = np.subtract(x, self.c, out=gap)
        if k < BLEND_SIZE:
            y = np.where(gap < 0.0, left, right)
        else:
            # a fresh output comes last: the temporaries freed below it serve
            # the next step, where freed on top they go back to the system
            mask = np.right_shift(gap.view(np.int64), 63, out=mask)
            rbits = right.view(np.uint64)
            bits = np.bitwise_xor(left.view(np.uint64), rbits, out=None if y is None else y.view(np.uint64))
            bits &= mask.view(np.uint64)
            bits ^= rbits
            y = bits.view(np.float64)
        np.maximum(y, 0.0, out=y)
        np.minimum(y, 1.0, out=y)
        dead = np.less_equal(np.abs(gap, out=gap), self.tolerance, out=dead)
        if np.count_nonzero(dead):
            y[dead] = np.nan
        return y


def deriv_array(spec: LorenzMapSpec, x: np.ndarray) -> np.ndarray:
    ker = _kernels(spec)
    x = np.asarray(x, dtype=float)
    dl = ker["left"][1][1](x)
    dr = ker["right"][1][1](x)
    return np.where(x < spec.c, dl, dr)


def derivative(spec: LorenzMapSpec, x: float) -> float:
    """Analytic branch derivative away from c."""
    c, tol = spec.c, spec.tolerance
    if abs(x - c) <= tol:
        raise CriticalPointError(f"derivative requested at the discontinuity x={x}")
    side = "left" if x < c else "right"
    return branch_derivative(spec, side, x)


def schwarzian(spec: LorenzMapSpec, x: float) -> float:
    """Sf = f'''/f' - 1.5 (f''/f')^2, defined where f' is nonzero."""
    c, tol = spec.c, spec.tolerance
    side = "left" if x < c else "right"
    if abs(x - c) <= tol:
        raise CriticalPointError("critical point")
    d1 = branch_derivative(spec, side, x, 1)
    if abs(d1) <= tol:
        raise CriticalPointError(f"critical point: |Df({x})| <= tolerance")
    d2 = branch_derivative(spec, side, x, 2)
    d3 = branch_derivative(spec, side, x, 3)
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


def critical_values(spec: LorenzMapSpec) -> tuple[float, float]:
    """(v0, v1) = one-sided images (f(c+), f(c-))."""
    return apply_raw(spec, spec.c, Side.PLUS), apply_raw(spec, spec.c, Side.MINUS)


def validate_map(spec: LorenzMapSpec) -> ValidationReport:
    """Grid audit of the defining conditions, VALIDATION_GRID points a side.
    All conclusions are numerical: they hold on the sampled grid at the spec
    tolerance, nothing more. Overflow in the sampled values is itself a
    finding (a failed condition), so numpy floating-point warnings are
    silenced."""
    with np.errstate(all="ignore"):
        tol = spec.tolerance
        notes = [f"numerical check: grid_size={VALIDATION_GRID}, tolerance={tol}"]
        ker = _kernels(spec)
        ok = True

        f0 = branch_value(spec, "left", 0.0)
        f1 = branch_value(spec, "right", 1.0)
        if abs(f0 - 0.0) > tol:
            ok = False
            notes.append(f"f(0)={f0} not fixed")
        if abs(f1 - 1.0) > tol:
            ok = False
            notes.append(f"f(1)={f1} not fixed")
        # the branch values at c, before the clamp: a map of [0, 1] into
        # itself has them in [0, 1]
        for side, limit in (("left", "f(c-)"), ("right", "f(c+)")):
            v = branch_value(spec, side, spec.c)
            if not (-tol <= v <= 1.0 + tol):
                ok = False
                notes.append(f"{limit}={v} outside [0, 1]")

        grids = {
            "left": np.linspace(0.0, spec.c, VALIDATION_GRID, endpoint=False)[1:],
            "right": np.linspace(spec.c, 1.0, VALIDATION_GRID, endpoint=False)[1:],
        }
        sf_neg = True
        for side, xs in grids.items():
            vals = ker[side][1][0](xs)
            if np.any(np.diff(vals) <= 0):
                ok = False
                bad = xs[:-1][np.diff(vals) <= 0][0]
                notes.append(f"{side} branch not increasing near x={bad}")
            d1 = ker[side][1][1](xs)
            if np.any(d1 <= 0):
                ok = False
                bad = xs[d1 <= 0][0]
                notes.append(f"{side} branch derivative <= 0 at x={bad}")
            live = np.abs(d1) > tol
            if np.any(live):
                d2 = ker[side][1][2](xs[live])
                d3 = ker[side][1][3](xs[live])
                sf = d3 / d1[live] - 1.5 * (d2 / d1[live]) ** 2
                if np.any(sf >= 0):
                    sf_neg = False
                    bad = xs[live][sf >= 0][0]
                    notes.append(f"Schwarzian >= 0 at x={bad} ({side} branch)")

        dl_c = ker["left"][0][1](spec.c)
        dr_c = ker["right"][0][1](spec.c)
        contracting = abs(dl_c) <= tol and abs(dr_c) <= tol
        if not contracting:
            notes.append(f"one-sided derivatives at c: left={dl_c}, right={dr_c}")

        v0, v1 = critical_values(spec)
        mult0 = ker["left"][0][1](0.0)
        mult1 = ker["right"][0][1](1.0)
        return ValidationReport(
            is_lorenz=ok,
            is_contracting=contracting,
            schwarzian_negative_sampled=sf_neg,
            critical_values=(v0, v1),
            fixed_endpoint_multipliers=(mult0, mult1),
            notes=notes,
        )


# ---------------------------------------------------------------------------
# bisection and preimages


def bisect_array(
    pred, lo: np.ndarray, hi: np.ndarray, rounds: int, *per_bracket: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bisection of arrays of brackets in lockstep: the brackets (lo, hi)
    left after `rounds` rounds. Each round keeps the half where pred holds
    at the midpoint m: lo = m where pred(m) is true, hi = m where it is false
    (lo may lie on either side of hi).

    Each round calls pred(m, *per_bracket) on the live brackets only, with
    every per-bracket array sliced to them. A bracket whose midpoint equalled
    lo or hi is frozen after that round's update: each later round would
    meet the same midpoint and change nothing, so for an elementwise,
    deterministic pred the result keeps every bit of the fixed-round loop."""
    shape = np.shape(lo)
    lo = np.array(lo, dtype=float).ravel()
    hi = np.array(hi, dtype=float).ravel()
    args = [np.asarray(a).ravel() for a in per_bracket]
    live = np.arange(lo.size)
    l, h = lo, hi
    for _ in range(rounds):
        if not live.size:
            break
        m = 0.5 * (l + h)
        keep = pred(m, *args)
        done = (m == l) | (m == h)
        l = np.where(keep, m, l)
        h = np.where(keep, h, m)
        if done.any():
            lo[live[done]] = l[done]
            hi[live[done]] = h[done]
            stay = ~done
            live, l, h = live[stay], l[stay], h[stay]
            args = [a[stay] for a in args]
    lo[live] = l
    hi[live] = h
    return lo.reshape(shape), hi.reshape(shape)


def branch_inverse_array(spec: LorenzMapSpec, side: str, y: np.ndarray) -> np.ndarray:
    """Vectorized branch inverse; NaN where y is outside the branch range."""
    c = spec.c
    lo0, hi0 = (0.0, c) if side == "left" else (c, 1.0)
    ker = _kernels(spec)[side][1][0]
    y = np.asarray(y, dtype=float)
    lo = np.full(y.shape, lo0)
    hi = np.full(y.shape, hi0)
    # written as "not inside" so that a NaN y is bad too
    bad = ~((y >= ker(np.array(lo0)) - 1e-15) & (y <= ker(np.array(hi0)) + 1e-15))
    lo, hi = bisect_array(lambda m, y: ker(m) < y, lo, hi, 80, y)
    return np.where(bad, np.nan, 0.5 * (lo + hi))


def pull_back(
    spec: LorenzMapSpec, interval: tuple[float, float], path: list[str]
) -> tuple[float, float] | None:
    """The interval that `path` maps monotonically onto `interval`, path[0]
    (the first branch taken forward) inverted last; None when an end leaves
    a branch's range."""
    ends = np.array(interval, dtype=float)
    for side in reversed(path):
        ends = branch_inverse_array(spec, side, ends)
    if np.isnan(ends).any():
        return None
    return float(ends[0]), float(ends[1])


def preimages(spec: LorenzMapSpec, y: float) -> list[DirectedPoint]:
    """All solutions of f(x) = y, at most one per branch, plus the directed
    break point when y matches a one-sided critical image."""
    if not (0.0 <= y <= 1.0):
        raise ValueError("y outside [0,1]")
    tol = spec.tolerance
    v0, v1 = critical_values(spec)
    hit_v1 = abs(y - v1) <= max(tol, 1e-12)
    hit_v0 = abs(y - v0) <= max(tol, 1e-12)
    out: list[DirectedPoint] = []
    # when y equals a one-sided critical image, the interior branch solution
    # is c itself; report it as the directed point instead
    for side, hit in (("left", hit_v1), ("right", hit_v0)):
        if not hit:
            x = float(branch_inverse_array(spec, side, np.array([y]))[0])
            # a NaN x (y outside the branch range) fails the test
            if abs(x - spec.c) > tol:
                out.append(DirectedPoint(x, Side.NONE))
    if hit_v1:
        out.append(DirectedPoint(spec.c, Side.MINUS))
    if hit_v0:
        out.append(DirectedPoint(spec.c, Side.PLUS))
    return out


# ---------------------------------------------------------------------------
# unimodal embedding


@dataclass(frozen=True)
class UnimodalSpec:
    """A symmetric unimodal polynomial map u (u(x) = u(1-x), u(0) = 0)."""

    coefficients: tuple[float, ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(_real("coefficient", v) for v in self.coefficients))

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, np.asarray(self.coefficients))


def logistic(a: float) -> UnimodalSpec:
    return UnimodalSpec(coefficients=(0.0, float(a), -float(a)), name=f"logistic{a:g}")


def embed_unimodal(u: UnimodalSpec) -> LorenzMapSpec:
    """Two-branch map whose orbits shadow the unimodal orbits of u:
    left branch u(x) on [0, 1/2), right branch 1 - u(x) on (1/2, 1]."""
    xs = np.linspace(0.0, 1.0, EMBED_CHECK_GRID)
    asym = float(np.max(np.abs(u(xs) - u(1.0 - xs))))
    if asym > EMBED_CHECK_TOLERANCE:
        raise MapValidationError(f"unimodal input not symmetric: max |u(x)-u(1-x)| = {asym}")
    if abs(float(u(0.0))) > EMBED_CHECK_TOLERANCE:
        raise MapValidationError("unimodal input must fix 0")
    cs = tuple(u.coefficients)
    flipped = (1.0 - cs[0],) + tuple(-v for v in cs[1:])
    return LorenzMapSpec(
        c=0.5,
        left=BranchSpec(kind="polynomial", domain_side="left", coefficients=cs),
        right=BranchSpec(kind="polynomial", domain_side="right", coefficients=flipped),
        name=f"{u.name}-embed" if u.name else "unimodal-embed",
    )


def quadratic_pair(a_left: float, a_right: float, name: str = "", tolerance: float = 1e-10) -> LorenzMapSpec:
    """Left branch a_left x(1-x), right branch 1 - a_right x(1-x), c = 1/2."""
    return LorenzMapSpec(
        c=0.5,
        left=BranchSpec(kind="quadratic_logistic", domain_side="left", a=float(a_left)),
        right=BranchSpec(
            kind="polynomial",
            domain_side="right",
            coefficients=(1.0, -float(a_right), float(a_right)),
        ),
        name=name or f"quadpair({a_left:g},{a_right:g})",
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# builtin maps and config I/O


def builtin_map(name: str) -> LorenzMapSpec:
    if name == "paper-example":
        return quadratic_pair(3.4, 4.0, name="paper-example")
    if name == "logistic4-embed":
        return embed_unimodal(logistic(4.0))
    if name in ("logistic3.4-embed", "logistic3_4-embed"):
        return embed_unimodal(logistic(3.4))
    raise KeyError(f"unknown builtin map {name!r}")


BUILTIN_NAMES = ("paper-example", "logistic4-embed", "logistic3.4-embed")


def load_map(source: str) -> LorenzMapSpec:
    """Resolve a builtin name or read a JSON map config from a path."""
    try:
        return builtin_map(source)
    except KeyError:
        pass
    with open(source, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    try:
        return LorenzMapSpec.from_dict(d)
    except MapValidationError:
        raise
    except (TypeError, ValueError, OverflowError) as e:
        raise MapValidationError(f"map config {source}: {e}") from e
