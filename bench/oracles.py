"""Checks on lorenzlab outputs, computed apart from the program.

Nothing here imports lorenzlab. Each check returns a list of problems; an
empty list means the output passed. The facts used:

- logistic4-embed is conjugate to the doubling map s -> 2s mod 1 (with s = 1
  fixed) by x = sin^2(pi s / 2). Its periodic points of period n are
  k/(2^n - 1) in s, and it has (1/n) sum_{d|n} mu(n/d) 2^d orbits of minimal
  period n. Doubling a float is exact, so return times in s need no
  tolerance.
- The builtin maps are quadratic pairs: left branch aL x(1-x) on [0, 1/2),
  right branch 1 - aR x(1-x) on (1/2, 1].
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext
from fractions import Fraction

LOG2 = math.log(2.0)
C = 0.5

# (aL, aR) of each builtin map, keyed by the names the benchmark uses
QUADRATIC_PAIRS = {
    "paper-example": (3.4, 4.0),
    "logistic3_4-embed": (3.4, 3.4),
    "logistic4-embed": (4.0, 4.0),
}

ATTRACTOR_KINDS = frozenset(
    {
        "periodic_attractor",
        "super_attractor",
        "cherry",
        "solenoid",
        "interval_cycle",
        "cantor_chaotic_heuristic",
        "wild_candidate",
    }
)


# ---------------------------------------------------------------------------
# the maps, evaluated here


def branch_step(name: str, side: str, x: float) -> float:
    """One branch formula, extended past c (the continuous extension along
    a fixed branch path)."""
    a_left, a_right = QUADRATIC_PAIRS[name]
    if side == "left":
        return a_left * x * (1.0 - x)
    return 1.0 - a_right * x * (1.0 - x)


def step(name: str, x: float) -> float:
    return branch_step(name, "left" if x < C else "right", x)


def critical_values(name: str) -> tuple[float, float]:
    """(v0, v1) = (f(c+), f(c-))."""
    a_left, a_right = QUADRATIC_PAIRS[name]
    return 1.0 - a_right / 4.0, a_left / 4.0


def omega0(name: str) -> str:
    """The four-case endpoint-stratum table on the critical values."""
    v0, v1 = critical_values(name)
    hits_zero, hits_one = v0 <= 1e-9, v1 >= 1.0 - 1e-9
    if hits_zero and hits_one:
        return "full_interval"
    if hits_one:
        return "{0}"
    if hits_zero:
        return "{1}"
    return "{0,1}"


# ---------------------------------------------------------------------------
# doubling-map coordinates of logistic4-embed


def s_to_x(s: float) -> float:
    return math.sin(math.pi * s / 2.0) ** 2


def x_to_s(x: float) -> float:
    # atan2 keeps the inverse well conditioned at both ends of [0, 1]
    return 2.0 / math.pi * math.atan2(math.sqrt(x), math.sqrt(1.0 - x))


def double(s: float) -> float:
    return 2.0 * s if s < 0.5 else 2.0 * s - 1.0


def mobius(n: int) -> int:
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def orbit_count(n: int) -> int:
    """Orbits of minimal period n of the doubling map with both endpoints
    fixed: (1/n) sum_{d|n} mu(n/d) 2^d."""
    return sum(mobius(n // d) * 2**d for d in range(1, n + 1) if n % d == 0) // n


def doubling_cycle(n: int, x_points: list[float]) -> tuple[int, ...] | None:
    """The k-cycle (k/(2^n - 1) in s) that the points of one catalog orbit
    of period n sit on, in orbit order, or None when they sit on none."""
    q = 2**n - 1
    ks = []
    for x in x_points:
        k = round(x_to_s(x) * q)
        if abs(x - math.sin(math.pi * k / (2 * q)) ** 2) > 1e-9:
            return None
        ks.append(k)
    if n == 1:
        return tuple(ks)
    if len(set(ks)) != n or not all(0 < k < q for k in ks):
        return None
    if any((2 * k) % q != k_next for k, k_next in zip(ks, ks[1:] + ks[:1])):
        return None
    return tuple(ks)


def cycle_key(ks: tuple[int, ...]) -> tuple[int, ...]:
    i = ks.index(min(ks))
    return ks[i:] + ks[:i]


def expected_cycles(max_period: int) -> dict[int, set[tuple[int, ...]]]:
    """Every orbit of minimal period n <= max_period as a k-cycle."""
    out: dict[int, set[tuple[int, ...]]] = {1: {(0,), (1,)}}
    for n in range(2, max_period + 1):
        q = 2**n - 1
        cycles = set()
        for k0 in range(1, q):
            ks = [k0]
            while (2 * ks[-1]) % q != k0:
                ks.append((2 * ks[-1]) % q)
            if len(ks) == n:
                cycles.add(cycle_key(tuple(ks)))
        out[n] = cycles
    return out


def missing_orbits(catalog: list[dict], max_period: int) -> int:
    """How many logistic4-embed orbits of period <= max_period the catalog
    lacks."""
    found = set()
    for orb in catalog:
        ks = doubling_cycle(orb["period"], orb["points"])
        if ks is not None:
            found.add((orb["period"], cycle_key(ks)))
    want = expected_cycles(max_period)
    return sum(1 for n, cycles in want.items() for ks in cycles if (n, ks) not in found)


def check_doubling_catalog(catalog: list[dict], max_period: int) -> list[str]:
    """Exactly the expected orbits of each period, each point within 1e-9 of
    sin^2(pi k / (2 (2^n - 1)))."""
    problems = []
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for orb in catalog:
        n = orb["period"]
        if len(orb["points"]) != n:
            problems.append(f"period-{n} orbit lists {len(orb['points'])} points")
            continue
        ks = doubling_cycle(n, orb["points"])
        if ks is None:
            problems.append(f"period-{n} orbit {orb['points'][:3]} is no doubling cycle")
            continue
        key = (n, cycle_key(ks))
        if key in seen:
            problems.append(f"period-{n} orbit {ks} listed twice")
        seen.add(key)
    for n in range(1, max_period + 1):
        got = sum(1 for (m, _) in seen if m == n)
        if got != orbit_count(n):
            problems.append(f"period {n}: {got} orbits, expected {orbit_count(n)}")
    extra = {m for (m, _) in seen if m > max_period}
    if extra:
        problems.append(f"orbits of periods {sorted(extra)} beyond max_period")
    return problems


# ---------------------------------------------------------------------------
# the attracting 2-cycle of paper-example


def paper_example_two_cycle() -> tuple[float, float, float]:
    """(p, q, multiplier) of the attracting cycle p < 1/2 < q, solved by
    bisection on R(L(p)) - p in 60-digit decimals."""
    getcontext().prec = 60
    a_left, a_right = (Decimal(str(v)) for v in QUADRATIC_PAIRS["paper-example"])

    def g(p: Decimal) -> Decimal:
        q = a_left * p * (1 - p)
        return 1 - a_right * q * (1 - q) - p

    def multiplier(p: Decimal) -> Decimal:
        q = a_left * p * (1 - p)
        return a_left * (1 - 2 * p) * a_right * (2 * q - 1)

    # L(p) > 1/2 needs p above the smaller root of 3.4 p (1 - p) = 1/2
    grid = [Decimal(i) / 4000 for i in range(700, 2000)]
    for lo, hi in zip(grid, grid[1:]):
        if (g(lo) < 0) == (g(hi) < 0):
            continue
        for _ in range(200):
            mid = (lo + hi) / 2
            if (g(mid) < 0) == (g(lo) < 0):
                lo = mid
            else:
                hi = mid
        if abs(multiplier(lo)) < 1:
            p = lo
            return float(p), float(a_left * p * (1 - p)), float(multiplier(p))
    raise AssertionError("no attracting 2-cycle bracketed")


# ---------------------------------------------------------------------------
# analyze reports


def check_report(name: str, report: dict, two_cycle: tuple[float, float, float], validator) -> list[str]:
    """Oracles for one `lorenzlab analyze` report of a builtin map."""
    problems = [f"schema: {e.message}" for e in validator.iter_errors(report)]
    if problems or "error" in report:
        return problems + ([f"report error: {report['error']}"] if "error" in report else [])
    catalog = report["periodic_catalog"]
    dec = report["decomposition"]
    a_left, a_right = QUADRATIC_PAIRS[name]

    if name == "logistic4-embed":
        problems += check_doubling_catalog(catalog, report["provenance"]["budgets"]["max_period"])
        if dec["n_f"] != 0:
            problems.append(f"n_f = {dec['n_f']}, expected 0")
    else:
        if dec["final_class"]["kind"] != "periodic_attractor":
            problems.append(f"final class {dec['final_class']['kind']}, expected periodic_attractor")
    if name == "paper-example":
        problems += check_two_cycle(catalog, two_cycle)
    if name == "logistic3_4-embed":
        problems += check_first_chain_interval(report["renorm"]["chain"])
    if dec["omega0"] != omega0(name):
        problems.append(f"omega0 {dec['omega0']}, expected {omega0(name)}")

    for sample in report["lyapunov_samples"]:
        x0, value = sample["x0"], sample["value"]
        if x0 in (0.0, 1.0):
            # a fixed endpoint: every step adds log f'(x0)
            want = math.log(a_left if x0 == 0.0 else a_right)
            if not math.isclose(value, want, rel_tol=1e-12):
                problems.append(f"Lyapunov from {x0}: {value}, expected log f'({x0}) = {want}")
        elif name == "logistic3_4-embed":
            want = 0.5 * math.log(abs(4 + 2 * a_left - a_left**2))
            if abs(value - want) > 0.01:
                problems.append(f"Lyapunov from {x0}: {value}, expected {want} +- 0.01")
        elif name == "logistic4-embed" and sample["label"] == "random":
            if abs(value - LOG2) > 0.05:
                problems.append(f"Lyapunov from {x0}: {value}, expected log 2 +- 0.05")

    h = report["entropy"]["estimate"]
    if h > LOG2 + 0.1:
        problems.append(f"entropy {h} above log 2 + 0.1")
    if name == "logistic4-embed" and h < 0.6:
        problems.append(f"entropy {h} below 0.6")
    if name == "paper-example" and h > 0.05:
        problems.append(f"entropy {h} above 0.05")
    return problems


def check_two_cycle(catalog: list[dict], two_cycle: tuple[float, float, float]) -> list[str]:
    p, q, mult = two_cycle
    for orb in catalog:
        if orb["period"] == 2 and abs(orb["points"][0] - p) <= 1e-8 and abs(orb["points"][1] - q) <= 1e-8:
            if abs(orb["multiplier"] - mult) > 1e-6:
                return [f"2-cycle multiplier {orb['multiplier']}, expected {mult}"]
            if orb["kind"] != "attracting":
                return [f"2-cycle kind {orb['kind']}, expected attracting"]
            return []
    return [f"no period-2 orbit within 1e-8 of ({p}, {q})"]


def check_first_chain_interval(chain: list[dict]) -> list[str]:
    if not chain:
        return ["empty renormalization chain, expected (5/17, 12/17) first"]
    first = chain[0]
    if abs(first["a"] - 5 / 17) > 1e-9 or abs(first["b"] - 12 / 17) > 1e-9:
        return [f"first chain interval ({first['a']}, {first['b']}), expected (5/17, 12/17)"]
    if (first["period_a"], first["period_b"]) != (2, 2) or not first["regular"]:
        return [f"first chain interval periods {first['period_a']},{first['period_b']} regular={first['regular']}"]
    return []


# ---------------------------------------------------------------------------
# first-return maps


def doubling_return_time(s: float, J_s: tuple[Fraction, Fraction], horizon: int) -> tuple[int, list[str]]:
    """First k >= 1 with 2^k s mod 1 in the open interval J_s, and the
    branch sides taken on the way; 0 when it does not return in time."""
    lo, hi = J_s
    sides = []
    for k in range(1, horizon + 1):
        sides.append("left" if s < 0.5 else "right")
        s = double(s)
        if lo < Fraction(s) < hi:
            return k, sides
    return 0, sides


def quadratic_return_time(name: str, x: float, J: tuple[float, float], horizon: int) -> tuple[int, list[str]]:
    lo, hi = J
    sides = []
    for k in range(1, horizon + 1):
        sides.append("left" if x < C else "right")
        x = step(name, x)
        if lo < x < hi:
            return k, sides
    return 0, sides


def branch_image(name: str, x: float, sides: list[str]) -> float:
    """The point x carried along a fixed branch path: exact doubling in s
    for logistic4-embed, the quadratics extended past c otherwise."""
    if name == "logistic4-embed":
        s = x_to_s(x)
        for side in sides:
            s = 2.0 * s - (1.0 if side == "right" else 0.0)
        return s_to_x(s)
    for side in sides:
        x = branch_step(name, side, x)
    return x


def check_return_map(
    name: str,
    J: tuple[float, float],
    J_s: tuple[Fraction, Fraction] | None,
    branches: list[tuple[tuple[float, float], int]],
    horizon: int,
) -> list[str]:
    """Branches as ((lo, hi), return_time). Domains disjoint and inside J;
    each midpoint returns at the branch's time; each branch clear of c maps
    onto J within 1e-6."""
    problems = []
    lo, hi = J
    doms = sorted(branches)
    for (d, t), (d_next, _) in zip(doms, doms[1:]):
        if d[1] > d_next[0] + 1e-12:
            problems.append(f"domains {d} and {d_next} overlap")
    for (a, b), t in doms:
        if not (lo - 1e-12 <= a < b <= hi + 1e-12):
            problems.append(f"domain ({a}, {b}) not inside J")
            continue
        mid = 0.5 * (a + b)
        if name == "logistic4-embed":
            got, sides = doubling_return_time(x_to_s(mid), J_s, horizon)
        else:
            got, sides = quadratic_return_time(name, mid, J, horizon)
        if got != t:
            problems.append(f"midpoint of ({a}, {b}) returns at {got}, branch says {t}")
            continue
        if min(abs(a - C), abs(b - C)) > 1e-9:
            img = sorted((branch_image(name, a, sides), branch_image(name, b, sides)))
            if abs(img[0] - lo) > 1e-6 or abs(img[1] - hi) > 1e-6:
                problems.append(f"branch ({a}, {b}) maps onto {tuple(img)}, not J")
    return problems


# ---------------------------------------------------------------------------
# scan rows


def check_scan_rows(rows: list[dict], cells: list[tuple[float, float]]) -> list[bool]:
    """One verdict per expected cell, in input order."""
    verdicts = []
    for i, (a_left, a_right) in enumerate(cells):
        if i >= len(rows):
            verdicts.append(False)
            continue
        r = rows[i]
        ok = (
            r["status"] == "ok"
            and float(r["a_left"]) == a_left
            and float(r["a_right"]) == a_right
            and r["final_class"] in ATTRACTOR_KINDS
        )
        if ok and (a_left, a_right) == (4.0, 4.0):
            ok = r["n_f"] == "0" and abs(float(r["lyapunov"]) - LOG2) <= 0.05
        verdicts.append(ok)
    return verdicts
