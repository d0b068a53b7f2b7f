"""The benchmark's workloads: inputs made from the seed, one timed pass,
and the oracle checks of every operation.

Each seed picks among inputs of near-equal cost (the tiers below were sized
by counting map evaluations), so that seeds vary the inputs while the work
of a pass stays nearly the same and its time can be compared across seeds.
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

import jsonschema
import oracles

HORIZON = 1000
RESOLUTION = 4096

# logistic4-embed nice intervals in s-coordinates (x = sin^2(pi s / 2)), one
# tier per line; the intervals of a tier need the same number of map
# evaluations within about 2 %. A seed takes one interval of each tier,
# itself or its mirror image (1 - b, 1 - a).
DOUBLING_TIERS = [
    [(F(16, 63), F(64, 127)), (F(32, 127), F(128, 255)), (F(1, 3), F(298, 511))],
    [(F(36, 127), F(44, 85)), (F(42, 127), F(4, 7)), (F(170, 511), F(146, 255)), (F(8, 31), F(256, 511))],
    [(F(144, 511), F(256, 511)), (F(1, 3), F(46, 85)), (F(40, 127), F(44, 85)), (F(16, 51), F(26, 51))],
    [(F(16, 51), F(128, 255)), (F(42, 127), F(66, 127)), (F(164, 511), F(26, 51)), (F(162, 511), F(258, 511))],
    [(F(170, 511), F(44, 85)), (F(1, 3), F(264, 511)), (F(162, 511), F(256, 511)), (F(162, 511), F(128, 255))],
]

# paper-example nice intervals (a, b): a is the greatest point below c of
# the periodic orbit with the first itinerary (0 = left branch), b the least
# point above c of the orbit with the second
QUADRATIC_TIERS = [
    [("0010010", "0000010"), ("00010010", "00000010"), ("0010010", "00000010"), ("01001010", "001010")],
    [("01010", "00010"), ("01001010", "00001010"), ("01001010", "000010"), ("01001010", "00000010"), ("10", "01001010")],
]

SCAN_BUDGETS = {"max_period": 8}
SCAN_STEPS = 3
# lower corners (a_left, a_right) of the grid, whose upper corner is (4, 4);
# single-threaded, the nine cells of each grid take the same time within
# about 2 %, and a scan of each reaches the same peak memory within 1 %
SCAN_CORNERS = [
    (F(15, 4), F(3, 1)),
    (F(13, 4), F(7, 2)),
    (F(13, 4), F(15, 4)),
    (F(31, 8), F(3, 1)),
    (F(27, 8), F(25, 8)),
    (F(31, 8), F(13, 4)),
]


@dataclass
class Outcome:
    """One pass: its time, and per operation whether it errored or was
    wrong."""

    seconds: float = 0.0
    attempted: int = 0
    errored: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, ok: bool, problems: list[str], errored: bool = False) -> None:
        self.attempted += 1
        if errored:
            self.errored += 1
        elif not ok:
            self.wrong += 1
        self.problems += problems


# ---------------------------------------------------------------------------
# analyze


class Analyze:
    """`lorenzlab analyze` on the three builtin maps at default budgets."""

    MAPS = ("paper-example", "logistic3_4-embed", "logistic4-embed")

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed, self.root, self.out_dir = seed, root, out_dir

    def prepare(self) -> None:
        rng = random.Random(seed_key("analyze", self.seed))
        self.inputs = [(name, rng.randrange(2**31)) for name in self.MAPS]
        schema_path = self.root / "src" / "lorenzlab" / "schemas" / "map_report.schema.json"
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        jsonschema.Draft7Validator.check_schema(schema)
        self.validator = jsonschema.Draft7Validator(schema)
        self.two_cycle = oracles.paper_example_two_cycle()
        p, q, _ = self.two_cycle
        if abs(oracles.step("paper-example", oracles.step("paper-example", p)) - p) > 1e-12:
            raise ValueError("paper-example 2-cycle does not close")

    def run_pass(self) -> Outcome:
        from lorenzlab import cli

        out = Outcome()
        for name, seed in self.inputs:
            path = self.out_dir / f"{name}.json"
            t0 = time.perf_counter()
            rc = cli.main(["analyze", "--map", name, "--seed", str(seed), "--out", str(path)])
            out.seconds += time.perf_counter() - t0
            if rc != 0:
                out.add(False, [f"analyze {name}: exit code {rc}"], errored=True)
                continue
            report = json.loads(path.read_text(encoding="utf-8"))
            problems = oracles.check_report(name, report, self.two_cycle, self.validator)
            out.add(not problems, [f"analyze {name}: {p}" for p in problems])
        return out


# ---------------------------------------------------------------------------
# returnmap


def doubling_orbit(s: F) -> list[F]:
    orbit = [s]
    while True:
        nxt = 2 * orbit[-1] - (1 if orbit[-1] >= F(1, 2) else 0)
        if nxt == orbit[0]:
            return orbit
        orbit.append(nxt)


def quadratic_orbit(name: str, word: str) -> list[float]:
    """The repelling periodic orbit with itinerary `word`, by iterating the
    branch inverses backwards along it."""
    a_left, a_right = oracles.QUADRATIC_PAIRS[name]
    inverse = {
        "0": lambda y: (1.0 - math.sqrt(1.0 - 4.0 * y / a_left)) / 2.0,
        "1": lambda y: (1.0 + math.sqrt(1.0 - 4.0 * (1.0 - y) / a_right)) / 2.0,
    }
    x = 0.5
    for _ in range(200):
        for bit in reversed(word):
            x = inverse[bit](x)
    orbit = [x]
    for bit in word:
        if (orbit[-1] >= oracles.C) != (bit == "1"):
            raise ValueError(f"itinerary {word} is not admissible")
        orbit.append(oracles.step(name, orbit[-1]))
    if abs(orbit.pop() - x) > 1e-12:
        raise ValueError(f"orbit {word} does not close")
    mult = math.prod(abs(a_left * (1 - 2 * v)) if v < oracles.C else abs(a_right * (2 * v - 1)) for v in orbit)
    if mult <= 1.0:
        raise ValueError(f"orbit {word} is not repelling")
    return orbit


class ReturnMap:
    """`first_return_map` at horizon 1000 and resolution 4096 on nice
    intervals of logistic4-embed and paper-example."""

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed = seed

    def prepare(self) -> None:
        from lorenzlab import builtin_map

        rng = random.Random(seed_key("returnmap", self.seed))
        self.inputs = []
        spec = builtin_map("logistic4-embed")
        for tier in DOUBLING_TIERS:
            a, b = rng.choice(tier)
            if rng.random() < 0.5:
                a, b = 1 - b, 1 - a
            if not (a < F(1, 2) < b) or any(a < v < b for v in doubling_orbit(a) + doubling_orbit(b)):
                raise ValueError(f"({a}, {b}) is not a nice interval")
            J = (oracles.s_to_x(a), oracles.s_to_x(b))
            self.inputs.append(("logistic4-embed", spec, J, (a, b)))
        spec = builtin_map("paper-example")
        for tier in QUADRATIC_TIERS:
            word_a, word_b = rng.choice(tier)
            orbit_a = quadratic_orbit("paper-example", word_a)
            orbit_b = quadratic_orbit("paper-example", word_b)
            a = max(v for v in orbit_a if v < oracles.C)
            b = min(v for v in orbit_b if v > oracles.C)
            if any(a < v < b for v in orbit_a + orbit_b):
                raise ValueError(f"({a}, {b}) is not a nice interval")
            self.inputs.append(("paper-example", spec, (a, b), None))

    def run_pass(self) -> Outcome:
        from lorenzlab import return_maps

        out = Outcome()
        for name, spec, J, J_s in self.inputs:
            t0 = time.perf_counter()
            try:
                rec = return_maps.first_return_map(spec, J, HORIZON, RESOLUTION)
            except ValueError as e:
                rec, error = None, e
            out.seconds += time.perf_counter() - t0
            if rec is None:
                out.add(False, [f"returnmap {name} {J}: {error}"], errored=True)
                continue
            branches = [(b.domain, b.return_time) for b in rec.branches]
            problems = oracles.check_return_map(name, J, J_s, branches, HORIZON)
            out.add(not problems, [f"returnmap {name} {J}: {p}" for p in problems])
        return out


# ---------------------------------------------------------------------------
# scan


class Scan:
    """`lorenzlab scan` over quadratic pairs in [3, 4]^2 with max_period 8,
    on the thread pool at its default width."""

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed, self.out_dir = seed, out_dir

    def prepare(self) -> None:
        rng = random.Random(seed_key("scan", self.seed))
        lo_left, lo_right = rng.choice(SCAN_CORNERS)
        self.lo = (lo_left, lo_right)
        # dyadic corners and spacings make every grid value exact, so the
        # rows can be compared with ==
        lefts = [lo_left + (4 - lo_left) * F(i, SCAN_STEPS - 1) for i in range(SCAN_STEPS)]
        rights = [lo_right + (4 - lo_right) * F(i, SCAN_STEPS - 1) for i in range(SCAN_STEPS)]
        if any(v.denominator & (v.denominator - 1) for v in lefts + rights):
            raise ValueError("scan grid is not dyadic")
        self.cells = [(float(al), float(ar)) for al in lefts for ar in rights]
        self.cpu_s = self.wall_s = 0.0

    def run_pass(self) -> Outcome:
        from lorenzlab import cli

        out = Outcome()
        path = self.out_dir / "scan.csv"
        argv = [
            "scan",
            "--a-left", f"{float(self.lo[0])!r}:4.0",
            "--a-right", f"{float(self.lo[1])!r}:4.0",
            "--steps", str(SCAN_STEPS),
            "--budgets", json.dumps(SCAN_BUDGETS),
            "--out", str(path),
        ]  # fmt: skip
        cpu0, t0 = time.process_time(), time.perf_counter()
        rc = cli.main(argv)
        self.wall_s = time.perf_counter() - t0
        self.cpu_s = time.process_time() - cpu0
        out.seconds = self.wall_s
        if rc != 0:
            for _ in self.cells:
                out.add(False, [], errored=True)
            out.problems.append(f"scan: exit code {rc}")
            return out
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(self.cells):
            out.problems.append(f"scan: {len(rows)} rows for {len(self.cells)} cells")
        for cell, ok in zip(self.cells, oracles.check_scan_rows(rows, self.cells)):
            out.add(ok, [] if ok else [f"scan cell {cell}: wrong row"])
        return out


def seed_key(workload: str, seed: int) -> str:
    return f"{workload}:{seed}"


WORKLOADS = {"analyze": Analyze, "returnmap": ReturnMap, "scan": Scan}
