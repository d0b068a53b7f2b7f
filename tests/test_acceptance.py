"""Acceptance suite: the worked example plus the property checks, each at
its stated tolerance. Every test prints one PASS/FAIL line (run with -s or
see captured output)."""

import json
import math
import time

import numpy as np
import pytest

from lorenzlab import (
    Budgets,
    count_nonrepelling,
    embed_unimodal,
    entropy_estimate,
    find_periodic_points,
    find_renormalizations,
    first_return_map,
    is_nice,
    logistic,
    lyapunov,
    mane_expansion_check,
    omega0,
    phobic_measure,
    quadratic_pair,
)
from lorenzlab.orbits import orbit_list
from lorenzlab.cli import build_report, main
from lorenzlab.map_core import Side, apply_raw
from known_points import P_CYCLE, Q_CYCLE


def verdict(num, ok, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_worked_example(ex1):
    t0 = time.time()
    report = build_report(ex1, Budgets())
    elapsed = time.time() - t0

    two = [r for r in report["periodic_catalog"] if r["period"] == 2 and r["kind"] == "attracting"]
    ok = len(two) == 1
    p, q = two[0]["points"]
    ok &= abs(p - P_CYCLE) <= 1e-8 and abs(q - Q_CYCLE) <= 1e-8
    analytic = 3.4 * (1 - 2 * p) * 4 * (2 * q - 1)
    ok &= abs(two[0]["multiplier"] - analytic) <= 1e-6
    ok &= report["renorm"]["chain"] == [] and report["renorm"]["j_max"] is None
    ok &= report["decomposition"]["omega0"] == "{1}"
    ok &= report["renorm"]["degenerate"] is not None
    ok &= report["decomposition"]["final_class"]["kind"] == "periodic_attractor"
    ok &= elapsed < 10.0
    verdict(
        1,
        ok,
        f"worked example: 2-cycle ({p:.12f}, {q:.12f}), multiplier {two[0]['multiplier']:.6f}, "
        f"no renormalization, degenerate record present, {elapsed:.1f}s",
    )


def test_criterion_2_omega0_table(ex1, ex2, ex3):
    got = (
        omega0(ex1),
        omega0(ex2),
        omega0(ex3),
        omega0(quadratic_pair(4.0, 3.4)),
    )
    want = ("{1}", "full_interval", "{0,1}", "{0}")
    verdict(2, got == want, f"omega0 table {got} == {want}")


def test_criterion_3_renormalization_certification(ex1, ex2, ex3, cat1, cat2, cat3):
    seq3 = find_renormalizations(ex3, 12, 8, catalog=cat3)
    rec = seq3.intervals[0] if seq3.intervals else None
    ok = rec is not None
    if ok:
        a_true = (4.4 - math.sqrt(4.4**2 - 4 * 3.4)) / (2 * 3.4)
        b_true = 1 - 1 / 3.4
        ok &= abs(rec.J[0] - a_true) <= 1e-9 and abs(rec.J[1] - b_true) <= 1e-9
        ok &= rec.period_a == 2 and rec.period_b == 2 and rec.regular
    seq1 = find_renormalizations(ex1, 12, 8, catalog=cat1)
    seq2 = find_renormalizations(ex2, 12, 8, catalog=cat2)
    ok &= seq1.chain() == [] and seq2.chain() == []
    verdict(3, ok, "EX3 certifies (5/17, 12/17) with periods (2,2) regular; EX1, EX2 certify none")


def test_criterion_4_singer_sweep():
    t0 = time.time()
    worst = 0
    for al in np.linspace(3.0, 4.0, 10):
        for ar in np.linspace(3.0, 4.0, 10):
            spec = quadratic_pair(float(al), float(ar))
            worst = max(worst, count_nonrepelling(find_periodic_points(spec, 12)))
    elapsed = time.time() - t0
    ok = worst <= 2 and elapsed < 300
    verdict(4, ok, f"Singer sweep 10x10 on [3,4]^2: max non-repelling count {worst} <= 2, {elapsed:.0f}s")


def _nice_intervals_from_orbits(spec, catalog, rng, want):
    """Nice intervals built as the central complement component of unions of
    catalog orbits: boundary orbits avoid the interior by construction."""
    out = []
    seen = set()
    orbits = [r for r in catalog if r.kind != "super"]
    for _ in range(2000):
        i, j = rng.integers(0, len(orbits), 2)
        pts = sorted(set(orbits[i].points) | set(orbits[j].points))
        below = [p for p in pts if p < spec.c - 1e-9]
        above = [p for p in pts if p > spec.c + 1e-9]
        if not below or not above:
            continue
        J = (max(below), min(above))
        key = (round(J[0], 10), round(J[1], 10))
        if key in seen or J[1] - J[0] < 3e-4:
            continue
        seen.add(key)
        if is_nice(spec, J, 1000).is_nice:
            out.append(J)
        if len(out) >= want:
            break
    return out


def test_criterion_5_full_branch_law(ex1, ex2, ex3, cat1, cat2, cat3, rng):
    pool = []
    for spec, cat in ((ex1, cat1), (ex2, cat2), (ex3, cat3)):
        for J in _nice_intervals_from_orbits(spec, cat, rng, 10):
            pool.append((spec, J))
    ok = len(pool) >= 20
    checked = 0
    for spec, J in pool[:20]:
        rec = first_return_map(spec, J, 1000, 1 << 12)
        for b in rec.branches:
            if b.touches_c:
                continue
            checked += 1
            ok &= b.is_full
            ok &= abs(b.image[0] - J[0]) <= 1e-6 and abs(b.image[1] - J[1]) <= 1e-6
            # independent per-point oracle: direct iteration from deep
            # inside the branch edges
            lo, hi = b.domain
            w = hi - lo
            samples = np.linspace(lo + 1e-9 * w, hi - 1e-9 * w, 1000)
            xl, xr = float(samples[0]), float(samples[-1])
            for _ in range(b.return_time):
                xl = apply_raw(spec, xl, Side.NONE)
                xr = apply_raw(spec, xr, Side.NONE)
            ok &= abs(xl - J[0]) <= 1e-6 and abs(xr - J[1]) <= 1e-6
            # all sampled returns stay inside J
            y = samples.copy()
            from lorenzlab.map_core import eval_array

            for _ in range(b.return_time):
                y = eval_array(spec, y)
            ok &= bool(np.all((y >= J[0] - 1e-9) & (y <= J[1] + 1e-9)))
    verdict(5, ok and checked > 0, f"full-branch law on {len(pool[:20])} nice intervals, {checked} interior branches")


def test_criterion_6_phobic_decay(ex2):
    vals = {n: phobic_measure(ex2, (0.4, 0.6), n, 100_000).surviving_measure for n in (5, 10, 20, 50)}
    seq = [vals[n] for n in (5, 10, 20, 50)]
    ok = vals[50] < 0.02 and all(b <= a for a, b in zip(seq, seq[1:]))
    verdict(6, ok, f"avoidance fraction decay on (0.4,0.6): {seq}, final < 0.02")


def test_criterion_7_embedding_invariants(rng):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    ok = True
    for a in (4.0, 3.4):
        L = embed_unimodal(logistic(a))
        cl = [mp.mpf(v) for v in L.left.poly_coefficients()]
        cr = [mp.mpf(v) for v in L.right.poly_coefficients()]
        aa = mp.mpf(a)

        def u(x):
            return aa * x * (1 - x)

        def du(x):
            return aa * (1 - 2 * x)

        def Lmap(x):
            cs = cl if x < mp.mpf(0.5) else cr
            return cs[0] + cs[1] * x + cs[2] * x * x

        def dL(x):
            cs = cl if x < mp.mpf(0.5) else cr
            return cs[1] + 2 * cs[2] * x

        for _ in range(500):
            x0 = mp.mpf(float(rng.uniform(0.01, 0.99)))
            n = int(rng.integers(1, 51))
            xl, xu = x0, x0
            prod_l, prod_u = mp.mpf(1), mp.mpf(1)
            bad = False
            for _ in range(n):
                if abs(xl - mp.mpf(0.5)) < mp.mpf(1e-30) or abs(xu - mp.mpf(0.5)) < mp.mpf(1e-30):
                    bad = True
                    break
                prod_l *= abs(dL(xl))
                prod_u *= abs(du(xu))
                xl, xu = Lmap(xl), u(xu)
            if bad:
                continue
            rel = abs(prod_l - prod_u) / max(abs(prod_u), mp.mpf(1e-300))
            ok &= rel < mp.mpf(1e-6)
            ok &= min(abs(xl - xu), abs(xl - (1 - xu))) < mp.mpf(1e-9)
    verdict(7, ok, "embedding invariants: derivative products equal, orbits shadow u^n or 1-u^n")


def test_criterion_8_entropy_bounds(ex1, ex2, ex3):
    bound = math.log(2.0) + 2.0 / 20
    h1 = entropy_estimate(ex1, 100_000)
    h2 = entropy_estimate(ex2, 100_000)
    h3 = entropy_estimate(ex3, 100_000)
    ok = all(h <= bound for h in (h1, h2, h3)) and h2 >= 0.6 and h1 <= 0.05
    verdict(8, ok, f"entropy: EX1 {h1:.4f} <= 0.05, EX2 {h2:.4f} >= 0.6, all <= log2 + 0.1")


def test_criterion_9_lyapunov(ex1, ex2):
    est2 = lyapunov(ex2, orbit_list(ex2, 0.37591, 1_000_000), 1_000_000)
    ok = abs(est2.value - math.log(2.0)) <= 0.05
    est1 = lyapunov(ex1, orbit_list(ex1, P_CYCLE, 10_000), 10_000)
    analytic = 0.5 * math.log(3.4 * (1 - 2 * P_CYCLE) * 4 * (2 * Q_CYCLE - 1))
    ok &= abs(est1.value - analytic) <= 0.01
    verdict(
        9,
        ok,
        f"Lyapunov: EX2 {est2.value:.4f} within 0.05 of log2, EX1 {est1.value:.4f} within 0.01 of {analytic:.4f}",
    )


def test_criterion_10_mane_expansion(ex2):
    fit = mane_expansion_check(ex2, (0.4, 0.6), samples=1_000_000, n=40, rng=np.random.default_rng(0))
    ok = fit.passed and fit.lam > 1.0 and fit.survivors >= 50
    verdict(10, ok, f"expansion off (0.4,0.6): lambda {fit.lam:.3f} > 1 with {fit.survivors} survivors at n=40")


def test_criterion_11_strong_transitivity(ex3, dec3):
    s1 = dec3.strata[0]
    ok = s1.transitive_probe is True and len(s1.recurrent_cells) >= 1
    verdict(
        11,
        ok,
        f"outer stratum of the embedded 3.4 pair: images from each of {len(s1.recurrent_cells)} "
        "recurrent cells cover >= 90% of the stratum",
    )


def test_criterion_12_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    budgets = json.dumps({"max_period": 10, "samples": 20_000, "seed": 11})
    for out in (a, b):
        main(["analyze", "--map", "paper-example", "--budgets", budgets, "--out", str(out)])
    ok = a.read_bytes() == b.read_bytes()
    verdict(12, ok, "two analyze runs with identical config+seed are byte-identical")
