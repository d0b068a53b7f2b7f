import math

import pytest

from lorenzlab import (
    detect_degenerate,
    embed_unimodal,
    find_periodic_points,
    find_renormalizations,
    first_return_map,
    is_renormalization,
    logistic,
    renormalization_cycle,
    trapping_region,
)
from lorenzlab.map_core import Side, apply_raw
from known_points import A3, B3


FEIGENBAUM_A = 3.569945671870944


def test_certify_embedded_pair(ex3):
    ok, rec, why = is_renormalization(ex3, (A3, B3))
    assert ok, why
    assert rec.period_a == 2 and rec.period_b == 2
    assert rec.regular
    # boundary points are the closed-form roots of 3.4x^2 - 4.4x + 1 and
    # x = 1 - 1/3.4
    assert rec.J[0] == pytest.approx((4.4 - math.sqrt(4.4**2 - 4 * 3.4)) / (2 * 3.4), abs=1e-12)
    assert rec.J[1] == pytest.approx(1 - 1 / 3.4, abs=1e-12)


def test_no_renormalization_examples(ex1, ex2):
    # f(c+) = 0 obstructs any proper interval: the right-side return drags
    # everything to 0
    for J in ((0.4, 0.6), (0.3, 0.7), (0.45, 0.55)):
        ok1, _, _ = is_renormalization(ex1, J)
        ok2, _, _ = is_renormalization(ex2, J)
        assert not ok1
        assert not ok2


def test_find_renormalizations_chains(ex1, ex2, ex3, cat1, cat2, cat3):
    seq1 = find_renormalizations(ex1, 12, 8, catalog=cat1)
    assert seq1.intervals == []
    assert seq1.maximal_nonregular is None
    assert seq1.degenerate is not None

    seq2 = find_renormalizations(ex2, 12, 8, catalog=cat2)
    assert seq2.intervals == []
    assert seq2.maximal_nonregular is None
    assert seq2.degenerate is None

    seq3 = find_renormalizations(ex3, 12, 8, catalog=cat3)
    assert len(seq3.chain()) >= 1
    assert seq3.chain()[0].J == pytest.approx((A3, B3), abs=1e-9)
    assert seq3.intervals[0].regular


def test_degenerate_record(ex1, cat1):
    rec = detect_degenerate(ex1, catalog=cat1, horizon=10_000)
    assert rec is not None
    lo, hi = rec.I
    assert hi == pytest.approx(0.5)
    # independent oracle: the repelling 2-cycle point left of the attractor
    def f2(x):
        y = 3.4 * x * (1 - x)
        return 1 - 4 * y * (1 - y)

    a, b = 0.35, 0.45
    ga = f2(a) - a
    for _ in range(200):
        m = 0.5 * (a + b)
        if (f2(m) - m > 0) == (ga > 0):
            a = m
        else:
            b = m
    assert lo == pytest.approx(0.5 * (a + b), abs=1e-8)
    assert rec.n == 2
    # the interval never contains c in its interior
    assert not (lo < 0.5 < hi) or hi == 0.5 or lo == 0.5


def test_exclusivity(ex1, ex2, ex3, cat1, cat2, cat3):
    l32 = embed_unimodal(logistic(3.2))
    for spec, cat in ((ex1, cat1), (ex2, cat2), (ex3, cat3), (l32, find_periodic_points(l32, 12))):
        seq = find_renormalizations(spec, 12, 8, catalog=cat)
        assert not (seq.maximal_nonregular is not None and seq.degenerate is not None)


def test_cycle_components(ex3, seq3):
    rec = seq3.intervals[0]
    comps = renormalization_cycle(ex3, rec)
    assert len(comps) == rec.period_a + rec.period_b
    expect = [(A3, 0.5), (B3, 0.85), (0.5, B3), (0.15, A3)]
    for got, want in zip(comps, expect):
        assert got == pytest.approx(want, abs=1e-9)
    # components avoid neighborhoods of the endpoint fixed points
    for (lo, hi) in comps:
        assert lo > 0.01 and hi < 0.99


def test_trapping_region_components(ex3, seq3):
    rec = seq3.intervals[0]
    K = trapping_region(ex3, rec)
    # gaps computed from the closed-form branch inverses of 5/17 and 12/17
    x_lo = (1 - math.sqrt(1 - 4 * A3 / 3.4)) / 2
    x_hi = (1 + math.sqrt(1 - 4 * A3 / 3.4)) / 2
    expect = [(x_lo, A3), (A3, B3), (B3, x_hi)]
    assert len(K) == 3
    for got, want in zip(sorted(K), expect):
        assert got == pytest.approx(want, abs=1e-9)
    # every cycle component is contained in some trapping component
    for comp in renormalization_cycle(ex3, rec):
        assert any(lo - 1e-9 <= comp[0] and comp[1] <= hi + 1e-9 for (lo, hi) in K)


def test_trapping_invariance_probe(ex3, seq3, rng):
    K = trapping_region(ex3, seq3.intervals[0])
    for _ in range(100):
        k = int(rng.integers(0, len(K)))
        x = float(rng.uniform(*K[k]))
        for _ in range(100):
            if abs(x - 0.5) <= 1e-10:
                break
            x = apply_raw(ex3, x, Side.NONE)
            assert any(lo - 1e-9 <= x <= hi + 1e-9 for (lo, hi) in K)


def test_nonregular_interval(ex3, seq3):
    # the embedded logistic-3.2 pair renormalizes non-regularly at the
    # 2-cycle spanning interval (0.3125, 0.6875) = (1 - x*, x*)
    spec = embed_unimodal(logistic(3.2))
    cat = find_periodic_points(spec, 8)
    seq = find_renormalizations(spec, 8, 8, catalog=cat)
    assert seq.maximal_nonregular is not None
    jm = seq.maximal_nonregular
    xstar = 1 - 1 / 3.2
    assert jm.J == pytest.approx((1 - xstar, xstar), abs=1e-9)
    assert not jm.regular
    # one-sided returns land strictly inside their own sides
    assert jm.left_image[1] < 0.5
    assert jm.right_image[0] > 0.5
    # a non-regular interval holds a periodic attractor inside
    inside = [
        r
        for r in cat
        if r.kind in ("attracting", "super", "neutral")
        and any(jm.J[0] < p < jm.J[1] for p in r.points)
    ]
    assert inside


def test_renormalization_case_branch_count(ex3, seq3):
    # certified interval: the first-return map has exactly two branches,
    # both adjacent to c
    rec = first_return_map(ex3, seq3.intervals[0].J, 1000, 1 << 12)
    assert len(rec.branches) == 2
    assert all(b.touches_c for b in rec.branches)


def test_nested_chain_not_linked(ex3, seq3):
    chain = seq3.chain()
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            a0, b0 = chain[i].J
            a1, b1 = chain[j].J
            assert a0 < a1 and b1 < b0  # strict nesting, disjoint boundaries


def test_period_doubling_chain_shrinks():
    spec = embed_unimodal(logistic(FEIGENBAUM_A))
    seq = find_renormalizations(spec, 16, 3, catalog=find_periodic_points(spec, 16))
    chain = seq.chain()
    assert len(chain) == 3
    assert [r.period_a for r in chain] == [2, 4, 8]
    widths = [r.width for r in chain]
    assert widths == sorted(widths, reverse=True)
    assert seq.depth_cap_hit
    assert any("solenoid candidate" in n for n in seq.notes)


def test_is_renormalization_reports_reason(ex1):
    ok, rec, why = is_renormalization(ex1, (0.3, 0.7))
    assert not ok
    assert why
