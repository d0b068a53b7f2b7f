import json
import math

import numpy as np
import pytest

from lorenzlab import map_core as mc
from lorenzlab import (
    DirectedPoint,
    Side,
    critical_values,
    derivative,
    embed_unimodal,
    evaluate,
    logistic,
    preimages,
    schwarzian,
    validate_map,
)


def quad_schwarzian(a, x, flip=False):
    # independent oracle: for f = a x(1-x) (or 1 - a x(1-x)), f''' = 0, so
    # Sf = -1.5 (f''/f')^2 with f' = a(1-2x) (sign-flipped when flipped)
    d1 = a * (1 - 2 * x) * (-1 if flip else 1)
    d2 = -2 * a * (-1 if flip else 1)
    return -1.5 * (d2 / d1) ** 2


def test_validate_paper_pair(ex1):
    rep = validate_map(ex1)
    assert rep.is_lorenz
    assert rep.is_contracting
    assert rep.schwarzian_negative_sampled
    v0, v1 = rep.critical_values
    assert v1 == pytest.approx(0.85, abs=1e-12)
    assert v0 == pytest.approx(0.0, abs=1e-12)
    assert rep.fixed_endpoint_multipliers == pytest.approx((3.4, 4.0))


def test_fixed_endpoints(ex1, ex2, ex3):
    for spec in (ex1, ex2, ex3):
        assert evaluate(spec, DirectedPoint(0.0)).x == pytest.approx(0.0, abs=1e-12)
        assert evaluate(spec, DirectedPoint(1.0)).x == pytest.approx(1.0, abs=1e-12)


def test_validate_rejects_bad_map():
    # left branch decreasing on part of its domain
    bad = mc.LorenzMapSpec(
        c=0.5,
        left=mc.BranchSpec(kind="polynomial", domain_side="left", coefficients=(0.0, 2.0, -3.0)),
        right=mc.BranchSpec(kind="polynomial", domain_side="right", coefficients=(1.0, -4.0, 4.0)),
    )
    rep = validate_map(bad)
    assert not rep.is_lorenz
    assert any("increasing" in n or "derivative" in n for n in rep.notes)


def test_directed_eval_at_break(ex1):
    assert evaluate(ex1, DirectedPoint(0.5, Side.MINUS)).x == pytest.approx(0.85, abs=1e-12)
    assert evaluate(ex1, DirectedPoint(0.5, Side.PLUS)).x == pytest.approx(0.0, abs=1e-12)
    assert evaluate(ex1, DirectedPoint(0.25)).x == pytest.approx(0.6375, abs=1e-12)
    with pytest.raises(mc.UndirectedCriticalEvaluation):
        evaluate(ex1, DirectedPoint(0.5))


def test_derivative_values(ex1):
    assert derivative(ex1, 0.0) == pytest.approx(3.4)
    assert derivative(ex1, 0.75) == pytest.approx(2.0)
    assert abs(derivative(ex1, 0.5 - 1e-9)) < 1e-8  # contracting side limit
    with pytest.raises(mc.CriticalPointError):
        derivative(ex1, 0.5)


def test_derivative_against_central_difference(ex1, ex3, rng):
    h = 1e-6
    for spec in (ex1, ex3):
        for _ in range(50):
            x = float(rng.uniform(0.02, 0.48))
            fd = (mc.branch_value(spec, "left", x + h) - mc.branch_value(spec, "left", x - h)) / (2 * h)
            assert derivative(spec, x) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_schwarzian_worked_values(ex1):
    assert schwarzian(ex1, 0.25) == pytest.approx(-24.0, abs=1e-6)
    assert schwarzian(ex1, 0.75) == pytest.approx(-24.0, abs=1e-6)
    assert schwarzian(ex1, 0.25) == pytest.approx(quad_schwarzian(3.4, 0.25), abs=1e-9)
    assert schwarzian(ex1, 0.75) == pytest.approx(quad_schwarzian(4.0, 0.75, flip=True), abs=1e-9)


def test_schwarzian_negative_everywhere_quadratic(ex1, ex2, ex3, rng):
    for spec in (ex1, ex2, ex3):
        for _ in range(100):
            x = float(rng.uniform(0.01, 0.99))
            if abs(x - 0.5) < 1e-3:
                continue
            assert schwarzian(spec, x) < 0


def test_power_form_branch_schwarzian():
    spec = mc.LorenzMapSpec(
        c=0.4,
        left=mc.BranchSpec(kind="power_form", domain_side="left", a=0.9, alpha=2.5),
        right=mc.BranchSpec(kind="power_form", domain_side="right", a=0.7, alpha=2.0),
        name="pf",
    )
    rep = validate_map(spec)
    assert rep.is_lorenz and rep.is_contracting and rep.schwarzian_negative_sampled
    # oracle: Sf = -(alpha^2 - 1) / (2 (c-x)^2) for the left normal form
    x = 0.1
    expect = -(2.5**2 - 1) / (2 * (0.4 - x) ** 2)
    assert schwarzian(spec, x) == pytest.approx(expect, rel=1e-9)


def test_monotone_on_branches(ex1, ex2, ex3, rng):
    for spec in (ex1, ex2, ex3):
        for _ in range(100):
            a, b = sorted(rng.uniform(0.0, 0.5, 2))
            if b - a < 1e-9:
                continue
            assert evaluate(spec, DirectedPoint(a)).x < evaluate(spec, DirectedPoint(b)).x
            a2, b2 = a + 0.5, b + 0.5
            assert evaluate(spec, DirectedPoint(a2)).x < evaluate(spec, DirectedPoint(b2)).x


def test_preimages_worked_values(ex1, ex2):
    got = preimages(ex1, 0.85)
    directed = [(p.x, p.side) for p in got if p.side != Side.NONE]
    assert directed == [(0.5, Side.MINUS)]
    plain = sorted(p.x for p in got if p.side == Side.NONE)
    # right-branch solution of 1 - 4x(1-x) = 0.85 (bisection oracle)
    expect = (1 + math.sqrt(0.85)) / 2
    assert plain == pytest.approx([expect], abs=1e-10)

    got0 = preimages(ex1, 0.0)
    assert any(abs(p.x) < 1e-10 and p.side == Side.NONE for p in got0)
    assert any(p.x == 0.5 and p.side == Side.PLUS for p in got0)

    got5 = sorted(p.x for p in preimages(ex2, 0.5))
    expect5 = [(1 - math.sqrt(0.5)) / 2, (1 + math.sqrt(0.5)) / 2]
    assert got5 == pytest.approx(expect5, abs=1e-10)


def test_preimage_eval_roundtrip(ex1, ex3, rng):
    for spec in (ex1, ex3):
        for _ in range(50):
            x = float(rng.uniform(0.01, 0.99))
            if abs(x - 0.5) < 1e-6:
                continue
            y = evaluate(spec, DirectedPoint(x)).x
            pres = [p.x for p in preimages(spec, y)]
            assert min(abs(p - x) for p in pres) < 1e-9


def test_embed_unimodal_formulas():
    L4 = embed_unimodal(logistic(4.0))
    assert L4.left.poly_coefficients() == (0.0, 4.0, -4.0)
    assert L4.right.poly_coefficients() == (1.0, -4.0, 4.0)
    L34 = embed_unimodal(logistic(3.4))
    assert L34.right.poly_coefficients() == (1.0, -3.4, 3.4)
    v0, v1 = critical_values(L34)
    assert v0 == pytest.approx(0.15)
    assert v1 == pytest.approx(0.85)


def test_embed_commutation(rng):
    u = logistic(4.0)
    L = embed_unimodal(u)
    xs = rng.uniform(0.0, 1.0, 1000)
    for x in xs:
        if abs(x - 0.5) < 1e-9:
            continue
        lhs = float(u(evaluate(L, DirectedPoint(float(x))).x))
        rhs = float(u(float(u(x))))
        assert abs(lhs - rhs) < 1e-12


def test_embed_rejects_asymmetric():
    crooked = mc.UnimodalSpec(coefficients=(0.0, 3.9, -4.0))
    with pytest.raises(mc.MapValidationError):
        embed_unimodal(crooked)


def test_minimum_principle_spot_check(ex1, rng):
    # negative Schwarzian: |Df| on a branch subinterval dips below neither
    # endpoint value
    for _ in range(50):
        a, b = sorted(rng.uniform(0.02, 0.47, 2))
        if b - a < 1e-3:
            continue
        interior = np.linspace(a, b, 101)[1:-1]
        dmin = min(abs(derivative(ex1, float(x))) for x in interior)
        edge = min(abs(derivative(ex1, a)), abs(derivative(ex1, b)))
        assert dmin > edge - 1e-9


def test_config_roundtrip(tmp_path, ex3):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(ex3.to_dict()))
    back = mc.load_map(str(path))
    assert back == ex3


def test_builtin_names():
    for name in mc.BUILTIN_NAMES:
        spec = mc.builtin_map(name)
        assert validate_map(spec).is_lorenz
    with pytest.raises(KeyError):
        mc.builtin_map("no-such-map")


def _power_pair(c=0.4, a=(0.85, 0.8), alpha=(3.0, 2.2)):
    return mc.LorenzMapSpec(
        c=c,
        left=mc.BranchSpec("power_form", "left", a=a[0], alpha=alpha[0]),
        right=mc.BranchSpec("power_form", "right", a=a[1], alpha=alpha[1]),
        name="power-pair",
    )


def test_kernel_cache_keeps_spec_identity():
    import pickle

    cached = mc.builtin_map("paper-example")
    y = mc.eval_array(cached, np.linspace(0.0, 1.0, 11))
    assert "_kernels" in cached.__dict__
    fresh = mc.builtin_map("paper-example")
    assert "_kernels" not in fresh.__dict__
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh) and cached.to_dict() == fresh.to_dict()
    back = pickle.loads(pickle.dumps(cached))
    assert back == cached and hash(back) == hash(cached)
    assert _same_bits(mc.eval_array(back, np.linspace(0.0, 1.0, 11)), y)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all((a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))))


def _cubic_map():
    return mc.LorenzMapSpec(
        c=0.45,
        left=mc.BranchSpec("polynomial", "left", coefficients=(0.0, 0.4, 3.1, -2.9)),
        right=mc.BranchSpec("polynomial", "right", coefficients=(0.2, -1.1, 2.6, -0.7)),
        name="cubic",
    )


def _quartic_map():
    # u = 3.2 t + 1.6 t^2 with t = x (1 - x), symmetric about 1/2
    return embed_unimodal(mc.UnimodalSpec((0.0, 3.2, -1.6, -3.2, 1.6), name="quartic"))


def test_eval_array_matches_apply_raw(ex1, ex2, ex3, rng):
    for spec in (ex1, ex2, ex3, _cubic_map(), _quartic_map()):
        c, tol = spec.c, spec.tolerance
        ball = c + tol * np.linspace(-1.0, 1.0, 41)
        edge = [np.nextafter(c - tol, 0.0), np.nextafter(c + tol, 1.0), c - 2 * tol, c + 2 * tol]
        xs = np.concatenate([rng.uniform(0.0, 1.0, 2000), ball, edge, [0.0, 1.0, np.nan]])
        ys = mc.eval_array(spec, xs)
        for x, y in zip(xs.tolist(), ys.tolist()):
            if abs(x - c) <= tol:
                assert math.isnan(y)
                with pytest.raises(mc.UndirectedCriticalEvaluation):
                    mc.apply_raw(spec, x)
            else:
                assert _same_bits(mc.apply_raw(spec, x), y), x
        assert np.isnan(mc.eval_array(spec, np.full(3, np.nan))).all()


def test_power_form_array_kernels_quiet():
    # the unselected branch sees a negative radicand; that must neither warn
    # nor change the selected values, computed here by the plain formulas
    import warnings

    for spec in (_power_pair(), _power_pair(0.45, (0.97, 0.9), (2.7, 1.9))):
        c = spec.c
        (al, ar), (pl, pr) = (spec.left.a, spec.right.a), (spec.left.alpha, spec.right.alpha)
        xs = np.concatenate([np.linspace(0.0, 1.0, 1001), [c, c - 1e-11, c + 1e-11, np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = mc.eval_array(spec, xs)
            d = mc.deriv_array(spec, xs)
        with np.errstate(invalid="ignore"):
            ul, ur = (c - xs) / c, (xs - c) / (1.0 - c)
            want_y = np.clip(np.where(xs < c, al * (1.0 - ul**pl), (1.0 - ar) + ar * ur**pr), 0.0, 1.0)
            want_y[np.abs(xs - c) <= spec.tolerance] = np.nan
            want_d = np.where(xs < c, al * pl / c * ul ** (pl - 1.0), ar * pr / (1.0 - c) * ur ** (pr - 1.0))
        assert _same_bits(y, want_y)
        assert _same_bits(d, want_d)


def _horner_loop(rev, x):
    # the scalar polynomial kernel before the closed form, kept as the
    # reference: the loop over the coefficients, highest degree first
    acc = 0.0
    for coef in rev:
        acc = acc * x + coef
    return acc


def test_scalar_kernels_match_horner_loop(rng):
    # equal bit for bit at every finite x; a leading coefficient -0.0 of
    # degree >= 1 (never made by polyder, only given) is the one exception:
    # the loop's 0.0 * x + r0 turns it into +0.0, while the scalar kernel
    # follows the array kernel's x * r0
    smallest_normal = 2.2250738585072014e-308
    xs = rng.uniform(0.0, 1.0, 200).tolist() + [
        0.0, -0.0, 1.0, 5e-324, 1e-310, math.nextafter(smallest_normal, 0.0), smallest_normal]
    for degree in range(7):
        for lead in ("random", "zero", "negative", "minus-zero"):
            cs = rng.normal(0.0, 3.0, degree + 1)
            if lead == "zero":
                cs[-1] = 0.0
            elif lead == "negative":
                cs[-1] = -abs(cs[-1]) - 1.0
            elif lead == "minus-zero":
                cs[-1] = -0.0
            scalars, arrays = mc._poly_funcs(tuple(cs))
            for order, (f, fa) in enumerate(zip(scalars, arrays)):
                d = np.polynomial.polynomial.polyder(cs, order)
                rev = tuple(reversed(d.tolist())) if len(d) else (0.0,)
                assert _same_bits([f(x) for x in xs], fa(np.array(xs))), (degree, lead, order)
                if lead == "minus-zero" and len(rev) > 1:
                    continue
                for x in xs:
                    assert _same_bits(f(x), _horner_loop(rev, x)), (degree, lead, order, x)


def test_clamp_matches_min_max():
    # the left branch -0.0 * x + y is y bit for bit at x > 0; the right one
    # sends 0.75 to 0.25, so the walk 0.75, 0.25, ... takes its own step at
    # 0.25 and apply_raw steps from 0.25 alike
    from lorenzlab.orbits import orbit_list

    for y in (math.nan, 0.0, -0.0, math.inf, -math.inf, -1e-300, math.nextafter(1.0, 2.0), 0.25, 1.0):
        want = min(max(y, 0.0), 1.0)
        spec = mc.LorenzMapSpec(
            c=0.5,
            left=mc.BranchSpec("polynomial", "left", coefficients=(y, -0.0)),
            right=mc.BranchSpec("polynomial", "right", coefficients=(0.25, -0.0)),
        )
        # the second derivative kernel of a non-finite constant is NaN
        with np.errstate(invalid="ignore"):
            assert _same_bits(mc.apply_raw(spec, 0.25), want), y
        assert _same_bits(orbit_list(spec, 0.75, 3), [0.75, 0.25, want]), y
