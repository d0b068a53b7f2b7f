import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    quadratic_pair,
    schwarzian,
    validate_map,
)
from lorenzlab.orbits import orbit_list


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


def test_non_finite_parameters_are_refused():
    # every construction path reads its numbers through one finite gate
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(mc.MapValidationError, match="finite"):
            mc.quadratic_pair(bad, 3.0)
        with pytest.raises(mc.MapValidationError, match="finite"):
            mc.quadratic_pair(3.4, bad)
        with pytest.raises(mc.MapValidationError, match="finite"):
            mc.logistic(bad)


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


def _power_pair(c=0.4, a=(0.85, 0.8), alpha=(3.0, 2.2), tolerance=1e-10):
    return mc.LorenzMapSpec(
        c=c,
        left=mc.BranchSpec("power_form", "left", a=a[0], alpha=alpha[0]),
        right=mc.BranchSpec("power_form", "right", a=a[1], alpha=alpha[1]),
        name="power-pair",
        tolerance=tolerance,
    )


@pytest.mark.parametrize(
    "spec",
    [embed_unimodal(logistic(4.5)), _power_pair(c=0.5, a=(1.2, 1.2), alpha=(2, 2))],
    ids=["logistic4.5-embed", "power-overshoot"],
)
def test_directed_step_at_break_is_the_critical_value(spec, tmp_path):
    # both branch values at c lie outside [0, 1] (1.125 and -0.125, 1.2 and
    # -0.2): validate_map refuses the map and names both values; the
    # critical values are clamped, and the directed step from c clamps the
    # same way
    from lorenzlab.cli import main

    rep = validate_map(spec)
    assert not rep.is_lorenz and not rep.ok
    for limit, v in (("f(c-)", mc.branch_value(spec, "left", spec.c)), ("f(c+)", mc.branch_value(spec, "right", spec.c))):
        assert f"{limit}={v} outside [0, 1]" in rep.notes
    v0, v1 = critical_values(spec)
    assert (v0, v1) == (0.0, 1.0)
    assert mc.apply_raw(spec, spec.c, Side.MINUS) == v1
    assert mc.apply_raw(spec, spec.c, Side.PLUS) == v0
    assert evaluate(spec, DirectedPoint(spec.c, Side.MINUS)).x == v1
    path = tmp_path / "map.json"
    path.write_text(json.dumps(spec.to_dict()))
    for side in ("minus", "plus"):
        out = tmp_path / f"{side}.csv"
        argv = ["orbit", "--map", str(path), "--x0", repr(spec.c), "--side", side, "--steps", "3", "--out", str(out)]
        assert main(argv) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 4 and all(0.0 <= float(r[1]) <= 1.0 for r in rows)
        assert float(rows[1][1]) == (v1 if side == "minus" else v0)


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
        # a scalar steps to a 0-d array
        assert mc.eval_array(spec, xs[0]).shape == () and _same_bits(mc.eval_array(spec, xs[0]), ys[0])


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
            scalars, arrays, horner = mc._poly_funcs(tuple(cs))
            for order, (f, fa) in enumerate(zip(scalars, arrays)):
                d = np.polynomial.polynomial.polyder(cs, order)
                rev = tuple(reversed(d.tolist())) if len(d) else (0.0,)
                if order == 0:
                    # the tuple the Stepper runs Horner on
                    assert _bits(horner) == _bits(rev), (degree, lead)
                assert _same_bits([f(x) for x in xs], fa(np.array(xs))), (degree, lead, order)
                if lead == "minus-zero" and len(rev) > 1:
                    continue
                for x in xs:
                    assert _same_bits(f(x), _horner_loop(rev, x)), (degree, lead, order, x)


def test_clamp_matches_min_max():
    # the left branch -0.0 * x + y is y bit for bit at x > 0; the right one
    # sends 0.75 to 0.25, so the walk 0.75, 0.25, ... takes its own step at
    # 0.25 and apply_raw steps from 0.25 alike
    for y in (math.nan, 0.0, -0.0, math.inf, -math.inf, -1e-300, math.nextafter(1.0, 2.0), 0.25, 1.0):
        want = min(max(y, 0.0), 1.0)
        spec = mc.LorenzMapSpec(
            c=0.5,
            left=mc.BranchSpec("polynomial", "left", coefficients=(0.0, -0.0)),
            right=mc.BranchSpec("polynomial", "right", coefficients=(0.25, -0.0)),
        )
        # a spec refuses a non-finite coefficient, so the kernels of the
        # left branch y - 0.0 * x go into its kernel cache directly (the
        # second derivative kernel of a non-finite constant is NaN)
        with np.errstate(invalid="ignore"):
            mc._kernels(spec)["left"] = mc._poly_funcs((y, -0.0))
        assert _same_bits(mc.apply_raw(spec, 0.25), want), y
        assert _same_bits(orbit_list(spec, 0.75, 3), [0.75, 0.25, want]), y


@pytest.mark.parametrize(
    "other",
    [
        mc.quadratic_pair(3.5, 3.5, tolerance=1e-9),
        mc.LorenzMapSpec(
            c=0.5,
            left=mc.BranchSpec(kind="power_form", domain_side="left", a=0.9, alpha=2.0),
            right=mc.BranchSpec(kind="power_form", domain_side="right", a=0.9, alpha=2.0),
        ),
        mc.LorenzMapSpec(
            c=0.5,
            left=mc.BranchSpec(kind="quadratic_logistic", domain_side="left", a=3.0),
            right=mc.BranchSpec(kind="polynomial", domain_side="right", coefficients=(1.0, -3.0, 3.0, 0.0)),
        ),
    ],
    ids=["tolerance", "power_form", "coefficient-count"],
)
def test_polynomial_family_refuses_maps_that_cannot_share_a_step(other):
    with pytest.raises(ValueError, match="family shares"):
        mc.Stepper([mc.quadratic_pair(3.5, 3.5), other])


def test_a_family_of_one_power_form_map_steps_by_its_kernels():
    # the family rules bind several maps only: one power_form map is a
    # family, and steps with the bits of its eval_array
    spec = _power_pair()
    x = np.concatenate([np.linspace(0.0, 1.0, 101), [spec.c, np.nan]])
    assert mc.Stepper([spec]).columns(np.zeros(x.size, dtype=int)) == []
    assert _bits(mc.Stepper([spec])(x)) == _bits(mc.eval_array(spec, x))
    assert _bits(mc.Stepper([spec], x.size)(x)) == _bits(reference_step([spec], np.zeros(x.size, dtype=int), x))


def _bits(a) -> list[int]:
    # NaN payloads and signs included
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


def test_horner_into_out_matches_horner(rng):
    x = np.concatenate([rng.uniform(-1.0, 2.0, 50), [0.0, -0.0, 1.0, np.nan, -np.nan]])
    for degree in range(5):
        rev = tuple(rng.normal(0.0, 3.0, degree + 1).tolist())
        columns = [np.full(x.size, r) for r in rev]
        for coefficients in (rev, columns):
            out = np.empty_like(x)
            assert mc._horner(x, coefficients, out=out) is out
            assert _bits(out) == _bits(mc._horner(x, coefficients))


def reference_step(specs, who, x, tol=None):
    """Entry k stepped by map specs[who[k]] as eval_array stepped one map:
    np.where on both branch kernels, the clamp to [0, 1], and NaN where
    |x - c| <= tol (the map's tolerance by default)."""
    y = np.empty_like(x)
    for i, spec in enumerate(specs):
        ker, on = mc._kernels(spec), who == i
        xs = x[on]
        with np.errstate(invalid="ignore"):
            v = np.where(xs < spec.c, ker["left"][1][0](xs), ker["right"][1][0](xs))
        v = np.minimum(np.maximum(v, 0.0), 1.0)
        v[np.abs(xs - spec.c) <= (spec.tolerance if tol is None else tol)] = np.nan
        y[on] = v
    return y


def _polynomial_family(pairs, tolerance):
    # random quadratic pairs (beyond 4 a branch leaves [0, 1], so the clamp
    # shows), the logistic embeds of 3.2 and 4, and a pair whose left
    # coefficients are 0.0 and -0.0, at one tolerance
    specs = [mc.quadratic_pair(a, b) for a, b in pairs]
    specs += [embed_unimodal(logistic(a)) for a in (3.2, 4.0)] + [mc.quadratic_pair(0.0, 3.0)]
    return [dataclasses.replace(s, tolerance=tolerance) for s in specs]


TOLERANCES = st.sampled_from([1e-10, 1e-3])
STEP_SPECS = st.one_of(
    st.builds(quadratic_pair, st.floats(2.5, 4.0), st.floats(2.5, 4.0), tolerance=TOLERANCES),
    st.builds(
        _power_pair,
        st.floats(0.3, 0.7),
        # a beyond 1 takes the branches out of [0, 1], so the clamp shows
        st.tuples(st.floats(0.6, 1.2), st.floats(0.6, 1.2)),
        st.tuples(st.floats(1.2, 4.0), st.floats(1.2, 4.0)),
        TOLERANCES,
    ),
)
FAMILIES = st.one_of(
    STEP_SPECS.map(lambda spec: [spec]),
    st.builds(
        _polynomial_family, st.lists(st.tuples(st.floats(2.5, 4.5), st.floats(2.5, 4.5)), min_size=1, max_size=5),
        TOLERANCES,
    ),
)


@pytest.mark.parametrize("blend_size", [0, 1 << 20], ids=["bit-blend", "np.where"])
@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    specs=FAMILIES,
    xs=st.lists(st.floats(0.0, 1.0), max_size=40),
    seed=st.integers(0, 2**32 - 1),
    owned=st.booleans(),
    dead_rule=st.booleans(),
    cuts=st.lists(st.tuples(st.integers(0, 60), st.booleans()), min_size=1, max_size=6),
)
def test_stepper_matches_the_np_where_step_bit_for_bit(blend_size, specs, xs, seed, owned, dead_rule, cuts):
    # each entry by its own map, through several consecutive steps: the
    # previous result fed back (so owned output arrays alternate), with the
    # array cut to fewer points between steps, a view of the last result or
    # a fresh copy, as after a merge. The edges of the dead ball, their
    # float neighbours, signed zeros and NaN of either sign are inputs;
    # without the dead rule the select shows at c itself too (x - c is
    # +0.0 there, so the right branch)
    c, tol = specs[0].c, specs[0].tolerance
    edges = [c, c - tol, c + tol]
    points = xs + edges + [math.nextafter(e, t) for e in edges for t in (-math.inf, math.inf)]
    x = np.array(points + [c - tol / 2, c - 2 * tol, c + 2 * tol, 0.0, -0.0, 1.0, np.nan, -np.nan])
    who = np.random.default_rng(seed).integers(0, len(specs), x.size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "BLEND_SIZE", blend_size)
        step = mc.Stepper(specs, x.size if owned else None)
        if not dead_rule:
            step.tolerance = -math.inf
        if len(specs) == 1 and dead_rule:
            assert _bits(mc.eval_array(specs[0], x)) == _bits(reference_step(specs, who, x))
        for size, fresh in cuts:
            held = _bits(x)
            y = step(x, *step.columns(who))
            # the input, the previous result, is left as it was
            assert _bits(x) == held
            assert _bits(y) == _bits(reference_step(specs, who, x, None if dead_rule else -math.inf))
            n = max(1, min(size, y.size))
            x, who = y[:n], who[:n]
            if fresh:
                x = x.copy()


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    spec=STEP_SPECS,
    xs=st.lists(st.floats(0.0, 1.0), max_size=40),
    cuts=st.lists(st.tuples(st.integers(0, 60), st.booleans()), min_size=1, max_size=6),
)
def test_array_step_matches_eval_array_bit_for_bit(spec, xs, cuts):
    # one map on owned work arrays through the bit blend, against the fresh
    # np.where step of eval_array: several consecutive steps, the previous
    # result fed back (so the two output arrays alternate), cut to fewer
    # points between steps, a view of the last result or a fresh copy
    c, tol = spec.c, spec.tolerance
    edges = [c, c - tol, c + tol]
    points = xs + edges + [math.nextafter(e, t) for e in edges for t in (-math.inf, math.inf)]
    x = np.array(points + [0.0, -0.0, 1.0, np.nan, -np.nan])
    with pytest.MonkeyPatch.context() as mp:
        step = mc.Stepper([spec], x.size)
        mp.setattr(mc, "BLEND_SIZE", 0)
        for size, fresh in cuts:
            held = _bits(x)
            y = step(x)
            # the input, the previous result, is left as it was
            assert _bits(x) == held
            mp.setattr(mc, "BLEND_SIZE", 1 << 20)
            assert _bits(y) == _bits(mc.eval_array(spec, x))
            mp.setattr(mc, "BLEND_SIZE", 0)
            x = y[: max(1, min(size, y.size))]
            if fresh:
                x = x.copy()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(spec=STEP_SPECS, xs=st.lists(st.floats(0.0, 1.0), max_size=20))
def test_array_step_selects_as_np_where_without_the_dead_rule(spec, xs):
    # with no dead ball around c, the bit blend picks np.where's branch at
    # c itself too: x - c is +0.0 there, so the right branch
    c = spec.c
    x = np.array(xs + [c, math.nextafter(c, 0.0), math.nextafter(c, 1.0), 0.0, -0.0, 1.0, np.nan])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "BLEND_SIZE", 0)
        step = mc.Stepper([spec], x.size)
        step.tolerance = -math.inf
        got = step(x)
    assert _bits(got) == _bits(reference_step([spec], np.zeros(x.size, dtype=int), x, -math.inf))


def _quartic_embed(a):
    # u(x) = a (1 - (1 - 2x)^4) is symmetric and unimodal: an embedding with
    # two quartic branches (beyond a = 1 they leave [0, 1], so the clamp shows)
    return embed_unimodal(mc.UnimodalSpec((0.0, 8 * a, -24 * a, 32 * a, -16 * a), name=f"quartic{a:g}"))


def _one_tolerance(specs, tolerance):
    return [dataclasses.replace(s, tolerance=tolerance) for s in specs]


QUADRATIC_MAPS = st.one_of(
    st.builds(quadratic_pair, st.floats(2.5, 4.5), st.floats(2.5, 4.5)),
    st.builds(lambda a: embed_unimodal(logistic(a)), st.floats(2.5, 4.5)),
)
# families of one to five polynomial maps with one coefficient count per side
WALK_FAMILIES = st.builds(
    _one_tolerance,
    st.one_of(
        st.lists(QUADRATIC_MAPS, min_size=1, max_size=5),
        st.lists(st.builds(_quartic_embed, st.floats(0.6, 1.1)), min_size=1, max_size=5),
    ),
    TOLERANCES,
)


@pytest.mark.parametrize("blend_size", [0, 1 << 20], ids=["bit-blend", "np.where"])
@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    specs=WALK_FAMILIES,
    xs=st.lists(st.floats(0.0, 1.0), max_size=30),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 60),
    owned=st.booleans(),
)
def test_stepper_steps_the_walkers_bits(blend_size, specs, xs, seed, k, owned):
    # a row of starts, each stepped k times by its own map through the
    # Stepper, the result fed back each step: entry by entry the points of
    # the scalar walker (orbit_list) bit for bit while its walk lasts, and
    # NaN from the step after it lands within tolerance of c. The start c
    # lands at once, c - tol too, and the float after c + tol does not
    c, tol = specs[0].c, specs[0].tolerance
    x = np.array(xs + [c, c - tol, math.nextafter(c + tol, 1.0)])
    who = np.random.default_rng(seed).integers(0, len(specs), x.size)
    walks = [orbit_list(specs[i], x0, k + 1) for i, x0 in zip(who, x.tolist())]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "BLEND_SIZE", blend_size)
        step = mc.Stepper(specs, x.size if owned else None)
        columns = step.columns(who)
        y, rows = x, [x]
        for _ in range(k):
            y = step(y, *columns)
            rows.append(y.copy())
    got = np.array(rows)
    for e, walk in enumerate(walks):
        name = specs[who[e]].name
        assert _bits(got[: len(walk), e]) == _bits(walk), (e, name)
        assert np.isnan(got[len(walk) :, e]).all(), (e, name)
