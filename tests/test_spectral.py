import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzlab import (
    Analysis,
    Budgets,
    classify_attractor,
    embed_unimodal,
    entropy_estimate,
    find_periodic_points,
    logistic,
    omega0,
    quadratic_pair,
)
from lorenzlab.map_core import Side, apply_raw, critical_values
from lorenzlab.spectral import _certified_core, stratum_blocks
from lorenzlab.renorm import find_renormalizations
from lorenzlab.return_maps import interval_side, push_interval
from known_points import A3, B3, P_CYCLE, Q_CYCLE


def test_omega0_four_cases(ex1, ex2, ex3):
    assert omega0(ex1) == "{1}"
    assert omega0(ex2) == "full_interval"
    assert omega0(ex3) == "{0,1}"
    assert omega0(quadratic_pair(4.0, 3.4)) == "{0}"


def test_decompose_paper_pair(dec1):
    assert dec1.n_f == 1
    assert dec1.omega0 == "{1}"
    assert dec1.final_class.kind == "periodic_attractor"
    res = dec1.strata[0].resolution
    cells = set(dec1.strata[0].recurrent_cells)
    for p in (P_CYCLE, Q_CYCLE):
        assert min(int(p * res), res - 1) in cells


def test_decompose_full_map(dec2):
    assert dec2.n_f == 0
    assert len(dec2.strata) == 1
    assert dec2.final_class.kind == "interval_cycle"
    assert dec2.strata[0].transitive_probe is True
    assert len(dec2.strata[0].recurrent_cells) >= 0.95 * dec2.strata[0].resolution


def test_decompose_embedded_pair(dec3):
    assert dec3.final_class.kind == "periodic_attractor"
    assert dec3.omega0 == "{0,1}"
    # the outer stratum carries exactly the boundary 2-cycle
    s1 = dec3.strata[0]
    res = s1.resolution
    assert set(s1.recurrent_cells) == {
        min(int(A3 * res), res - 1),
        min(int(B3 * res), res - 1),
    }
    assert s1.transitive_probe is True
    # the deepest stratum sits around the attracting 4-cycle
    deep = dec3.strata[-1]
    centers = [(i + 0.5) / deep.resolution for i in deep.recurrent_cells]
    a = 3.4
    x1 = ((a + 1) - math.sqrt((a + 1) * (a - 3))) / (2 * a)
    assert any(abs(v - x1) < 2.0 / deep.resolution for v in centers)


def test_strata_disjoint_modulo_periodic(dec1, dec2, dec3):
    for dec in (dec1, dec2, dec3):
        assert not any("non-periodic cells" in n for n in dec.notes)


def test_trap_chain_invariance(ex3, dec3, rng):
    for s in dec3.strata:
        K = s.K_n
        for _ in range(100):
            k = int(rng.integers(0, len(K)))
            x = float(rng.uniform(*K[k]))
            for _ in range(1000):
                if abs(x - ex3.c) <= 1e-10:
                    break
                x = apply_raw(ex3, x, Side.NONE)
                if not any(lo - 1e-9 <= x <= hi + 1e-9 for (lo, hi) in K):
                    raise AssertionError(f"left K_{s.n} at {x}")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(3.0, 4.0), st.floats(3.0, 4.0))
def test_trapping_regions_and_core_are_invariant(a_left, a_right):
    """One step maps each component of a trapping level, split at c where
    it straddles c, into one component of that level, and each half of the
    certified core into the core."""
    spec = quadratic_pair(a_left, a_right)
    c = spec.c
    for level in Analysis(spec, Budgets(max_period=8)).trapping[0]:
        for iv in level:
            for piece in [iv] if interval_side(spec, iv) else [(iv[0], c), (c, iv[1])]:
                u, v = push_interval(spec, piece, 1)
                assert any(lo - 1e-9 <= u and v <= hi + 1e-9 for lo, hi in level), (piece, (u, v), level)
    core = _certified_core(spec)
    if core is not None:
        for piece in ((core[0], c), (c, core[1])):
            u, v = push_interval(spec, piece, 1)
            assert core[0] <= u and v <= core[1], (piece, (u, v), core)


def test_stratum_blocks_outer(ex3, an3):
    sb = stratum_blocks(an3, 1)
    assert sb.minimal_orbit.period == 2
    assert sb.x0 == pytest.approx((A3, B3), abs=1e-9)
    assert sb.blocks[0] == sb.x0
    assert sb.x0[0] < ex3.c < sb.x0[1]
    assert sb.overlaps_ok
    assert len(sb.blocks) >= 1
    # every later block maps into the central one after its recorded steps
    from lorenzlab.return_maps import push_interval

    for iv, s in zip(sb.blocks[1:], sb.return_steps[1:]):
        img = push_interval(ex3, iv, s)
        assert img is not None
        assert img == pytest.approx(sb.x0, abs=1e-6)


def test_stratum_blocks_overlap_at_most_point(an3):
    sb = stratum_blocks(an3, 1)
    for i in range(len(sb.blocks)):
        for j in range(i + 1, len(sb.blocks)):
            lo = max(sb.blocks[i][0], sb.blocks[j][0])
            hi = min(sb.blocks[i][1], sb.blocks[j][1])
            assert hi - lo <= 1e-9


def test_analysis_n_f(an1, an2, an3, dec1, dec2, dec3):
    # logistic4-embed: omega_0 is the full interval, so there are no strata
    assert an2.n_f == 0
    assert an1.n_f == len(an1.seq.chain()) + 1
    assert (an1.n_f, an2.n_f, an3.n_f) == (dec1.n_f, dec2.n_f, dec3.n_f)


def test_budgets_from_dict_integers_only():
    b = Budgets.from_dict({"max_period": 8, "horizon": 2000, "seed": 0})
    assert (b.max_period, b.horizon, b.seed) == (8, 2000, 0)
    for bad in ({"max_period": 8.9}, {"max_depth": True}, {"samples": 1e4}, {"seed": "3"}, {"horizon": None}):
        with pytest.raises(ValueError, match="must be an integer"):
            Budgets.from_dict(bad)


def test_classify_examples(an1, an2, an3):
    assert classify_attractor(an1).kind == "periodic_attractor"
    assert classify_attractor(an2).kind == "interval_cycle"
    cls3 = classify_attractor(an3)
    assert cls3.kind == "periodic_attractor"
    assert cls3.evidence["orbit"]["period"] == 4


def test_classify_solenoid_candidate():
    spec = embed_unimodal(logistic(3.569945671870944))
    budgets = Budgets(max_period=16, max_depth=3)
    cls = classify_attractor(Analysis(spec, budgets))
    assert cls.kind == "solenoid"
    assert cls.confidence == "depth-capped"


def test_classify_nonregular_case():
    spec = embed_unimodal(logistic(3.2))
    cls = classify_attractor(Analysis(spec, Budgets(max_period=8)))
    assert cls.kind == "periodic_attractor"


def test_entropy_bounds(ex1, ex2, ex3):
    for spec in (ex1, ex2, ex3):
        h = entropy_estimate(spec, 20_000)
        assert h <= math.log(2.0) + 2.0 / 20
    assert entropy_estimate(ex1, 100_000) <= 0.05
    assert entropy_estimate(ex2, 100_000) >= 0.6


def test_entropy_attracting_four_cycle(ex3):
    h = entropy_estimate(ex3, 50_000)
    # four itinerary phases of the 4-cycle
    assert h <= math.log(4.0) / 20 + 1e-9


def test_periodic_density_on_attractor(ex2, dec2):
    # on the interval-cycle attractor, every recurrent cell at coarse
    # resolution holds a periodic point of period <= 16
    catalog = find_periodic_points(ex2, 16, 1 << 17)
    res = 1 << 8
    cells = {min(int(p * res), res - 1) for r in catalog for p in r.points}
    coarse = {int(i * res // dec2.strata[0].resolution) for i in dec2.strata[0].recurrent_cells}
    missing = coarse - cells
    assert not missing


def test_solenoid_entropy_bound():
    # the refinement is a reported bound on the attractor entropy; the
    # finite-time word count still sees slow transients at this parameter,
    # so only the universal log-2 bound is asserted against the estimate
    from lorenzlab.spectral import solenoid_entropy_bound

    spec = embed_unimodal(logistic(3.569945671870944))
    seq = find_renormalizations(spec, 16, 3, catalog=find_periodic_points(spec, 16))
    bound = solenoid_entropy_bound(seq.chain())
    assert bound == pytest.approx(math.log(2.0) / 8)
    h = entropy_estimate(spec, 20_000)
    assert h <= math.log(2.0) + 2.0 / 20
    assert h < 0.35  # far below a chaotic word count even with transients


def test_experimental_annuli(dec3):
    assert dec3.experimental_annuli
    level = dec3.experimental_annuli[0]
    # ring between the return images of the critical values and the deepest
    # interval
    assert level[0][0] == pytest.approx(0.4335, abs=1e-9)
    assert level[-1][1] == pytest.approx(0.5665, abs=1e-9)


def test_wild_is_never_asserted(an1, an2, an3):
    for a in (an1, an2, an3):
        assert classify_attractor(a).kind != "wild_candidate"


def test_build_report_computes_each_object_once(monkeypatch):
    # a one-level chain: the catalog, the sequence and the trapping region
    # of the level are each computed once for the whole report
    from lorenzlab import cli, orbits, periodic, renorm, return_maps, spectral

    spec = embed_unimodal(logistic(3.6))
    calls = {"find_periodic_points": 0, "find_renormalizations": 0, "trapping_region": 0}
    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        original = getattr(spectral, name)
        for mod in (cli, orbits, periodic, renorm, return_maps, spectral):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting(name, original))
    report = cli.build_report(spec, Budgets())
    levels = len(report["renorm"]["chain"]) + (report["renorm"]["j_max"] is not None)
    assert levels == 1
    assert calls == {"find_periodic_points": 1, "find_renormalizations": 1, "trapping_region": levels}


def test_decompose_computes_stratum_blocks_once_per_level(an3, dec3, monkeypatch):
    from lorenzlab import spectral

    levels = []
    original = spectral.stratum_blocks

    def counted(a, s):
        levels.append(s)
        return original(a, s)

    monkeypatch.setattr(spectral, "stratum_blocks", counted)
    assert spectral.decompose(an3).to_dict() == dec3.to_dict()
    assert levels and len(levels) == len(set(levels))


@pytest.mark.parametrize(
    "spec",
    [embed_unimodal(logistic(3.7)), quadratic_pair(3.75, 3.0), quadratic_pair(4.0, 3.0)],
    ids=lambda spec: spec.name,
)
def test_classify_covers_the_core_without_chain(spec):
    # a chaotic map with no renormalization has its attractor in the core
    # [f(c+), f(c-)]: the near-critical orbits are measured against it, not
    # against [0, 1]
    a = Analysis(spec, Budgets())
    assert not a.seq.chain()
    cls = classify_attractor(a)
    assert cls.kind == "interval_cycle"
    lo, hi = _certified_core(spec)
    assert all(lo <= u < v <= hi for (u, v) in cls.evidence["interval_cycle_support"])


def ref_coverage_probe(spec, seed_interval, target_cells, resolution, horizon, component_cap=4096, stop_fraction=0.95):
    """spectral._coverage_probe before its knobs became constants, verbatim."""
    from lorenzlab.return_maps import push_interval

    if not target_cells:
        return 1.0
    covered = set()
    comps = [seed_interval]
    tol = spec.tolerance

    def mark(iv):
        i0 = max(int(iv[0] * resolution), 0)
        i1 = min(int(iv[1] * resolution), resolution - 1)
        for i in range(i0, i1 + 1):
            if i in target_cells:
                covered.add(i)

    mark(seed_interval)
    for _ in range(horizon):
        if len(covered) / len(target_cells) >= stop_fraction:
            break
        nxt = []
        for (u, v) in comps:
            if u + tol < spec.c < v - tol:
                pieces = [(u, spec.c), (spec.c, v)]
            else:
                pieces = [(u, v)]
            for (a, b) in pieces:
                img = push_interval(spec, (a, b), 1)
                if img is not None and img[1] - img[0] > tol:
                    nxt.append(img)
                    mark(img)
        nxt.sort()
        merged = []
        for iv in nxt:
            if merged and iv[0] <= merged[-1][1] + tol:
                merged[-1] = (merged[-1][0], max(merged[-1][1], iv[1]))
            else:
                merged.append(iv)
        comps = merged[:component_cap]
        if not comps:
            break
    return len(covered) / len(target_cells)


def test_coverage_probe_matches_reference(ex1, ex2, ex3):
    from lorenzlab import spectral

    rng = np.random.default_rng(7)
    for spec in (ex1, ex2, ex3):
        for res in (64, 1024):
            for targets in (set(range(res)), set(rng.choice(res, res // 8, replace=False).tolist()), set()):
                for ci in (0, res // 3, res // 2, res - 1):
                    seed = (ci / res, (ci + 1) / res)
                    for horizon in (0, 1, 5, 200):
                        got = spectral._coverage_probe(spec, seed, targets, res, horizon)
                        assert got == ref_coverage_probe(spec, seed, targets, res, horizon, stop_fraction=0.9)


@pytest.mark.parametrize(
    "spec",
    [
        embed_unimodal(logistic(1 + math.sqrt(5))),
        embed_unimodal(logistic(3.4985616993277016)),
        quadratic_pair(1 + math.sqrt(5), 1 + math.sqrt(5)),
    ],
    ids=lambda spec: spec.name,
)
def test_superattracting_cycle_is_periodic(spec):
    # centres of hyperbolic components: both critical orbits land within
    # tolerance of c long before the late window, and the landing point is
    # then their one late point
    from lorenzlab.orbits import critical_orbit

    budgets = Budgets()
    for i in (0, 1):
        orb = critical_orbit(spec, i, budgets.horizon + 1)
        assert len(orb) < budgets.horizon // 2 and abs(orb[-1] - spec.c) <= spec.tolerance
    cls = classify_attractor(Analysis(spec, budgets))
    assert cls.kind in ("periodic_attractor", "super_attractor")
    assert cls.evidence["critical_orbits_absorbed"] == [True, True]


def test_classify_walks_each_critical_orbit_once(monkeypatch):
    # step (1) tests every candidate cycle against the same two walks, each
    # read once to the horizon
    from lorenzlab import spectral
    from lorenzlab.periodic import PeriodicOrbitRecord

    a = Analysis(embed_unimodal(logistic(3.7)), Budgets(max_period=8))
    a.seq  # the chain of the true catalog
    # three made-up attracting candidates below the core [v0, v1] = [0.075,
    # 0.925], where no late point lies
    a.catalog = a.catalog + [PeriodicOrbitRecord([x], 1, 0.5, "attracting", "0") for x in (0.01, 0.02, 0.03)]
    reads = []
    read = spectral.critical_orbit

    def counted(spec, i, n):
        reads.append((i, n))
        return read(spec, i, n)

    monkeypatch.setattr(spectral, "critical_orbit", counted)
    cls = classify_attractor(a)
    assert "orbit" not in cls.evidence  # no candidate absorbed both walks
    assert reads == [(0, a.budgets.horizon + 1), (1, a.budgets.horizon + 1)]


# the maps whose classification reaches step (3), the rotation probe: the
# three cherry cells of the 10 x 10 grid np.linspace(3, 4, 10) on [3, 4]^2
# at default budgets, and the bench scan-corner cell (3.375, 3.125) at
# max_period 8, which has no chain
GRID = np.linspace(3, 4, 10)
ROTATION_CELLS = [
    (float(GRID[2]), float(GRID[4]), {}),
    (float(GRID[4]), float(GRID[5]), {}),
    (float(GRID[5]), float(GRID[4]), {}),
    (3.375, 3.125, {"max_period": 8}),
]


def _grid_rotation(spec, J, horizon, x0, n):
    """Reference: the return times of the two branches next to c of the
    grid return map to J, and the rotation number they give."""
    from lorenzlab import first_return_map, rotation_number

    two = sorted(
        (b for b in first_return_map(spec, J, horizon, 1 << 10).branches if b.touches_c),
        key=lambda b: b.domain[0],
    )
    assert len(two) == 2
    times = (two[0].return_time, two[1].return_time)
    return times, rotation_number(spec, J, times, x0, n)


@pytest.mark.parametrize("a_left, a_right, budgets", ROTATION_CELLS)
def test_rotation_probe_reads_the_certified_record(monkeypatch, a_left, a_right, budgets):
    from lorenzlab import return_maps, spectral

    def no_grid(*args, **kwargs):
        raise AssertionError("classification built a grid return map")

    assert not hasattr(spectral, "first_return_map")
    monkeypatch.setattr(return_maps, "first_return_map", no_grid)
    spec = quadratic_pair(a_left, a_right)
    a = Analysis(spec, Budgets(**budgets))
    got = classify_attractor(a)
    monkeypatch.undo()

    chain = a.seq.chain()
    J = chain[-1].J if chain else (0.0, 1.0)
    record = (chain[-1].period_a, chain[-1].period_b) if chain else (1, 1)
    x0 = spec.c - (J[1] - J[0]) / 1000.0
    times, rot = _grid_rotation(spec, J, a.budgets.horizon, x0, min(a.budgets.horizon, 10_000))
    assert times == record
    assert got.kind == "cherry"
    assert got.evidence["rotation_estimate"] == rot


def _kind_only_matches_full(spec, max_period):
    a = Analysis(spec, Budgets(max_period=max_period))
    full = classify_attractor(a)
    fast = classify_attractor(a, kind_only=True)
    assert fast.kind == full.kind
    # the kind-only evidence never has the fraction
    evidence = dict(full.evidence)
    evidence.pop("critical_cover_fraction", None)
    assert fast.to_dict() == {"kind": full.kind, "confidence": full.confidence, "evidence": evidence}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(2.5, 4.0), st.floats(2.5, 4.0), st.sampled_from([8, 12]))
def test_kind_only_classifies_quadratic_pairs_alike(a_left, a_right, max_period):
    _kind_only_matches_full(quadratic_pair(a_left, a_right), max_period)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(2.5, 4.0), st.sampled_from([8, 12]))
def test_kind_only_classifies_logistic_embeds_alike(a, max_period):
    _kind_only_matches_full(embed_unimodal(logistic(a)), max_period)


def test_kind_only_stops_the_cover_walks_in_the_first_chunk(monkeypatch):
    # step (4) walks c - h and c + h; each full walk is the burn-in plus
    # samples // 2 points. A full cover ends the walks of either call in the
    # first chunk; a cover that stays below 1 (0.9888 on quadpair(3.75, 3))
    # is walked in full by the full call and stops at 0.9 with kind_only
    from lorenzlab import orbits

    budgets = Budgets(max_period=8)
    h = 1.0 / budgets.probe_resolution
    fed = []
    walk = orbits.orbit_chunks

    def counted(spec, x0, n, side=Side.NONE):
        for pts, landed in walk(spec, x0, n, side):
            if x0 in (spec.c - h, spec.c + h):
                fed.append(len(pts))
            yield pts, landed

    monkeypatch.setattr(orbits, "orbit_chunks", counted)
    for spec, full_walk in ((quadratic_pair(4.0, 4.0), False), (quadratic_pair(3.75, 3.0), True)):
        fed.clear()
        full = classify_attractor(Analysis(spec, budgets))
        assert full.kind == "interval_cycle"
        assert (full.evidence["critical_cover_fraction"] == 1.0) != full_walk
        if full_walk:
            assert sum(fed) == 2 * (orbits.OMEGA_BURN_IN + budgets.samples // 2) == 2 * 51_000
        else:
            assert 0 < sum(fed) <= orbits.WALK_CHUNK
        fed.clear()
        fast = classify_attractor(Analysis(spec, budgets), kind_only=True)
        assert fast.kind == "interval_cycle"
        assert 0 < sum(fed) <= orbits.WALK_CHUNK
        assert "critical_cover_fraction" not in fast.evidence
