"""`spectral.entropy_estimate`, which merges bit-equal float orbits during
the burn-in, steps its orbits in place one tile at a time and marks its
words in a table, against the loop that stepped every sample through
`eval_array` and kept every word, kept here as the reference."""

import math
import tracemalloc

import numpy as np
import pytest

from lorenzlab import builtin_map, quadratic_pair, spectral
from lorenzlab.map_core import BUILTIN_NAMES, BranchSpec, LorenzMapSpec, Stepper, eval_array
from lorenzlab.spectral import entropy_estimate


def reference_entropy_estimate(spec, n=20, samples=100_000, rng=None, burn_in=512, windows_per_orbit=32):
    if n > 30:
        raise ValueError("word length capped at 30")
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    if rng is None:
        rng = np.random.default_rng(0)
    m = samples
    L = burn_in + n + windows_per_orbit
    x = rng.uniform(0.0, 1.0, m)
    bits = np.zeros((m, n + windows_per_orbit), dtype=bool)
    alive = np.ones(m, dtype=bool)
    for k in range(L):
        if k >= burn_in:
            bits[:, k - burn_in] = x >= spec.c
        x = eval_array(spec, x)
        alive &= ~np.isnan(x)
        x[~alive] = 0.0  # keep the array clean; dead rows are dropped below
    bits = bits[alive]
    if bits.shape[0] == 0:
        return 0.0
    # rolling n-bit codes across each orbit's window strip
    code = np.zeros(bits.shape[0], dtype=np.uint64)
    for j in range(n):
        code = (code << np.uint64(1)) | bits[:, j].astype(np.uint64)
    words = np.empty((windows_per_orbit, bits.shape[0]), dtype=np.uint64)
    words[0] = code
    mask = np.uint64((1 << n) - 1)
    for k in range(1, windows_per_orbit):
        code = ((code << np.uint64(1)) | bits[:, n + k - 1].astype(np.uint64)) & mask
        words[k] = code
    return math.log(np.unique(words).size) / n


def power_map(c, a, alpha) -> LorenzMapSpec:
    return LorenzMapSpec(
        c=c,
        left=BranchSpec(kind="power_form", domain_side="left", a=a[0], alpha=alpha[0]),
        right=BranchSpec(kind="power_form", domain_side="right", a=a[1], alpha=alpha[1]),
        name="power",
    )


def random_pairs(count: int) -> list:
    rng = np.random.default_rng(3)
    return [quadratic_pair(*(float(v) for v in rng.uniform(3.0, 4.0, 2))) for _ in range(count)]


MAPS = {
    **{f"pair{k}": spec for k, spec in enumerate(random_pairs(6))},
    "pair(4,4)": quadratic_pair(4.0, 4.0),
    "power(2.7,1.9)": power_map(0.45, (0.97, 0.9), (2.7, 1.9)),
    "power(3.0,2.2)": power_map(0.4, (0.85, 0.8), (3.0, 2.2)),
    # orbits die in the tolerance ball of c
    "dying": quadratic_pair(3.4, 4.0, tolerance=1e-3),
}


def same(spec, seed=0, samples=100_000):
    """entropy_estimate against the reference at the module's word length,
    windows and burn-in (which a test may patch)."""
    got = entropy_estimate(spec, samples, rng=np.random.default_rng(seed))
    want = reference_entropy_estimate(
        spec,
        spectral.ENTROPY_WORD_LENGTH,
        samples,
        np.random.default_rng(seed),
        spectral.ENTROPY_BURN_IN,
        spectral.ENTROPY_WINDOWS,
    )
    assert got == want
    return got


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_entropy_matches_reference_on_builtins(name):
    same(builtin_map(name))


@pytest.mark.parametrize("name", sorted(MAPS))
def test_entropy_matches_reference_on_other_maps(name):
    same(MAPS[name], seed=5, samples=10_000)


TILE = spectral.ENTROPY_TILE


@pytest.mark.parametrize("samples", [10_000, TILE, TILE + 1, 3 * TILE - 1])
@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "power(2.7,1.9)"])
def test_entropy_matches_reference_across_tile_edges(name, samples):
    spec = MAPS[name] if name in MAPS else builtin_map(name)
    assert entropy_estimate(spec, samples).hex() == reference_entropy_estimate(spec, samples=samples).hex()


def test_entropy_matches_reference_on_a_power_map_at_full_size():
    same(MAPS["power(2.7,1.9)"])


def test_entropy_zero_when_every_orbit_dies():
    assert same(quadratic_pair(3.4, 4.0, tolerance=0.49), samples=10_000) == 0.0


def test_entropy_zero_when_every_orbit_of_every_tile_dies():
    assert same(quadratic_pair(3.4, 4.0, tolerance=0.49), samples=3 * TILE - 1) == 0.0


class Fixed:
    """An rng whose uniform draw is a given array."""

    def __init__(self, x):
        self.x = x

    def uniform(self, low, high, size):
        assert size == self.x.size
        return self.x.copy()


def test_entropy_with_a_tile_whose_orbits_all_die(monkeypatch):
    # without burn-in the word phase starts on the merge's sorted points:
    # the first tile is the points within tol of c, which all die at the
    # first step, and the rest live in (c + 2 tol, 1)
    monkeypatch.setattr(spectral, "ENTROPY_BURN_IN", 0)
    spec = MAPS["dying"]
    c, tol = spec.c, spec.tolerance
    near = np.linspace(c - 0.9 * tol, c + 0.9 * tol, TILE)
    far = np.random.default_rng(1).uniform(c + 2 * tol, 1.0, 2 * TILE)
    x = np.random.default_rng(2).permutation(np.concatenate([near, far]))
    assert np.isnan(eval_array(spec, np.sort(x)[:TILE])).all()
    got = entropy_estimate(spec, x.size, rng=Fixed(x))
    want = reference_entropy_estimate(spec, 20, x.size, Fixed(x), 0, 32)
    assert got == want > 0


@pytest.mark.parametrize("name", ["paper-example", "logistic3.4-embed", "dying"])
@pytest.mark.parametrize("burn_in", [0, 1, 63, 64, 65, 512])
@pytest.mark.parametrize("windows_per_orbit", [1, 32])
@pytest.mark.parametrize("n", [1, 12, 20])
def test_entropy_matches_reference_across_arguments(name, burn_in, windows_per_orbit, n, monkeypatch):
    # the merge schedule against the reference at other constant settings
    monkeypatch.setattr(spectral, "ENTROPY_BURN_IN", burn_in)
    monkeypatch.setattr(spectral, "ENTROPY_WINDOWS", windows_per_orbit)
    monkeypatch.setattr(spectral, "ENTROPY_WORD_LENGTH", n)
    spec = MAPS[name] if name in MAPS else builtin_map(name)
    same(spec, samples=10_000)


def counted_steps(monkeypatch) -> list[int]:
    """The sizes of the arrays entropy_estimate steps, one entry a step."""
    elements = []

    class Counting(Stepper):
        def __call__(self, x, *columns):
            elements.append(np.size(x))
            return super().__call__(x, *columns)

    monkeypatch.setattr(spectral, "Stepper", Counting)
    return elements


def test_orbit_merge_cuts_the_work(monkeypatch):
    # paper-example has an attracting 2-cycle: almost every float orbit
    # falls onto one of a few exact float values during the burn-in
    spec = builtin_map("paper-example")
    elements = counted_steps(monkeypatch)
    samples = 100_000
    n, burn_in, windows = spectral.ENTROPY_WORD_LENGTH, spectral.ENTROPY_BURN_IN, spectral.ENTROPY_WINDOWS
    h = entropy_estimate(spec)
    assert 0 < sum(elements) < 0.25 * samples * (burn_in + n + windows)
    monkeypatch.undo()
    assert h == reference_entropy_estimate(spec)


def test_tiles_step_what_the_whole_array_stepped(monkeypatch):
    # merges see all orbits, so the tiles step the elements that one array
    # of all orbits stepped (7,663,504 on paper-example), in arrays of at
    # most ENTROPY_TILE elements
    sizes = []
    elements = counted_steps(monkeypatch)
    Counting = spectral.Stepper

    class Sized(Counting):
        def __init__(self, specs, size=None):
            sizes.append(size)
            super().__init__(specs, size)

    monkeypatch.setattr(spectral, "Stepper", Sized)
    entropy_estimate(builtin_map("paper-example"))
    assert sum(elements) == 7_663_504
    assert sizes == [TILE] and max(elements) == TILE


def test_unmerged_orbits_step_every_sample(monkeypatch):
    # on logistic4-embed no two of the 100,000 float orbits meet: each
    # steps through the burn-in, the n + windows - 1 word-phase steps and
    # the one step that tells whether it met c
    elements = counted_steps(monkeypatch)
    entropy_estimate(builtin_map("logistic4-embed"))
    assert sum(elements) == 100_000 * (512 + 52) == 56_400_000


def traced_peak(spec, samples):
    entropy_estimate(spec, 10_000)  # kernels and imports, outside the count
    tracemalloc.start()
    try:
        entropy_estimate(spec, samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_entropy_estimate_peak_memory():
    # no samples x windows word array (25.6 MB) and work arrays of one tile,
    # not of all orbits: the orbits, the merge's sort and a 2^20 table of
    # seen words (7.0 MB with work arrays of all orbits)
    assert traced_peak(builtin_map("logistic4-embed"), 100_000) < 6e6


def test_entropy_estimate_peak_memory_at_the_samples_cap():
    # 10^6 orbits (the samples budget's cap) on paper-example: 51.3 MB with
    # work arrays and a side history of all orbits
    assert traced_peak(builtin_map("paper-example"), 10**6) < 30e6


def test_entropy_refuses_a_side_history_wider_than_64_bits(monkeypatch):
    monkeypatch.setattr(spectral, "ENTROPY_WORD_LENGTH", 20)
    monkeypatch.setattr(spectral, "ENTROPY_WINDOWS", 46)
    with pytest.raises(ValueError, match="64"):
        entropy_estimate(builtin_map("paper-example"), 10_000)
    # 64 bits exactly: the first word-phase step lands on the top bit
    monkeypatch.setattr(spectral, "ENTROPY_WINDOWS", 45)
    monkeypatch.setattr(spectral, "ENTROPY_BURN_IN", 0)
    same(builtin_map("paper-example"), samples=10_000)


def test_entropy_rejects_too_few_samples():
    with pytest.raises(ValueError):
        entropy_estimate(builtin_map("paper-example"), 9_999)
