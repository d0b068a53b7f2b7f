"""Golden reports: `lorenzlab analyze` on the three builtin maps at default
budgets with --seed 0 must stay byte-identical.

The digests are SHA-256 of the report files. A change that alters a report
on purpose explains each changed byte (as a correctness fix) and then
regenerates the digests from the repository root with

    PYTHONPATH=src python -c "import hashlib; from lorenzlab import builtin_map; \
from lorenzlab.cli import _dump_json, build_report; from lorenzlab.spectral import Budgets; \
[print(m, hashlib.sha256(_dump_json(build_report(builtin_map(m), Budgets(seed=0))).encode()).hexdigest()) \
for m in ('paper-example', 'logistic4-embed', 'logistic3.4-embed')]"

The scan CSV is guarded the same way, on the forked path where the host
has a second CPU and with the scan forced inline: SHA-256 of the output of

    PYTHONPATH=src python -m lorenzlab.cli scan --a-left 3.75:4 --a-right 3:4 \
        --steps 2 --budgets '{"max_period": 8}'

(four quadratic pairs through classification, n_f and Lyapunov; a row
runs no decomposition).

The benchmark's scan grids are guarded too: SHA-256 of the output of

    PYTHONPATH=src python -m lorenzlab.cli scan --a-left LO_LEFT:4.0 \
        --a-right LO_RIGHT:4.0 --steps 3 --budgets '{"max_period": 8}'

for each lower corner (LO_LEFT, LO_RIGHT) of bench/workloads.py's
SCAN_CORNERS, written with repr as the benchmark writes them.

The return-map CSVs are SHA-256 of the outputs of

    PYTHONPATH=src python -m lorenzlab.cli returnmap --map logistic3.4-embed \
        --interval 0.294117647,0.705882353
    PYTHONPATH=src python -m lorenzlab.cli returnmap --map logistic4-embed \
        --interval 0.25,0.75
    PYTHONPATH=src python -m lorenzlab.cli returnmap --map logistic4-embed \
        --interval 0.49769678772492537,0.5329888453091722

(the edge bisections, the push certificate of each branch and the
niceness probe of `first_return_map` and `is_nice`; on the third interval
the push refuses runs whose domain holds branch structure below grid
resolution, which stay uncovered).

The `classify` and `decompose` JSON are SHA-256 of the outputs of

    PYTHONPATH=src python -m lorenzlab.cli CMD --map MAP --budgets '{"max_period": 8}'

for CMD in classify and decompose, and MAP each of paper-example,
logistic3.4-embed, logistic4-embed and the configs written by

    PYTHONPATH=src python -m lorenzlab.cli embed-unimodal --logistic A --out MAP

for A in 3.6 and 3.66. Together they run every reader of the critical
orbits: on paper-example step (1) of the classification finds an
attracting cycle and the degenerate search reads f(c+) to the horizon;
logistic3.4-embed has a stratum annulus; the cover of step (4) is full
in the first chunk on logistic4-embed and stays below 1 (0.935) on A =
3.66, whose walks run in full; A = 3.6 reaches step (5) and has an
annulus.

The reports print floats with repr, so the digests hold for IEEE double
arithmetic on the numpy and libm of the platform that generated them
(x86-64, CPython 3.11, numpy 2.4). The three builtin maps are polynomial,
and their digests also hold with numpy's AVX2 and AVX-512 kernels switched
off (tests/test_dispatch.py). A report of a `power_form` map holds only per
numpy dispatch path: its array kernel can round differently on another
SIMD path, and catalog points and multipliers then move in their last bits.
"""

import hashlib
import importlib.resources
import json
import os

import pytest
from test_cli import _forks, _no_child_left

from lorenzlab import cli
from lorenzlab.cli import EXIT_OK, main
from lorenzlab.map_core import BUILTIN_NAMES

GOLDEN_SHA256 = {
    "paper-example": "86280ca3343ce7ccc5660412ac82fdc7f1acbfaad0d05df4ec6bbfc1839086cd",
    "logistic4-embed": "62a1eb0dca0d14abbfcd367a720934e18365096faa7de93868d1dddbcd6da6cb",
    "logistic3.4-embed": "7fb070962d7fcce5d6a4049b72bf57b1ad154f73da92c02e2214001569e57cdf",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_report_bytes(tmp_path, name):
    out = tmp_path / "report.json"
    assert main(["analyze", "--map", name, "--seed", "0", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[name]
    jsonschema = pytest.importorskip("jsonschema")
    schema = importlib.resources.files("lorenzlab").joinpath("schemas/map_report.schema.json").read_text()
    jsonschema.validate(json.loads(out.read_text()), json.loads(schema))


GOLDEN_SCAN_SHA256 = "8aa4e97114eb2289aa7f49c86ff9c16f9e0b4723764edb00f58143f41d469e6f"
GOLDEN_SCAN_ARGV = ["--a-left", "3.75:4", "--a-right", "3:4", "--steps", "2"]


def _scan_sha256(tmp_path, argv) -> str:
    out = tmp_path / "scan.csv"
    assert main(["scan", *argv, "--budgets", '{"max_period": 8}', "--out", str(out)]) == EXIT_OK
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _forked_scan_sha256(tmp_path, monkeypatch, argv) -> str:
    """_scan_sha256 on the path the host gives: where the scan may fork,
    one child computes the odd cells and is reaped."""
    if not cli._can_fork():
        return _scan_sha256(tmp_path, argv)
    pids = _forks(monkeypatch)
    digest = _scan_sha256(tmp_path, argv)
    assert len(pids) == 1
    _no_child_left()
    return digest


def test_golden_scan_bytes(tmp_path, monkeypatch):
    assert _forked_scan_sha256(tmp_path, monkeypatch, GOLDEN_SCAN_ARGV) == GOLDEN_SCAN_SHA256


GOLDEN_SCAN_CORNER_SHA256 = {
    (3.75, 3.0): "d8a426d65f2a8470f6fa34764d68c9eea18247fd3953e27064dcd7507fd32927",
    (3.25, 3.5): "97b3ebb9f8d7bc7ed05eb8e6b188ffe03bd6a5c3607da1badbd46b6eeed634a4",
    (3.25, 3.75): "f8ae71321d31039e88fbe3d0f48a243004771cec3426be317fdd763795b61e7a",
    (3.875, 3.0): "8bd5dd73e2f8fc77ea4f026e0141f3356aac977c1840cfc346559282df1d8a2e",
    (3.375, 3.125): "6613b462cd83e5ac58d2bbcabde6f1b0f9ea1ac9c6011fe70fd34c069d86efb2",
    (3.875, 3.25): "73ba965564c2ce392e1f5e9c0438de5814e8e453e92d4839fccf28186e83264e",
}


def _corner_argv(lo_left: float, lo_right: float) -> list[str]:
    return ["--a-left", f"{lo_left!r}:4.0", "--a-right", f"{lo_right!r}:4.0", "--steps", "3"]


@pytest.mark.parametrize("lo_left, lo_right", sorted(GOLDEN_SCAN_CORNER_SHA256))
def test_golden_scan_corner_bytes(tmp_path, monkeypatch, lo_left, lo_right):
    digest = _forked_scan_sha256(tmp_path, monkeypatch, _corner_argv(lo_left, lo_right))
    assert digest == GOLDEN_SCAN_CORNER_SHA256[(lo_left, lo_right)]


@pytest.mark.parametrize(
    "argv, digest",
    [(GOLDEN_SCAN_ARGV, GOLDEN_SCAN_SHA256)]
    + [(_corner_argv(*corner), GOLDEN_SCAN_CORNER_SHA256[corner]) for corner in sorted(GOLDEN_SCAN_CORNER_SHA256)],
    ids=["golden", *(f"{l}-{r}" for l, r in sorted(GOLDEN_SCAN_CORNER_SHA256))],
)
def test_golden_scan_bytes_inline(tmp_path, monkeypatch, argv, digest):
    # the same digests with every cell in this process, in input order
    def no_fork():
        pytest.fail("os.fork was called")

    monkeypatch.setattr(cli, "_can_fork", lambda: False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert _scan_sha256(tmp_path, argv) == digest


GOLDEN_RETURNMAP_SHA256 = {
    ("logistic3.4-embed", "0.294117647,0.705882353"): (
        "05d8ccb9d2fb0a68c513bf8995437de6980b5f39d6a0a2aa83c728a570eec2ea"
    ),
    ("logistic4-embed", "0.25,0.75"): (
        "e8b2fe67fb3a92b3d2d6696e1f5047b753bc561d13676c863a7bdaa02dd287d0"
    ),
    ("logistic4-embed", "0.49769678772492537,0.5329888453091722"): (
        "9f7f3ca5efe49b9ea2481538bc278d625f06f435482f37392be1928c260de9d2"
    ),
}


@pytest.mark.parametrize("name,interval", sorted(GOLDEN_RETURNMAP_SHA256))
def test_golden_returnmap_bytes(tmp_path, name, interval):
    out = tmp_path / "branches.csv"
    argv = ["returnmap", "--map", name, "--interval", interval, "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_RETURNMAP_SHA256[(name, interval)]


GOLDEN_STAGE_SHA256 = {
    ("classify", "paper-example"): "c4f255ecf8b94adaa74f380655caead4fdededf87c469a32bb44355c007ec389",
    ("classify", "logistic3.4-embed"): "2f8608f6c8db15888762bc356c5dc16fa59267eecc25e616fa7a94bcc8169fe7",
    ("classify", "logistic4-embed"): "b2598edf1e41f9dc09ad85e367fffccab945a4ff14c2f82418315a2e34cf836d",
    ("classify", "3.6"): "2c580ce2c63dea4c26ec47d9ee723fd5b40f23d313125a10bc38c889dfed77dc",
    ("classify", "3.66"): "ac5e80a9fb534fe758b730460bdec3bedbbd8e510c499b47f18c5db588bf2009",
    ("decompose", "paper-example"): "0f9ef48a9497b0f5e25719fd179032b64c4963fdda2580773007f694342ae7fb",
    ("decompose", "logistic3.4-embed"): "33c51d74a0a0c42cc9bfa67e935e0cc8163b832aa71c8b5fe2f334d1136855f4",
    ("decompose", "logistic4-embed"): "1442908023dde389a02e1bd013759ab889219acbda2fdc00715cc4d01ac420ce",
    ("decompose", "3.6"): "1ca529360ed14f03a19d35734c06e9a1855ed3e52e2c5c16aeb05294656334b2",
    ("decompose", "3.66"): "7be33d88e45f5e480b9576f330e79338f802fea6e593f2169eb2f7fef90945fc",
}


@pytest.mark.parametrize("command, name", sorted(GOLDEN_STAGE_SHA256))
def test_golden_stage_bytes(tmp_path, command, name):
    # name is a builtin map or the logistic parameter of an embedding
    out, cfg = tmp_path / "stage.json", tmp_path / "map.json"
    if name not in BUILTIN_NAMES:
        assert main(["embed-unimodal", "--logistic", name, "--out", str(cfg)]) == EXIT_OK
    argv = [command, "--map", name if name in BUILTIN_NAMES else str(cfg), "--budgets", '{"max_period": 8}']
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_STAGE_SHA256[(command, name)]
