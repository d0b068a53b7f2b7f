"""The benchmark's per-layer tracer (bench/tracing.py) against the names it
wraps: a rename in lorenzlab that would leave a traced metric empty fails
here. The tracer is loaded from its file and left unchanged."""

import importlib
import importlib.util
import sys
from pathlib import Path

from lorenzlab.cli import EXIT_OK, main

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_wraps_every_target(tmp_path, monkeypatch):
    tracing = load_tracing(monkeypatch)
    mods = {m: importlib.import_module(f"lorenzlab.{m}") for m in tracing.MODULES}
    names = {f for _, f, _, _ in tracing.TARGETS}
    originals = {(m, f): getattr(mod, f) for m, mod in mods.items() for f in names if hasattr(mod, f)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for home, f, _, _ in tracing.TARGETS:
            # resolved: some module's attribute of that name is now a wrapper
            assert any(getattr(mods[m], g) is not fn for (m, g), fn in originals.items() if g == f), f"{home}.{f}"
        assert main(["analyze", "--map", "paper-example", "--out", str(tmp_path / "r.json")]) == EXIT_OK
    finally:
        tracer.uninstall()
    assert {"spectral.decompose", "spectral.classify_attractor"} <= {s.name for s in tracer.spans}
    assert all(getattr(mods[m], f) is fn for (m, f), fn in originals.items())
