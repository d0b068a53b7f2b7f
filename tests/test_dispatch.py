"""The golden digests under numpy's baseline SIMD dispatch.

numpy picks its kernels by CPU feature at import. The golden reports of the
three builtin maps are polynomial, so their digests must not depend on that
choice: tests/test_golden.py is rerun in a subprocess with the AVX2 and
AVX-512 paths switched off. The subprocess first checks that the switch took
effect: X86_V3 (AVX2) reads off there whenever this process has it.
"""

import os
import subprocess
import sys
from pathlib import Path

from numpy._core._multiarray_umath import __cpu_features__

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
DISABLED = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"

CHILD = """
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_features__

assert not (sys.argv[1] == "True" and __cpu_features__["X86_V3"]), "X86_V3 is still on"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[2]]))
"""


def test_golden_digests_under_baseline_dispatch():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "-c", CHILD, str(__cpu_features__.get("X86_V3", False)), str(TESTS / "test_golden.py")]
    run = subprocess.run(argv, cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
