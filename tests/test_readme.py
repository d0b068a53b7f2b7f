"""README's library example and CLI lines run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from lorenzlab import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_readme_cli_lines_parse_and_run(tmp_path, monkeypatch, capsys):
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(argv[0] == "lorenzlab" for argv in lines)
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        args = cli.make_parser().parse_args(argv[1:])
        # the 10 x 10 scan takes several seconds; parsing it is the check
        if args.command != "scan":
            assert cli.main(argv[1:]) == cli.EXIT_OK, argv
            capsys.readouterr()
