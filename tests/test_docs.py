"""The documented callers keep running: the README quick start, the
README solve and sweep-and-fit commands and the warehouse demo script,
so a signature change cannot silently break them."""

import os
import pathlib
import re
import subprocess
import sys

from bdmtsp import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs(capsys):
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
    total, sizes = capsys.readouterr().out.split(" ", 1)
    assert float(total) > 0
    assert sizes.strip() == "[11, 11, 11]"  # depot plus ceil(30 / 3) stops each


def test_warehouse_demo_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "warehouse_demo.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "drift" in done.stdout


def test_readme_cli_sweep_and_fit_run(tmp_path, monkeypatch, capsys):
    # the sweep must give cam-fit at least as many configurations as the
    # 64 columns backward selection starts from
    section = (ROOT / "README.md").read_text().split("Run a sweep over uniform instances", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("bdmtsp ")]
    (shown,) = [line[2:] for line in block.splitlines() if line.startswith("# published_16f")]
    assert shown.endswith("20.1386")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
    assert shown in capsys.readouterr().out.splitlines()


def test_readme_cli_solve_prints_what_it_shows(monkeypatch, capsys):
    section = (ROOT / "README.md").read_text().split("Solve one instance under one scope", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    (command,) = [line.split()[1:] for line in block.splitlines() if line.startswith("bdmtsp ")]
    shown = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    shown = [line for line in shown if line.strip() != "..."]
    assert shown[0].endswith(" closed")
    monkeypatch.chdir(ROOT)
    assert cli.main(command) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in shown if line not in out] == []
