"""The benchmark still runs: every per-layer figure it declares is traced,
and every command line it spawns parses.

``perfbench/trace.py`` wraps the package's public functions by name, and
``perfbench/run.py`` reads the figures named in ``BENCHMARK.json``'s
``per_layer`` list from the spans. A figure whose function is gone from
the package would fail the traced run with a KeyError; the first test
names it. A flag the CLI no longer takes would fail every pass of its
workload with exit 2; the second test names the command line.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_declared_layer_figure_is_traced(tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "trace.py"), str(spans), "guard",
         "verify", "--suite", "tensor", "--weight", "harm:1,0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    figures = _load_run_module().layer_figures(json.loads(spans.read_text()))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = [m["name"] for m in declared
              if m["name"] != "cli.checks" and not m["name"].startswith("trace.")]
    assert [name for name in wanted if name not in figures] == []


def test_every_benchmark_command_line_parses():
    from disklab.cli import parse_args

    run = _load_run_module()
    refused = []
    for workload in run.WORKLOADS:
        for seed in range(8):
            for argv in run.invocations(workload, seed):
                try:
                    parse_args(argv)
                except SystemExit:
                    refused.append(argv)
    assert refused == []
