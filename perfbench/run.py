#!/usr/bin/env python3
"""disklab benchmark: the ``disklab`` CLI, run as a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One closed-loop client starts one CLI process at a time and times each
workload pass from the first spawn to the last exit. Every report is
validated against the expected-verdict table in perfbench/expected.json,
and within a run it must hash the same on every pass once the timing
fields are stripped. With ``--trace 1`` the commands also run under
perfbench/trace.py, which gives the per-layer figures; untraced passes
never import it. The metric names and units are the ones BENCHMARK.json
declares. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. ``--workload all`` runs every
workload in both modes and prints the figures as tables.

Run it from the root of a checkout; it imports disklab from ``src/`` there
and keeps its scratch files in ``.perfbench_tmp/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

WORKLOADS = ("verify-harm", "verify-uniform", "kernel-log")
SETUP_REPEATS = 11
MIN_PASSES = 2  # the determinism gate needs two passes to compare
TRACED_PASSES = 2  # the counters must repeat exactly between them
INVOCATION_TIMEOUT_S = 150.0
MARGIN_CAP = 16.0  # margin reported where a value is exactly 0
LOG_MODULUS = 0.4
LOG_ANGLES = 8
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# build_model stage -> the child spans that make it (direct children only)
STAGES = {
    "dbr.build_model.table_s": ("moments.atoms_table", "dbr.moment_table_from_berezin"),
    "dbr.build_model.h_s": ("dbr.h_from_moments",),
    "dbr.build_model.a_s": ("dbr.outer_function",),
    "dbr.build_model.b_s": ("series.mul",),
}


def log_spec(seed: int) -> str:
    """Log pole at modulus 0.4, its argument rotated by the seed in steps of pi/4."""
    t = 2.0 * math.pi * (seed % LOG_ANGLES) / LOG_ANGLES

    def fmt(v: float) -> str:
        return f"{round(v, 12) + 0.0:.12g}"

    return f"log:{fmt(LOG_MODULUS * math.cos(t))},{fmt(LOG_MODULUS * math.sin(t))}"


def invocations(workload: str, seed: int) -> list[list[str]]:
    """CLI argument lists of one workload pass, in order."""
    if workload == "verify-harm":  # pinned, not seeded: see NOTES.md
        return [["verify", "--suite", "all", "--weight", "harm:1,0"]]
    if workload == "verify-uniform":
        return [["verify", "--suite", "all", "--weight", "uniform"]]
    spec = log_spec(seed)
    return [
        ["verify", "--suite", suite, "--weight", spec, "--series-order", "256"]
        for suite in ("dirichlet", "dbr", "isometry")
    ] + [["dbr", "build", "--weight", spec, "--series-order", "512"]]


# ---------------------------------------------------------------- processes

def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def spawn(argv: list[str], env: dict, tag: str) -> tuple[int, str, float]:
    """Run one process to its end: exit code, stdout, peak RSS in MiB."""
    out_path, err_path = TMP / f"{tag}.out", TMP / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace").strip()
    if proc.returncode not in (0, 1) and stderr:
        print(f"[{tag}] {argv[1:]} exited {proc.returncode}: {stderr[-400:]}",
              file=sys.stderr)
    return proc.returncode, out_path.read_text(errors="replace"), usage.ru_maxrss / 1024.0


def setup_seconds(env: dict) -> float:
    """Median time for a fresh interpreter to import disklab.cli."""
    code, out, _ = spawn([sys.executable, "-c",
                          "import disklab.cli; print(disklab.cli.__file__)"],
                         env, "setup")
    if code != 0 or not Path(out.strip()).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"disklab.cli did not import from {SRC}: {out.strip()!r}")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        code, _, _ = spawn([sys.executable, "-c", "import disklab.cli"], env, "setup")
        times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit("importing disklab.cli failed")
    return statistics.median(times)


def run_pass(cmds: list[list[str]], env: dict, trace_id: str | None) -> dict:
    """One workload pass: every invocation in order, one process at a time."""
    outputs, spans, peak = [], [], 0.0
    start = time.perf_counter()
    for i, argv in enumerate(cmds):
        tag = f"{trace_id or 'untraced'}-{i}"
        if trace_id is None:
            full = [sys.executable, "-m", "disklab", *argv]
        else:
            full = [sys.executable, str(BENCH / "trace.py"),
                    str(TMP / f"{tag}.spans.json"), trace_id, *argv]
        code, out, rss = spawn(full, env, tag)
        outputs.append((code, out))
        peak = max(peak, rss)
    wall = time.perf_counter() - start
    if trace_id is not None:
        for i in range(len(cmds)):
            path = TMP / f"{trace_id}-{i}.spans.json"
            spans.append(json.loads(path.read_text()) if path.exists() else None)
    return {"wall_s": wall, "peak_rss_mib": peak, "outputs": outputs, "spans": spans}


# --------------------------------------------------------------- validation

def _strip_timing(node):
    if isinstance(node, dict):
        return {k: _strip_timing(v) for k, v in node.items()
                if k not in ("timings", "elapsed_s")}
    if isinstance(node, list):
        return [_strip_timing(v) for v in node]
    return node


def report_digest(stdout: str) -> str:
    try:
        blob = json.dumps(_strip_timing(json.loads(stdout)), sort_keys=True)
    except ValueError:
        blob = stdout
    return hashlib.sha256(blob.encode()).hexdigest()


def margin_log10(value: float, tol: float) -> float:
    """log10(tolerance / value) of a passing upper-bounded check."""
    if value == 0.0:
        return MARGIN_CAP
    return min(MARGIN_CAP, math.log10(tol / value))


def _model_ok(payload, expected: dict) -> bool:
    if not isinstance(payload, dict) or sorted(payload) != expected["keys"]:
        return False
    numbers = list(payload["diagnostics"].values())
    for part in ("h", "a", "b"):
        series = payload[part]
        if len(series["re"]) != expected["series_len"] or len(series["im"]) != expected["series_len"]:
            return False
        numbers += series["re"] + series["im"]
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in numbers)


def validate(expected: dict, code: int, stdout: str) -> tuple[int, list[str], list[float]]:
    """Checks attempted, deviations from the expected table, margins of passing checks."""
    deviations = [] if code == expected["exit"] else [f"exit {code}, expected {expected['exit']}"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        payload = None
    if "model" in expected:
        if not _model_ok(payload, expected["model"]):
            deviations.append("model output malformed")
        return 2, deviations, []
    got = payload.get("checks", []) if isinstance(payload, dict) else []
    want = expected["checks"]
    margins = []
    for i in range(max(len(got), len(want))):
        g = got[i] if i < len(got) else None
        w = want[i] if i < len(want) else None
        if g is None or w is None or g["name"] != w["name"]:
            deviations.append(f"check {i}: got {g and g['name']}, expected {w and w['name']}")
            continue
        if g["passed"] != w["passed"] or (g["value"] is not None) != w["has_value"]:
            deviations.append(f"{w['name']}: passed={g['passed']} value={g['value']}")
            continue
        # Lower-bounded floors (the falsification checks) measure a test's
        # power, not accuracy, and their margin moves with the log pole's
        # angle; only upper-bounded accuracy checks give margins.
        if w["passed"] and w["bound"] == "upper":
            margins.append(margin_log10(g["value"], g["tolerance"]))
    return 1 + max(len(got), len(want)), deviations, margins


def judge(workload: str, passes: list[dict]) -> dict:
    """Validate every pass against the table and against the first pass."""
    table = json.loads((BENCH / "expected.json").read_text())[workload]
    attempted = failed = 0
    margins = []
    first = None
    for n, p in enumerate(passes):
        digests = []
        for expected, (code, out) in zip(table, p["outputs"], strict=True):
            count, deviations, m = validate(expected, code, out)
            attempted += count
            failed += len(deviations)
            margins += m
            for d in deviations:
                print(f"[{workload} pass {n}] deviation: {d}", file=sys.stderr)
            digests.append(report_digest(out))
        if first is None:
            first = digests
            continue
        attempted += len(digests)
        for i, (a, b) in enumerate(zip(first, digests)):
            if a != b:
                failed += 1
                print(f"[{workload} pass {n}] invocation {i}: report differs "
                      "from the first pass", file=sys.stderr)
    return {"attempted": attempted, "failed": failed,
            "min_margin_log10": min(margins) if margins else MARGIN_CAP}


# ------------------------------------------------------------------ tracing

def layer_figures(trace: dict) -> dict:
    """Per-layer figures of one traced invocation."""
    spans = trace["spans"]
    child_time = Counter()
    for _, _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    figures = Counter()
    for name in trace["names"]:
        figures[f"{name}.s"] = figures[f"{name}.calls"] = figures[f"{name}.self_s"] = 0
    for stage in STAGES:
        figures[stage] = 0
    figures.update(trace["counts"])
    for span_id, name, start, end, parent in spans:
        dur = end - start
        figures[f"{name}.calls"] += 1
        figures[f"{name}.self_s"] += dur - child_time[span_id]
        p = parent
        while p is not None and spans[p][1] != name:
            p = spans[p][4]
        if p is None:  # outermost span of this name: inclusive time counts once
            figures[f"{name}.s"] += dur
        if parent is not None and spans[parent][1] == "dbr.build_model":
            for stage, children in STAGES.items():
                if name in children:
                    figures[stage] += dur
    for suite in ("moments", "tensor", "dirichlet", "dbr", "isometry"):
        figures[f"cli.suite.{suite}.s"] = figures[f"cli.suite_{suite}.s"]
    return figures


def pass_layers(p: dict) -> tuple[dict, set]:
    """Sum the figures of a traced pass; also name its deterministic counters."""
    total, counters = Counter(), {"cli.checks"}
    for trace in p["spans"]:
        if trace is None:
            raise SystemExit("a traced invocation wrote no spans")
        total.update(layer_figures(trace))
        counters |= set(trace["counts"])
    counters |= {k for k in total if k.endswith(".calls")}
    checks = 0
    for _, out in p["outputs"]:
        try:
            checks += len(json.loads(out).get("checks", []))
        except (ValueError, AttributeError):
            pass
    total["cli.checks"] = checks
    return total, counters


# -------------------------------------------------------------------- runs

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns attempted/failed and every figure by name."""
    env = child_env()
    cmds = invocations(workload, seed)
    if not trace:
        figures = {"setup_s": setup_seconds(env)}
        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(run_pass(cmds, env, None))
        verdict = judge(workload, passes)
        figures["wall_s"] = statistics.median(p["wall_s"] for p in passes)
        figures["peak_rss_mib"] = statistics.median(p["peak_rss_mib"] for p in passes)
        figures["min_margin_log10"] = verdict["min_margin_log10"]
    else:
        untraced = run_pass(cmds, env, None)
        traced = [run_pass(cmds, env, f"{workload}-s{seed}-p{n}")
                  for n in range(TRACED_PASSES)]
        verdict = judge(workload, [untraced, *traced])
        layers = [pass_layers(p) for p in traced]
        figures = {}
        for key in layers[0][0]:
            values = [fig[key] for fig, _ in layers]
            figures[key] = values[0] if key in layers[0][1] else statistics.median(values)
            if key in layers[0][1]:
                verdict["attempted"] += 1
                if len(set(values)) > 1:
                    verdict["failed"] += 1
                    print(f"[{workload}] counter {key} differs between traced "
                          f"passes: {values}", file=sys.stderr)
        figures["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        figures["trace.overhead_s"] = figures["trace.wall_s"] - untraced["wall_s"]
    attempted, failed = verdict["attempted"], verdict["failed"]
    figures["verdict_agreement"] = 1.0 - failed / attempted
    return {"attempted": attempted, "failed": failed, "figures": figures}


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def result_line(run: dict, trace: bool) -> dict:
    metrics = {m["name"]: {"value": run["figures"][m["name"]], "unit": m["unit"]}
               for m in declared("per_layer" if trace else "end_to_end")}
    return {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def print_table(title: str, columns: list[str], rows: list[tuple[str, str, list]]) -> None:
    print(f"\n{title}")
    print(f"{'metric':<34} {'unit':<6} " + " ".join(f"{c:>15}" for c in columns))
    for name, unit, values in rows:
        print(f"{name:<34} {unit:<6} " + " ".join(f"{v:>15.6g}" for v in values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "disklab" / "cli.py").is_file():
        print(f"no disklab source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    TMP.mkdir(exist_ok=True)
    try:
        print(json.dumps({"machine": machine()}))
        if args.workload != "all":
            run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result_line(run, bool(args.trace))))
            return 0
        e2e = {w: measure(w, args.seed, args.seconds, False) for w in WORKLOADS}
        layers = {w: measure(w, args.seed, args.seconds, True) for w in WORKLOADS}
        for title, runs, kind in (("end to end (untraced)", e2e, "end_to_end"),
                                  ("per layer (traced)", layers, "per_layer")):
            rows = [(m["name"], m["unit"], [runs[w]["figures"][m["name"]] for w in WORKLOADS])
                    for m in declared(kind)]
            rows.append(("failed_ratio", "ratio",
                         [runs[w]["failed"] / runs[w]["attempted"] for w in WORKLOADS]))
            print_table(title, list(WORKLOADS), rows)
        print(json.dumps({w: {"e2e": result_line(e2e[w], False),
                              "per_layer": result_line(layers[w], True)}
                          for w in WORKLOADS}))
        return 0
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
