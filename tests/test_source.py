"""Guards on the package's source text."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import disklab
from disklab import cli


def test_no_function_body_imports():
    # an import inside a function hides an import cycle until the function runs
    found = []
    for path in sorted(Path(disklab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {fn.name}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


# the package's only dataclasses, each with the semantics it keeps one for;
# every other record is a NamedTuple, several times cheaper to create at import
_DATACLASSES = {
    "DiskGrid": "validates its ring table in __post_init__, hides the ring tuples "
                "from repr, and keys a weight's entries in moments._RECORDS by value",
    "DbrModel": "compares without diagnostics, and szego_model calls replace on it",
}


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_only_the_listed_classes_are_dataclasses():
    found = set()
    for path in sorted(Path(disklab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  and any(_decorator_name(d) == "dataclass" for d in node.decorator_list)}
    assert sorted(found) == sorted(_DATACLASSES)


def test_no_einsum_passes_optimize():
    # optimize may route a contraction through BLAS tensordot, whose sums
    # depend on the BLAS build and its thread count
    calls, found = 0, []
    for path in sorted(Path(disklab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _decorator_name(node) == "einsum":
                calls += 1
                found += [f"{path.name}:{node.lineno}" for kw in node.keywords
                          if kw.arg in ("optimize", None)]  # None: a **mapping
    assert calls > 0 and found == []


def test_no_isinstance_names_a_weight_class():
    # a scaled weight is data on its weight (factors, base), not a type to branch on
    package = Path(disklab.__file__).parent
    weights = ast.parse((package / "weights.py").read_text(encoding="utf-8"))
    classes = {node.name for node in ast.walk(weights) if isinstance(node, ast.ClassDef)}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _decorator_name(node) == "isinstance":
                named = {_decorator_name(n) for n in ast.walk(node.args[1])}
                found += [f"{path.name}:{node.lineno}"] if named & classes else []
    assert "Weight" in classes and found == []


def test_no_vars_call_in_the_package():
    # state kept in an object's __dict__ by another module is a second owner:
    # a weight's per-grid record lives in moments._RECORDS alone
    found = []
    for path in sorted(Path(disklab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _decorator_name(node) == "vars"]
    assert found == []


def test_only_the_process_entry_freezes_the_heap():
    # gc.freeze keeps every object tracked so far out of all later collections:
    # right for a process that has done its imports, wrong for an in-process caller
    package = Path(disklab.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [path.name for node in ast.walk(tree)
                  if isinstance(node, (ast.Attribute, ast.Name))
                  and "freeze" in (getattr(node, "attr", None), getattr(node, "id", None))]
    assert found == ["__main__.py"]
    # the installed script is the same entry
    scripts = (package.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^disklab = "disklab\.__main__:main"$', scripts, re.M)


# the standard-library modules that importing the command line adds to numpy's
# own, measured with Python 3.11 and numpy 2.4 (_sha2 is _sha256 from 3.12 on)
_IMPORT_ALLOWLIST = {
    "__future__", "_csv", "_decimal", "_json", "_sha256", "_sha2", "argparse", "copy",
    "csv", "dataclasses", "decimal", "fractions", "gettext", "json", "json.decoder",
    "json.encoder", "json.scanner",
}


def test_importing_the_command_line_adds_only_the_allowed_modules():
    # every process pays for each module it imports, four times a kernel-log run
    probe = ("import sys, numpy; before = set(sys.modules); import disklab.cli; "
             "print(*sorted(set(sys.modules) - before))")
    src = str(Path(disklab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    added = {m for m in proc.stdout.split() if m.partition(".")[0] not in ("disklab", "numpy")}
    assert added <= _IMPORT_ALLOWLIST, sorted(added - _IMPORT_ALLOWLIST)


def test_each_command_reads_every_flag_it_registers():
    # a flag its runner never reads is dead: dbr build's --boundary was one
    dests = {kw.get("dest", option[2:].replace("-", "_")) for option, kw in cli._FLAGS.items()}
    for argv in (["moments"], ["dbr", "build"], ["weights", "info"]):
        config = cli.parse_args(argv)
        source = inspect.getsource(cli._COMMANDS[config.command])
        read = set(re.findall(r"\bconfig\.(\w+)", source))
        if "weight" in read:  # parse_args turns --weight into config.weight
            read.add("weight_spec")
        assert sorted(dests & vars(config).keys() - read) == [], config.command


# exports that nothing in the package calls, each with the reason it stays
_EXPORTED_UNUSED = {
    "berezin_transform": "perfbench declares its figure; it leaves with that figure",
    "exp_series": "perfbench declares its figure; it leaves with that figure",
    "kernel_series": "perfbench declares its figure; it leaves with that figure",
    "kernel": "the tests' reference for the Gram that verify_isometry forms",
}


def _used_names(node, inside=frozenset()):
    """Names and attributes read under node, outside the definitions they name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    names = {node.id} if isinstance(node, ast.Name) else (
        {node.attr} if isinstance(node, ast.Attribute) else set())
    names -= inside
    for child in ast.iter_child_nodes(node):
        names |= _used_names(child, inside)
    return names


def test_every_export_is_used_in_the_package():
    # a public name only the tests call is API kept for them alone
    init = Path(disklab.__file__)
    exported = {alias.asname or alias.name
                for node in ast.parse(init.read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in sorted(init.parent.glob("*.py")):
        if path != init:
            used |= _used_names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert sorted(exported - used - _EXPORTED_UNUSED.keys()) == []
    assert _EXPORTED_UNUSED.keys() <= exported - used
