"""Guards on the package's source text."""

import ast
import inspect
import re
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
